import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xfmr.tensor as T
from xfmr import (
    DynamicPositionBias,
    GroupedAttention,
    Tensor,
    attend_tokens,
    build_layout,
    grad_check,
    group,
    no_grad,
    ungroup,
)
from xfmr.attention import PooledFullAttention, key_padding_logits

from oracles import masked_full_attention, pooled_full_attention, walk_layout

rng = np.random.default_rng(99)


def grouped_positions(lay):
    """Group a (1, H, W, 1) grid holding 1 + the flat index r * W + c and
    return the (group, slot) -> flat index map that :func:`group` applied,
    with -1 for padded slots."""
    h, w = lay.grid
    x = Tensor(1.0 + np.arange(h * w, dtype=np.float64).reshape(1, h, w, 1))
    return group(x, lay).data[0, :, :, 0].astype(np.int64) - 1


class TestLayout:
    def test_sda_6x6_g3(self):
        lay = build_layout("sda", 6, 6, 3)
        assert lay.n_groups == 4 and lay.n_slots == 9
        assert lay.padded_grid == (6, 6)
        assert lay.mask.all()

    def test_lda_9x9_i3_residue_groups(self):
        lay = build_layout("lda", 9, 9, 3)
        assert lay.n_groups == 9 and lay.n_slots == 9
        group_of = {flat: gid for gid, row in enumerate(grouped_positions(lay)) for flat in row}
        assert group_of[0] == group_of[3 * 9] == group_of[6 * 9] == group_of[3] == group_of[3 * 9 + 6]
        assert group_of[0] != group_of[9]

    def test_padded_7x5_g3(self):
        lay = build_layout("sda", 7, 5, 3)
        assert lay.padded_grid == (9, 6)
        assert lay.n_groups == 6
        assert (~lay.mask).sum() == 9 * 6 - 7 * 5  # 19 padded slots

    @given(
        st.sampled_from(["sda", "lda"]),
        st.integers(1, 13),
        st.integers(1, 13),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_walker(self, mode, h, w, size):
        lay = build_layout(mode, h, w, size)
        positions = grouped_positions(lay)
        walked = walk_layout(mode, h, w, size)
        for (r, c), (gid, sid) in walked.items():
            assert positions[gid, sid] == r * w + c
            assert lay.mask[gid, sid]

    @given(
        st.sampled_from(["sda", "lda"]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_inverse_identity(self, mode, h, w, size):
        lay = build_layout(mode, h, w, size)
        positions = grouped_positions(lay)
        # every real position appears exactly once, in a real slot
        assert lay.mask.sum() == h * w
        assert (positions[~lay.mask] == -1).all()
        assert sorted(positions[lay.mask].tolist()) == list(range(h * w))

    @given(
        st.sampled_from(["sda", "lda"]),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_extents_follow_the_per_axis_rule(self, mode, h, w, size):
        # each axis splits into ceil(extent / size) outer and size inner
        # indices; SDA groups by the outer ones, LDA by the inner ones
        outer = (math.ceil(h / size), math.ceil(w / size))
        lay = build_layout(mode, h, w, size)
        assert lay.padded_grid == (outer[0] * size, outer[1] * size)
        if mode == "sda":
            assert (lay.groups, lay.slots) == (outer, (size, size))
        else:
            assert (lay.groups, lay.slots) == ((size, size), outer)
        assert lay.mask.shape == (lay.n_groups, lay.n_slots)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_layout("sda", 0, 3, 1)
        with pytest.raises(ValueError):
            build_layout("diagonal", 3, 3, 1)


class TestGroupUngroup:
    def test_constant_fills_real_slots(self):
        lay = build_layout("sda", 5, 5, 3)
        g = group(Tensor(np.full((1, 5, 5, 2), 7.0)), lay).data[0]
        assert (g[lay.mask] == 7.0).all()
        assert (g[~lay.mask] == 0.0).all()

    def test_linear_index_sda(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4, 1))
        g = group(x, build_layout("sda", 4, 4, 2))
        assert sorted(g.data[0, 0, :, 0].astype(int).tolist()) == [0, 1, 4, 5]

    def test_matches_algorithm_reshape_chain(self):
        # short-distance grouping is exactly the published
        # reshape(N, H//G, G, W//G, G, D) -> permute(0, 1, 3, 2, 4, 5) chain
        x = Tensor(rng.standard_normal((2, 6, 6, 8)))
        lay = build_layout("sda", 6, 6, 3)
        mine = group(x, lay)
        chain = x.reshape(2, 2, 3, 2, 3, 8).permute(0, 1, 3, 2, 4, 5).reshape(2, 4, 9, 8)
        assert (mine.data == chain.data).all()

    def test_lda_matches_algorithm_reshape_chain(self):
        x = Tensor(rng.standard_normal((2, 6, 6, 8)))
        lay = build_layout("lda", 6, 6, 3)  # interval 3, slots 2x2
        mine = group(x, lay)
        chain = x.reshape(2, 2, 3, 2, 3, 8).permute(0, 2, 4, 1, 3, 5).reshape(2, 9, 4, 8)
        assert (mine.data == chain.data).all()

    @given(
        st.sampled_from(["sda", "lda"]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 5),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_bitwise(self, mode, h, w, size, batch):
        lay = build_layout(mode, h, w, size)
        r = np.random.default_rng(17)
        x = Tensor(r.standard_normal((batch, h, w, 3)))
        assert (ungroup(group(x, lay), lay).data == x.data).all()

    def test_ungroup_discards_padded_values(self):
        lay = build_layout("sda", 3, 3, 2)
        x = Tensor(rng.standard_normal((1, 3, 3, 1)))
        g = group(x, lay)
        poisoned = g.data.copy()
        poisoned[:, ~lay.mask] = 1e9
        back = ungroup(Tensor(poisoned), lay)
        assert (back.data == x.data).all()

    def test_shape_mismatch(self):
        lay = build_layout("sda", 4, 4, 2)
        with pytest.raises(T.ShapeError):
            group(Tensor(np.zeros((1, 5, 4, 3))), lay)
        with pytest.raises(T.ShapeError):
            ungroup(Tensor(np.zeros((1, 3, 4, 3))), lay)

    def test_group_rejects_unbatched_input(self):
        with pytest.raises(T.ShapeError, match=r"\(N, H, W, D\)"):
            group(Tensor(np.zeros((4, 4, 3))), build_layout("sda", 4, 4, 2))

    def test_ungroup_rejects_unbatched_input(self):
        with pytest.raises(T.ShapeError, match=r"\(N, n_groups, n_slots, D\)"):
            ungroup(Tensor(np.zeros((4, 4, 3))), build_layout("sda", 4, 4, 2))


def make_attention(dim=8, heads=2, bias=True, dtype=np.float64, seed=5):
    r = np.random.default_rng(seed)
    provider = DynamicPositionBias(r, dim, heads, dtype=dtype) if bias else None
    return GroupedAttention(r, dim, heads, provider, dtype=dtype)


def grouped_attention(x, mode, size, attn):
    """Group the grid of ``x``, attend within groups, restore the grid."""
    lay = build_layout(mode, x.shape[1], x.shape[2], size)
    return attn(x, lay)


class TestGroupedAttention:
    def test_single_token_group_reduces_to_projections(self):
        attn = make_attention(bias=False)
        lay = build_layout("sda", 1, 1, 1)
        x = Tensor(rng.standard_normal((1, 1, 1, 8)))
        with no_grad():
            out = attn(x, lay).data
        expect = (x.data.reshape(1, 8) @ attn.v_proj.w.data + attn.v_proj.b.data)
        expect = expect @ attn.out_proj.w.data + attn.out_proj.b.data
        assert np.abs(out.reshape(1, 8) - expect).max() <= 1e-12

    def test_identical_queries_give_mean_of_values(self):
        attn = make_attention(bias=False)
        attn.q_proj.w.data = np.zeros_like(attn.q_proj.w.data)
        attn.q_proj.b.data = np.zeros_like(attn.q_proj.b.data)
        lay = build_layout("sda", 2, 2, 2)
        x = Tensor(rng.standard_normal((1, 2, 2, 8)))
        with no_grad():
            out = attn(x, lay).data
        v = x.data.reshape(4, 8) @ attn.v_proj.w.data + attn.v_proj.b.data
        expect = (v.mean(axis=0) @ attn.out_proj.w.data + attn.out_proj.b.data)
        assert np.abs(out.reshape(4, 8) - expect).max() <= 1e-12

    @pytest.mark.parametrize(
        "mode,size,h,w",
        [
            ("sda", 3, 6, 6),
            ("sda", 3, 7, 5),
            ("lda", 3, 9, 9),
            ("lda", 2, 5, 7),
            ("sda", 4, 4, 4),
            ("lda", 1, 4, 4),
        ],
    )
    def test_equals_masked_full_attention(self, mode, size, h, w):
        attn = make_attention()
        x = Tensor(np.random.default_rng(31).standard_normal((2, h, w, 8)))
        lay = build_layout(mode, h, w, size)
        with no_grad():
            mine = attn(x, lay).data
        ref = masked_full_attention(x.data, attn, mode, size, attn.bias)
        assert np.abs(mine - ref).max() <= 1e-5

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            GroupedAttention(np.random.default_rng(0), 8, 3)

    def test_degenerate_modes_coincide(self):
        # interval 1 and group size = grid side both collapse to one group
        attn = make_attention(bias=False)
        x = Tensor(rng.standard_normal((1, 4, 4, 8)))
        with no_grad():
            a = grouped_attention(x, "sda", 4, attn).data
            b = grouped_attention(x, "lda", 1, attn).data
        assert np.abs(a - b).max() <= 1e-12

    def test_gradcheck_through_lsda(self):
        attn = make_attention(dim=4, heads=2, seed=11)
        x = Tensor(np.random.default_rng(12).standard_normal((1, 4, 4, 4)) * 0.5, requires_grad=True)
        params = [("x", x)] + list(attn.named_parameters())
        rep = grad_check(
            lambda: (grouped_attention(x, "sda", 2, attn) * 0.1).sum(),
            params,
            tol=1e-4,
            max_entries_per_tensor=6,
        )
        assert rep.passed, rep.summary()

    def test_gradcheck_through_padded_lda(self):
        attn = make_attention(dim=4, heads=1, seed=13)
        x = Tensor(np.random.default_rng(14).standard_normal((1, 3, 5, 4)) * 0.5, requires_grad=True)
        rep = grad_check(
            lambda: (grouped_attention(x, "lda", 2, attn) * 0.1).sum(),
            [("x", x)] + list(attn.named_parameters()),
            tol=1e-4,
            max_entries_per_tensor=6,
        )
        assert rep.passed, rep.summary()


class TestComplexityScaling:
    def _attention_map_macs(self, side, group_size):
        lay = build_layout("sda", side, side, group_size)
        dim, heads = 16, 2
        r = np.random.default_rng(0)
        x = Tensor(r.standard_normal((1, side, side, dim)).astype(np.float32))
        attn = GroupedAttention(r, dim, heads, None, dtype=np.float32)
        with no_grad():
            q, k, v = attn.qkv(group(x, lay))
            with T.count_macs() as counter:
                attend_tokens(q, k, v, key_logits=key_padding_logits(lay, np.float32))
        return counter.macs

    def test_grouped_cost_quadratic_full_cost_quartic(self):
        g7_s14 = self._attention_map_macs(14, 7)
        g7_s28 = self._attention_map_macs(28, 7)
        full_s14 = self._attention_map_macs(14, 14)
        full_s28 = self._attention_map_macs(28, 28)
        assert g7_s28 == 4 * g7_s14
        assert full_s28 == 16 * full_s14

    def test_group_equals_grid_collapses_to_full(self):
        # one group of all 196 slots: scores and mixing each take 196 * 196 * 16 MACs
        assert self._attention_map_macs(14, 14) == 2 * 196 * 196 * 16
        lay_full = build_layout("sda", 14, 14, 14)
        assert lay_full.n_groups == 1


class TestPooledFullAttention:
    def test_shapes_and_pooling(self):
        attn = PooledFullAttention(np.random.default_rng(0), 8, 2, dtype=np.float64)
        x = Tensor(rng.standard_normal((2, 6, 6, 8)))
        with no_grad():
            out = attn(x, build_layout("sda", 6, 6, 2))
        assert out.shape == (2, 6, 6, 8)

    def test_reduction_one_is_plain_full_attention(self):
        # without pooling every token attends to every token: one group
        # spanning the whole (non-square) grid, and no position bias
        attn = PooledFullAttention(np.random.default_rng(1), 8, 2, dtype=np.float64)
        x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 5, 8)))
        with no_grad():
            out = attn(x, build_layout("sda", 3, 5, 1)).data
        ref = masked_full_attention(x.data, attn, "sda", 5, None)
        assert np.abs(out - ref).max() <= 1e-10

    @pytest.mark.parametrize("reduction", [2, 3])
    def test_pooled_keys_values_match_loop_oracle(self, reduction):
        # 5x7 is a multiple of neither reduction, so the pooled grid is padded
        attn = PooledFullAttention(np.random.default_rng(3), 8, 2, dtype=np.float64)
        x = Tensor(np.random.default_rng(4).standard_normal((2, 5, 7, 8)))
        with no_grad():
            out = attn(x, build_layout("sda", 5, 7, reduction)).data
        assert np.abs(out - pooled_full_attention(x.data, attn, reduction)).max() <= 1e-10
