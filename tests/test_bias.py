import numpy as np
import pytest

from xfmr import (
    AbsolutePositionEmbedding,
    BiasRangeError,
    DynamicPositionBias,
    RelativePositionBias,
    Tensor,
    bake_to_table,
    build_layout,
    grad_check,
    no_grad,
)
from xfmr.bias import pair_offset_index

from oracles import dpb_bias_matrix_per_offset, dpb_offset_row, dpb_table_per_offset, param_total


def make_dpb(dim=32, heads=4, residual=False, seed=7, dtype=np.float64):
    return DynamicPositionBias(np.random.default_rng(seed), dim, heads, residual, dtype)


class TestOffsetEval:
    def test_zeroed_final_layer_gives_zero_bias(self):
        dpb = make_dpb()
        dpb.fc_out.w.data = np.zeros_like(dpb.fc_out.w.data)
        dpb.fc_out.b.data = np.zeros_like(dpb.fc_out.b.data)
        with no_grad():
            for dx, dy in [(0, 0), (3, -2), (-7.5, 11.0)]:
                assert (dpb_offset_row(dpb, dx, dy).data == 0).all()

    def test_accepts_any_real_offsets(self):
        dpb = make_dpb()
        with no_grad():
            out = dpb_offset_row(dpb, 123.25, -456.5)
        assert out.shape == (1, 4) and np.isfinite(out.data).all()

    def test_eval_matches_table_lookup(self):
        dpb = make_dpb()
        g = 5
        with no_grad():
            table = dpb.table(g, g)
            probe = dpb_offset_row(dpb, 3, -2).data[0]
        assert (table.data[3 + g - 1, -2 + g - 1] == probe).all()

    def test_output_is_per_head(self):
        dpb = make_dpb(dim=16, heads=3)
        with no_grad():
            assert dpb_offset_row(dpb, 1, 1).shape == (1, 3)


class TestTable:
    def test_g5_covers_offsets(self):
        dpb = make_dpb()
        with no_grad():
            table = dpb.table(5, 5)
        assert table.shape == (9, 9, 4)

    def test_g1_single_entry(self):
        dpb = make_dpb()
        with no_grad():
            table = dpb.table(1, 1)
        assert table.shape == (1, 1, 4)

    def test_every_entry_bitwise_equals_direct_eval(self):
        dpb = make_dpb()
        g = 4
        with no_grad():
            table = dpb.table(g, g).data
            for i in range(2 * g - 1):
                for j in range(2 * g - 1):
                    direct = dpb_offset_row(dpb, 1 - g + i, 1 - g + j).data[0]
                    assert (table[i, j] == direct).all()

    def test_exactly_quadratic_eval_count(self):
        for g in (1, 3, 5, 8):
            dpb = make_dpb()
            dpb.eval_count = 0
            with no_grad():
                dpb.table(g, g)
            assert dpb.eval_count == (2 * g - 1) ** 2


class TestBatchedEqualsPerOffset:
    """The batched table, and the parameter gradients through it, equal the
    per-offset MLP path bit for bit. The one exception is ``fc_out.b`` of a
    one-head provider: ``add`` reduces its contiguous (R, 1, 1) gradient
    pairwise, the per-offset path in row order, so the two agree within the
    worst-case bound of an R-term sum, R·eps relative."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("slots", [(1, 1), (2, 2), (4, 9), (7, 7)])
    def test_table_and_grads_bitwise(self, dtype, residual, heads, slots):
        sh, sw = slots
        dpb = make_dpb(dim=16, heads=heads, residual=residual, seed=11, dtype=dtype)
        jitter = np.random.default_rng(12)
        for p in dpb.parameters():
            p.data = (p.data + jitter.normal(0.0, 0.3, p.data.shape)).astype(dtype)
        with no_grad():
            batched = dpb.table(sh, sw).data
            reference = dpb_table_per_offset(dpb, sh, sw).data
        assert batched.tobytes() == reference.tobytes()

        # on the 1x1 grid fc_in sees only the offset (0, 0), so its weight
        # gradient is all signed zeros; a -0.0 head column of loss weights
        # gives the last head zero gradients, whose products are signed zeros
        n = sh * sw
        w = np.random.default_rng(13).standard_normal((n, n, heads)).astype(dtype)
        w_neg_zero = w.copy()
        w_neg_zero[..., -1] = -0.0
        layout = build_layout("lda", sh, sw, 1)
        rows = (2 * sh - 1) * (2 * sw - 1)
        for weights in (w, w_neg_zero):
            grads = []
            for build in (lambda: dpb.bias_matrix(layout), lambda: dpb_bias_matrix_per_offset(dpb, sh, sw)):
                for p in dpb.parameters():
                    p.grad = None
                (build() * weights).sum().backward()
                grads.append({name: p.grad for name, p in dpb.named_parameters()})
            if heads == 1:
                np.testing.assert_allclose(grads[0].pop("fc_out.b"), grads[1].pop("fc_out.b"),
                                           rtol=rows * np.finfo(dtype).eps, atol=0)
            assert {k: g.tobytes() for k, g in grads[0].items()} == {k: g.tobytes() for k, g in grads[1].items()}


class TestBiasMatrix:
    def test_matches_brute_force_pairs_g3(self):
        dpb = make_dpb()
        lay = build_layout("sda", 6, 6, 3)
        with no_grad():
            B = dpb.bias_matrix(lay).data
        assert B.shape == (9, 9, 4)
        with no_grad():
            for i in range(9):
                for j in range(9):
                    xi, yi = divmod(i, 3)
                    xj, yj = divmod(j, 3)
                    ref = dpb_offset_row(dpb, xi - xj, yi - yj).data[0]
                    assert (B[i, j] == ref).all()

    def test_diagonal_is_center_value(self):
        dpb = make_dpb()
        lay = build_layout("sda", 4, 4, 2)
        with no_grad():
            B = dpb.bias_matrix(lay).data
            center = dpb_offset_row(dpb, 0, 0).data[0]
        for i in range(4):
            assert (B[i, i] == center).all()

    def test_transpose_coupling_uses_negated_offsets(self):
        dpb = make_dpb()
        lay = build_layout("sda", 4, 4, 2)
        with no_grad():
            B = dpb.bias_matrix(lay).data
            fwd = dpb_offset_row(dpb, 0 - 1, 0 - 1).data[0]
            rev = dpb_offset_row(dpb, 1, 1).data[0]
        assert (B[0, 3] == fwd).all()
        assert (B[3, 0] == rev).all()

    def test_lda_uses_slot_coordinates(self):
        # slots three grid cells apart still produce unit slot offsets
        dpb = make_dpb()
        lay = build_layout("lda", 9, 9, 3)
        with no_grad():
            B = dpb.bias_matrix(lay).data
            expect = dpb_offset_row(dpb, -1, 0).data[0]
        assert lay.slots == (3, 3)
        assert (B[0, 3] == expect).all()

    def test_rectangular_slots(self):
        dpb = make_dpb()
        lay = build_layout("lda", 8, 4, 2)  # slots 4x2
        with no_grad():
            B = dpb.bias_matrix(lay)
        assert B.shape == (8, 8, 4)

    def test_gradcheck_through_bias(self):
        dpb = make_dpb(dim=8, heads=2, seed=3)
        # move off the fresh-init point: zero biases put the (0,0) offset
        # exactly on a relu kink where finite differences are undefined
        jitter = np.random.default_rng(8)
        for p in dpb.parameters():
            p.data = p.data + jitter.normal(0.0, 0.05, p.data.shape)
        lay = build_layout("sda", 2, 2, 2)
        w = np.random.default_rng(0).standard_normal((4, 4, 2))
        rep = grad_check(
            lambda: (dpb.bias_matrix(lay) * w).sum(),
            list(dpb.named_parameters()),
            tol=1e-5,
            max_entries_per_tensor=8,
        )
        assert rep.passed, rep.summary()

    def test_residual_variant_same_params_different_output(self):
        plain = make_dpb(residual=False, seed=5)
        res = make_dpb(residual=True, seed=5)
        assert param_total(plain) == param_total(res)
        with no_grad():
            a = dpb_offset_row(plain, 2, 1).data
            b = dpb_offset_row(res, 2, 1).data
        assert not np.allclose(a, b)


class TestRelativePositionBias:
    def test_lookup_range_error_message(self):
        rpb = RelativePositionBias(np.random.default_rng(0), 2, 3, 3)
        with pytest.raises(BiasRangeError, match="dynamic position bias"):
            rpb.bias_matrix(build_layout("sda", 8, 8, 4))

    def test_smaller_layouts_allowed(self):
        rpb = RelativePositionBias(np.random.default_rng(0), 2, 5, 5)
        with no_grad():
            B = rpb.bias_matrix(build_layout("sda", 6, 6, 3))
        assert B.shape == (9, 9, 2)

    def test_pair_offset_index_center(self):
        idx = pair_offset_index(2, 2, 3, 3)
        assert idx[0, 0] == 4  # zero offset hits the table center
        assert idx.shape == (4, 4)


class TestBake:
    def test_bake_equals_live_bitwise(self):
        dpb = make_dpb(dtype=np.float32)
        lay = build_layout("sda", 6, 6, 3)
        baked = bake_to_table(dpb, 3, 3)
        with no_grad():
            live = dpb.bias_matrix(lay).data
            frozen = baked.bias_matrix(lay).data
        assert (live == frozen).all()

    def test_bake_idempotent(self):
        dpb = make_dpb()
        a = bake_to_table(dpb, 4, 4).table.data
        b = bake_to_table(dpb, 4, 4).table.data
        assert (a == b).all()

    def test_baked_table_rejects_larger_group(self):
        dpb = make_dpb()
        baked = bake_to_table(dpb, 3, 3)
        big = build_layout("sda", 8, 8, 4)
        with pytest.raises(BiasRangeError):
            baked.bias_matrix(big)
        with no_grad():  # the live provider still serves the larger layout
            assert dpb.bias_matrix(big).shape == (16, 16, 4)


class TestAbsolutePositionEmbedding:
    def test_zero_init_is_identity(self):
        ape = AbsolutePositionEmbedding(np.random.default_rng(0), (4, 4), 8)
        ape.embedding.data = np.zeros_like(ape.embedding.data)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 4, 8)).astype(np.float32))
        with no_grad():
            assert (ape(x).data == x.data).all()

    def test_parameter_count(self):
        ape = AbsolutePositionEmbedding(np.random.default_rng(0), (56, 56), 96)
        assert param_total(ape) == 56 * 56 * 96 == 301056

    def test_grid_mismatch_errors(self):
        ape = AbsolutePositionEmbedding(np.random.default_rng(0), (4, 4), 8)
        with pytest.raises(BiasRangeError):
            ape(Tensor(np.zeros((1, 5, 4, 8), dtype=np.float32)))
