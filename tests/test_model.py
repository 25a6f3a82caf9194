from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xfmr.bias
import xfmr.embed
import xfmr.layers
import xfmr.model
import xfmr.tensor as T
from xfmr import (
    BiasRangeError,
    ConfigError,
    Tensor,
    build_model,
    build_variant,
    count_params,
    grad_check,
    model_forward,
    no_grad,
    toy_spec,
)
from xfmr.model import MLP_RATIO, ModelSpec, StageSpec
from xfmr.embed import CelSpec
from xfmr.layers import trunc_normal

from oracles import trunc_normal_rescan


class TestVariantTables:
    def test_small_structure(self):
        spec = build_variant("small")
        assert [s.dim for s in spec.stages] == [96, 192, 384, 768]
        assert [s.heads for s in spec.stages] == [3, 6, 12, 24]
        assert [s.blocks for s in spec.stages] == [2, 2, 6, 2]
        assert [s.group_size for s in spec.stages] == [7, 7, 7, 7]
        assert [s.interval for s in spec.stages] == [8, 4, 2, 1]
        assert spec.drop_path_max == 0.2
        assert spec.stages[0].cel.kernel_sizes == (4, 8, 16, 32)
        assert spec.stages[0].cel.stride == 4
        assert spec.stages[1].cel.kernel_sizes == (2, 4)
        assert spec.stages[1].cel.stride == 2

    def test_all_variants_structure(self):
        expect = {
            "tiny": ((64, 128, 256, 512), (2, 4, 8, 16), (1, 1, 8, 6), 0.1),
            "small": ((96, 192, 384, 768), (3, 6, 12, 24), (2, 2, 6, 2), 0.2),
            "base": ((96, 192, 384, 768), (3, 6, 12, 24), (2, 2, 18, 2), 0.3),
            "large": ((128, 256, 512, 1024), (4, 8, 16, 32), (2, 2, 18, 2), 0.5),
        }
        for name, (dims, heads, blocks, dp) in expect.items():
            spec = build_variant(name)
            assert tuple(s.dim for s in spec.stages) == dims, name
            assert tuple(s.heads for s in spec.stages) == heads, name
            assert tuple(s.blocks for s in spec.stages) == blocks, name
            assert spec.drop_path_max == dp

    def test_block_count_small_vs_base(self):
        assert build_variant("s").stages[2].blocks == 6
        assert build_variant("b").stages[2].blocks == 18

    def test_dense_task_grouping(self):
        spec = build_variant("t", task="dense")
        assert spec.stages[0].group_size == 14 and spec.stages[0].interval == 16
        assert spec.stages[1].group_size == 14 and spec.stages[1].interval == 8
        assert spec.stages[2].group_size == 7 and spec.stages[2].interval == 2
        assert spec.stages[3].group_size == 7 and spec.stages[3].interval == 1

    def test_stage_grids_224(self):
        spec = build_variant("small")
        assert spec.stage_grids() == [(56, 56), (28, 28), (14, 14), (7, 7)]

    def test_dense_grids(self):
        spec = build_variant("small", task="dense")
        assert spec.stage_grids() == [(200, 320), (100, 160), (50, 80), (25, 40)]

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            build_variant("xxl")

    def test_grouping_does_not_change_weight_shapes(self):
        # same structure, different (G, I): parameter shape sets must agree
        a = toy_spec()
        b = ModelSpec(
            stages=tuple(
                StageSpec(cel=s.cel, heads=s.heads,
                          group_size=4, interval=1, blocks=s.blocks)
                for s in a.stages
            ),
            classes=a.classes,
            bias_kind="dpb",
            input_size=a.input_size,
        )
        ma = build_model(a, seed=0)
        mb = build_model(b, seed=0)
        shapes_a = {name: p.shape for name, p in ma.named_parameters()}
        shapes_b = {name: p.shape for name, p in mb.named_parameters()}
        assert shapes_a == shapes_b

    def test_classification_and_dense_param_counts_match(self):
        cls = count_params(build_variant("t", task="classification")).total
        dense_spec = replace(build_variant("t", task="dense"), input_size=(224, 224))
        assert count_params(dense_spec).total == cls

    def test_pyramid_rule_enforced(self):
        stages = list(toy_spec().stages)
        bad = StageSpec(cel=CelSpec((2, 4), 2, 24), heads=2,
                        group_size=2, interval=1, blocks=1)
        with pytest.raises(ConfigError):
            ModelSpec(stages=(stages[0], bad, stages[2], stages[3]))


def last_stage_tokens(model, x: Tensor) -> Tensor:
    """The tokens a full forward of ``model`` hands to its final norm: the
    last stage's output (N, h, w, dim)."""
    seen = []
    norm = model.final_norm
    model.final_norm = lambda t: seen.append(t) or norm(t)
    try:
        model(x)
    finally:
        model.final_norm = norm
    return seen[0]


class TestForward:
    def test_toy_shape_chain(self):
        spec = replace(toy_spec(), classes=4)
        model = build_model(spec, seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 64, 64, 3)).astype(np.float32))
        with no_grad():
            feats = last_stage_tokens(model, x)
            logits = model(x)
        assert feats.shape == (2, 2, 2, 128)
        assert logits.shape == (2, 4)

    def test_single_image_rank3(self):
        spec = replace(toy_spec(), classes=4)
        model = build_model(spec, seed=0)
        out = model_forward(model, np.zeros((64, 64, 3), dtype=np.float32))
        assert out.shape == (4,)

    def test_identical_images_identical_logits(self):
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        one = np.random.default_rng(1).standard_normal((1, 64, 64, 3)).astype(np.float32)
        batch = Tensor(np.repeat(one, 3, axis=0))
        with no_grad():
            logits = model(batch).data
        assert np.abs(logits - logits[0]).max() <= 1e-5

    def test_batch_permutation_equivariance(self):
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        x = np.random.default_rng(2).standard_normal((4, 64, 64, 3)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        with no_grad():
            a = model(Tensor(x)).data
            b = model(Tensor(x[perm])).data
        assert np.abs(a[perm] - b).max() <= 1e-6

    def test_zeroed_residual_branches_make_blocks_identity(self):
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        for blocks in model.stages:
            for block in blocks:
                block.attn.out_proj.w.data[:] = 0
                block.attn.out_proj.b.data[:] = 0
                block.mlp.fc2.w.data[:] = 0
                block.mlp.fc2.b.data[:] = 0
        x = Tensor(np.random.default_rng(3).standard_normal((1, 64, 64, 3)).astype(np.float32))
        with no_grad():
            withblocks = last_stage_tokens(model, x).data
            for blocks in model.stages:
                blocks.clear()  # CELs only
            celonly = last_stage_tokens(model, x).data
        assert np.abs(withblocks - celonly).max() <= 1e-6

    def test_blocks_alternate_sda_then_lda(self):
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        modes = [b.mode for b in model.stages[2]]
        assert modes == ["sda", "lda"]

    def test_sda_only_mode(self):
        model = build_model(replace(toy_spec(), classes=4, attention_mode="sda-only"), seed=0)
        assert all(b.mode == "sda" for blocks in model.stages for b in blocks)

    def test_pvt_like_mode_runs(self):
        model = build_model(replace(toy_spec(), classes=4, attention_mode="pvt-like"), seed=0)
        x = Tensor(np.random.default_rng(4).standard_normal((1, 64, 64, 3)).astype(np.float32))
        with no_grad():
            out = model(x)
        assert out.shape == (1, 4) and np.isfinite(out.data).all()

    def test_variable_input_sizes_with_dpb(self):
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        for side in (32, 64, 96):
            x = Tensor(np.zeros((1, side, side, 3), dtype=np.float32))
            with no_grad():
                assert model(x).shape == (1, 4)

    def test_forward_at_build_size_reuses_planned_layouts(self, monkeypatch):
        model = build_model(replace(toy_spec(), classes=4), seed=0)
        calls = []
        real = xfmr.model.build_layout
        monkeypatch.setattr(xfmr.model, "build_layout", lambda *args: calls.append(args) or real(*args))
        with no_grad():
            model(Tensor(np.zeros((1, 64, 64, 3), dtype=np.float32)))
            assert calls == []
            model(Tensor(np.zeros((1, 96, 96, 3), dtype=np.float32)))
        assert len(calls) == sum(len(blocks) for blocks in model.stages)

    def test_ape_model_fixed_to_build_size(self):
        model = build_model(replace(toy_spec(), classes=4, bias_kind="ape"), seed=0)
        with no_grad():
            ok = model(Tensor(np.zeros((1, 64, 64, 3), dtype=np.float32)))
        assert ok.shape == (1, 4)
        with pytest.raises(BiasRangeError):
            with no_grad():
                model(Tensor(np.zeros((1, 96, 96, 3), dtype=np.float32)))

    def test_rpb_model_runs_at_build_size(self):
        model = build_model(replace(toy_spec(), classes=4, bias_kind="rpb"), seed=0)
        with no_grad():
            out = model(Tensor(np.zeros((1, 64, 64, 3), dtype=np.float32)))
        assert np.isfinite(out.data).all()


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = build_model(toy_spec(), seed=5)
        b = build_model(toy_spec(), seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and (pa.data == pb.data).all()

    def test_different_seeds_differ(self):
        a = build_model(toy_spec(), seed=5)
        b = build_model(toy_spec(), seed=6)
        assert any((pa.data != pb.data).any() for pa, pb in zip(a.parameters(), b.parameters()))

    def test_truncation_within_two_std(self):
        model = build_model(toy_spec(), seed=0)
        for name, p in model.named_parameters():
            if name.endswith(".w") or "kernels" in name:
                assert np.abs(p.data).max() <= 2 * 0.02 + 1e-9, name

    @settings(max_examples=200, deadline=None)
    @given(shape=st.lists(st.integers(0, 40), min_size=1, max_size=3).map(tuple),
           std=st.sampled_from([0.02, 1.0, 1e-3, 0.37, 5.0]), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]))
    @example(shape=(0,), std=0.5, seed=4, dtype=np.float32)
    @example(shape=(3, 0, 2), std=0.5, seed=4, dtype=np.float64)
    @example(shape=(1,), std=0.5, seed=4, dtype=np.float64)
    @example(shape=(1, 1), std=0.02, seed=4, dtype=np.float32)
    def test_trunc_normal_equals_rescan_oracle(self, shape, std, seed, dtype):
        got = trunc_normal(np.random.default_rng(seed), shape, std, dtype)
        want = trunc_normal_rescan(np.random.default_rng(seed), shape, std, dtype)
        assert got.dtype == want.dtype and got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()
        assert (np.abs(got) <= dtype(2 * std)).all()  # rounding to dtype keeps |w| <= 2 std

    @pytest.mark.parametrize("variant", ["toy", "tiny"])
    def test_build_model_equals_rescan_built(self, variant, monkeypatch):
        spec = toy_spec() if variant == "toy" else build_variant(variant)
        for seed in range(3):
            fast = build_model(spec, seed=seed)
            with monkeypatch.context() as m:
                for module in (xfmr.layers, xfmr.bias, xfmr.embed):
                    m.setattr(module, "trunc_normal", trunc_normal_rescan)
                slow = build_model(spec, seed=seed)
            for (na, pa), (nb, pb) in zip(fast.named_parameters(), slow.named_parameters(), strict=True):
                assert na == nb and pa.data.dtype == pb.data.dtype
                assert pa.data.tobytes() == pb.data.tobytes(), na
            del fast, slow

    def test_norms_and_biases(self):
        model = build_model(toy_spec(), seed=0)
        named = dict(model.named_parameters())
        assert (named["final_norm.gamma"].data == 1).all()
        assert (named["final_norm.beta"].data == 0).all()
        assert (named["head.b"].data == 0).all()

    def test_drop_path_rates_interpolate(self):
        spec = replace(toy_spec(), drop_path_max=0.3)
        model = build_model(spec, seed=0)
        rates = [b.drop_rate for blocks in model.stages for b in blocks]
        assert rates[0] == 0.0
        assert abs(rates[-1] - 0.3) <= 1e-9
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_drop_path_deterministic_per_seed(self):
        spec = replace(toy_spec(), classes=4, drop_path_max=0.5)
        model = build_model(spec, seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 64, 64, 3)).astype(np.float32))
        a = model(x, train=True, rng=np.random.default_rng(9)).data
        b = model(x, train=True, rng=np.random.default_rng(9)).data
        c = model(x, train=True, rng=np.random.default_rng(10)).data
        assert (a == b).all()
        assert (a != c).any()


class TestGradcheckFullBlock:
    def test_two_block_stage_gradcheck(self):
        spec = replace(toy_spec(), classes=4)
        model = build_model(spec, seed=1, dtype=np.float64)
        rng = np.random.default_rng(2)
        for p in model.parameters():  # generic point, off relu kinks
            p.data = p.data + rng.normal(0, 0.02, p.data.shape)
        stage = model.stages[2]
        cel = model.cels[2]
        x = Tensor(rng.standard_normal((1, 8, 8, 32)) * 0.5, requires_grad=True)

        def f():
            h = cel(x)
            for block in stage:
                h = block(h)
            return (h * 0.1).sum()

        names = [("x", x)]
        names += list(cel.named_parameters("cel."))
        for i, block in enumerate(stage):
            names += list(block.named_parameters(f"b{i}."))
        rep = grad_check(f, names, tol=1e-4, max_entries_per_tensor=4)
        assert rep.passed, rep.summary()
