from dataclasses import replace

import numpy as np
import pytest

from xfmr import (
    Tensor,
    build_model,
    build_variant,
    count_flops,
    count_macs,
    count_params,
    no_grad,
    toy_spec,
)
from xfmr.analysis import (
    CEL_TARGETS,
    FLOP_TARGETS,
    PARAM_TARGETS,
    POSITION_FLOP_TARGETS,
    POSITION_PARAM_TARGETS,
    POSITION_TOLERANCE,
    attention_map_macs,
    check_against_targets,
)

from oracles import param_total


class TestParamCounting:
    def test_linear_layer_formula(self):
        # one linear layer D_in->D_out with bias
        spec = toy_spec()
        report = count_params(spec)
        head = report.entries["head.head"]
        assert head == 128 * spec.classes + spec.classes

    @pytest.mark.parametrize("bias", ["dpb", "dpb-res", "rpb", "ape"])
    def test_matches_instantiated_weights_exactly(self, bias):
        # the rpb tables and the ape table follow the build size
        for size in ((64, 64), (96, 96)):
            spec = replace(toy_spec(), classes=4, bias_kind=bias, input_size=size)
            model = build_model(spec, seed=0)
            assert count_params(spec).total == param_total(model), size

    def test_matches_instantiated_pvt_like(self):
        spec = replace(toy_spec(), classes=4, attention_mode="pvt-like")
        model = build_model(spec, seed=0)
        assert count_params(spec).total == param_total(model)

    def test_matches_instantiated_sda_only(self):
        spec = replace(toy_spec(), classes=4, attention_mode="sda-only")
        model = build_model(spec, seed=0)
        assert count_params(spec).total == param_total(model)

    def test_totals_equal_sum_of_parts(self):
        for count in (count_params, count_flops):
            report = count(build_variant("small"))
            assert report.total == sum(report.entries.values())
            assert sum(report.by_stage().values()) == report.total
            assert sum(report.by_mechanism().values()) == report.total


class TestFlopCounting:
    def test_matches_executed_macs_exactly(self):
        spec = replace(toy_spec(), classes=4)
        model = build_model(spec, seed=0)
        x = Tensor(np.zeros((1, 64, 64, 3), dtype=np.float32))
        with count_macs() as counter:
            with no_grad():
                model(x)
        assert counter.macs == count_flops(spec).total

    def test_matches_executed_macs_padded_grids(self):
        # a 96^2 input makes the stage-4 grid 3x3 and a 64x96 input makes it
        # 2x3, both exercising padded attention; the model is built at 64^2
        for attention, size in (("lsda", (96, 96)), ("lsda", (64, 96)), ("pvt-like", (64, 96))):
            spec = replace(toy_spec(), classes=4, attention_mode=attention)
            model = build_model(spec, seed=0)
            x = Tensor(np.zeros((1, *size, 3), dtype=np.float32))
            with count_macs() as counter:
                with no_grad():
                    model(x)
            assert counter.macs == count_flops(replace(spec, input_size=size)).total, (attention, size)

    def test_matches_executed_rpb(self):
        spec = replace(toy_spec(), classes=4, bias_kind="rpb")
        model = build_model(spec, seed=0)
        with count_macs() as counter:
            with no_grad():
                model(Tensor(np.zeros((1, 64, 64, 3), dtype=np.float32)))
        assert counter.macs == count_flops(spec).total

    def test_matches_executed_pvt_like(self):
        spec = replace(toy_spec(), classes=4, attention_mode="pvt-like")
        model = build_model(spec, seed=0)
        with count_macs() as counter:
            with no_grad():
                model(Tensor(np.zeros((1, 64, 64, 3), dtype=np.float32)))
        assert counter.macs == count_flops(spec).total

    def test_degenerate_single_slot_groups(self):
        # with one-slot groups the two attention matmuls contribute
        # 2*N*D MACs on top of the 4*N*D^2 projections
        assert attention_map_macs(tokens=49, slots=1, dim=16) == 2 * 49 * 16

    def test_attention_macs_quadruple_when_side_doubles(self):
        # fixed group extent: every attention term is linear in token count
        spec = replace(build_variant("small"), attention_mode="sda-only")
        a = count_flops(replace(spec, input_size=(224, 224))).entries["stage1.attention"]
        b = count_flops(replace(spec, input_size=(448, 448))).entries["stage1.attention"]
        assert b == 4 * a

    def test_grouped_fraction_identity(self):
        # grouped quadratic terms are (G/S)^2 of full-attention quadratic terms
        s, g, d = 56, 7, 96
        grouped = attention_map_macs(s * s, g * g, d)
        full = attention_map_macs(s * s, s * s, d)
        assert grouped * (s * s) == full * (g * g)


class TestReferenceBudgets:
    @pytest.mark.parametrize("name", ["tiny", "small", "base", "large"])
    def test_params_within_two_percent(self, name):
        total = count_params(build_variant(name)).total
        assert abs(total - PARAM_TARGETS[name]) / PARAM_TARGETS[name] <= 0.02

    @pytest.mark.parametrize("name", ["tiny", "small", "base", "large"])
    def test_flops_within_ten_percent(self, name):
        total = count_flops(build_variant(name)).total
        assert abs(total - FLOP_TARGETS[name]) / FLOP_TARGETS[name] <= 0.10

    @pytest.mark.parametrize("row, params, macs", [
        ("tiny", 28_047_294, 2_901_800_192),
        ("small", 30_930_322, 4_951_188_720),
        ("base", 52_471_714, 9_241_603_056),
        ("large", 92_852_768, 16_253_354_112),
        ("small/single", 28_559_506, 4_539_344_112),
        ("small/two", 30_888_850, 4_821_132_528),
        ("small/ape", 30_932_680, 4_902_411_264),
        ("small/rpb", 30_654_946, 4_902_411_264),
        ("small/dpb", 30_930_322, 4_951_188_720),
    ])
    def test_exact_totals_of_paper_rows(self, row, params, macs):
        # any change to the accounting must show here as an edit of a number
        name, _, ablation = row.partition("/")
        spec = build_variant(name, cel_mode=ablation if ablation in CEL_TARGETS else "cross")
        if ablation in POSITION_PARAM_TARGETS:
            spec = replace(spec, bias_kind=ablation)
        assert (count_params(spec).total, count_flops(spec).total) == (params, macs)

    def test_position_modes_within_tolerance_and_ordered(self):
        totals = {}
        for bias in ("ape", "rpb", "dpb"):
            totals[bias] = count_params(replace(build_variant("small"), bias_kind=bias)).total
            target = POSITION_PARAM_TARGETS[bias]
            assert abs(totals[bias] - target) / target <= 0.015, bias
        assert totals["ape"] > totals["dpb"] > totals["rpb"]

    @pytest.mark.parametrize("bias", ["ape", "rpb", "dpb"])
    def test_position_row_checks_macs(self, bias):
        spec = replace(build_variant("small"), bias_kind=bias)
        checks = {c.label: c for c in check_against_targets(spec)}
        macs = checks[f"small/{bias} macs"]
        assert (macs.actual, macs.target, macs.tolerance) == (
            count_flops(spec).total, POSITION_FLOP_TARGETS[bias], POSITION_TOLERANCE)
        assert macs.passed and macs.line().endswith("PASS")

    def test_cel_ablation_budgets(self):
        for mode, (p_target, f_target) in CEL_TARGETS.items():
            spec = build_variant("small", cel_mode=mode)
            p = count_params(spec).total
            f = count_flops(spec).total
            assert abs(p - p_target) / p_target <= 0.02, mode
            assert abs(f - f_target) / f_target <= 0.10, mode

    def test_check_helper_reports_pass(self):
        checks = check_against_targets(build_variant("small"))
        assert checks and all(c.passed for c in checks)
        assert any("params" in c.label for c in checks)

    def test_kernel_order_does_not_hide_a_row(self):
        small = build_variant("small")
        first = small.stages[0]
        cel = replace(first.cel, kernel_sizes=first.cel.kernel_sizes[::-1])
        reordered = replace(small, stages=(replace(first, cel=cel), *small.stages[1:]))
        assert reordered == small
        assert [c.line() for c in check_against_targets(reordered)] == [c.line() for c in check_against_targets(small)]

    def test_report_tables_render(self):
        report = count_params(toy_spec())
        assert "total" in report.table_text()
        assert report.table_csv().startswith("module,params")
