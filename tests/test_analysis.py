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
        spec = replace(toy_spec(), classes=4, bias_kind=bias)
        model = build_model(spec, seed=0)
        assert count_params(spec).total == param_total(model)

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
        spec = replace(toy_spec(), classes=4)
        model = build_model(spec, seed=0)
        # 96^2 input makes stage-4 grid 3x3, exercising padded attention
        x = Tensor(np.zeros((1, 96, 96, 3), dtype=np.float32))
        with count_macs() as counter:
            with no_grad():
                model(x)
        assert counter.macs == count_flops(spec, input_size=(96, 96)).total

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
        a = count_flops(spec, input_size=(224, 224)).entries["stage1.attention"]
        b = count_flops(spec, input_size=(448, 448)).entries["stage1.attention"]
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
