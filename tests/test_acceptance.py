"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
measured value so the run doubles as a report (run with -s to see them).
"""

import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

import xfmr.tensor as T
from xfmr import (
    BiasRangeError,
    DynamicPositionBias,
    GroupedAttention,
    Tensor,
    bake_to_table,
    build_layout,
    build_model,
    build_variant,
    count_flops,
    count_macs,
    count_params,
    grad_check,
    group,
    no_grad,
    synth_dataset,
    toy_spec,
    ungroup,
)
from xfmr.analysis import CEL_TARGETS, FLOP_TARGETS, PARAM_TARGETS, POSITION_PARAM_TARGETS, attention_map_macs
from xfmr.attention import attend_tokens, key_padding_logits
from xfmr.tensor import cross_entropy

from oracles import dpb_offset_row, linear_probe_accuracy, masked_full_attention


def report(line: str) -> None:
    print(f"\n  [acceptance] {line}")


def test_01_parameter_counts_match_reference():
    worst = 0.0
    for name, target in PARAM_TARGETS.items():
        actual = count_params(build_variant(name)).total
        err = abs(actual - target) / target
        worst = max(worst, err)
        assert err <= 0.02, f"{name}: {actual} vs {target}"
    report(f"criterion 1 PASS: variant parameter counts within ±2% (worst {100 * worst:.2f}%)")


def test_02_flop_counts_match_reference():
    worst = 0.0
    for name, target in FLOP_TARGETS.items():
        actual = count_flops(build_variant(name)).total
        err = abs(actual - target) / target
        worst = max(worst, err)
        assert err <= 0.10, f"{name}: {actual} vs {target}"
    report(f"criterion 2 PASS: MAC counts at 224^2 within ±10% (worst {100 * worst:.2f}%)")


def test_03_position_mode_counts_and_ordering():
    totals = {}
    for bias in ("ape", "rpb", "dpb"):
        totals[bias] = count_params(replace(build_variant("small"), bias_kind=bias)).total
        target = POSITION_PARAM_TARGETS[bias]
        err = abs(totals[bias] - target) / target
        assert err <= 0.015, f"{bias}: {totals[bias]} vs {target}"
    assert totals["ape"] > totals["dpb"] > totals["rpb"]
    report(
        "criterion 3 PASS: position-mode counts within ±1.5%, ordering "
        f"ape {totals['ape']} > dpb {totals['dpb']} > rpb {totals['rpb']}"
    )


def test_04_cel_ablation_counts():
    for mode, (p_target, f_target) in CEL_TARGETS.items():
        spec = build_variant("small", cel_mode=mode)
        p, f = count_params(spec).total, count_flops(spec).total
        assert abs(p - p_target) / p_target <= 0.02, mode
        assert abs(f - f_target) / f_target <= 0.10, mode
    report("criterion 4 PASS: embedding-layer ablation counts within ±2% / ±10%")


def test_05_grouped_attention_equals_masked_full_attention():
    start = time.time()
    rng = np.random.default_rng(2024)
    dim, heads = 8, 2
    worst = 0.0
    cases = 0
    for h in range(1, 13):
        for w in range(1, 13):
            for mode, size in (("sda", 3), ("lda", 3), ("sda", 2), ("lda", 2)):
                if (h * w) % 3:  # keep the pair sweep tractable; sizes still cover 1..12
                    continue
                attn = GroupedAttention(rng, dim, heads,
                                        DynamicPositionBias(rng, dim, heads, dtype=np.float64),
                                        dtype=np.float64)
                x = Tensor(rng.standard_normal((1, h, w, dim)))
                layout = build_layout(mode, h, w, size)
                with no_grad():
                    mine = ungroup(attn(group(x, layout), layout), layout).data
                ref = masked_full_attention(x.data, attn, mode, size, attn.bias)
                err = np.abs(mine - ref).max()
                worst = max(worst, err)
                cases += 1
                assert err <= 1e-5, (mode, size, h, w, err)
    report(
        f"criterion 5 PASS: grouped == masked full attention on {cases} grids up to "
        f"12x12, max |diff| {worst:.2e} (<= 1e-5), {time.time() - start:.1f}s"
    )


def test_06_bias_table_and_bake_equivalence():
    rng = np.random.default_rng(7)
    # (a) table lookup equals per-pair evaluation bitwise for G <= 8
    for g in range(1, 9):
        dpb = DynamicPositionBias(rng, 32, 4, dtype=np.float64)
        layout = build_layout("sda", 2 * g, 2 * g, g)
        with no_grad():
            matrix = dpb.bias_matrix(layout).data
        with no_grad():
            for i in range(0, g * g, max(1, g * g // 5)):
                for j in range(0, g * g, max(1, g * g // 5)):
                    xi, yi = divmod(i, g)
                    xj, yj = divmod(j, g)
                    ref = dpb_offset_row(dpb, xi - xj, yi - yj).data[0]
                    assert (matrix[i, j] == ref).all(), (g, i, j)
    # (b) exactly (2G-1)^2 evaluations per table
    for g in (3, 7, 8):
        dpb = DynamicPositionBias(rng, 32, 4, dtype=np.float64)
        dpb.eval_count = 0
        with no_grad():
            dpb.table(g, g)
        assert dpb.eval_count == (2 * g - 1) ** 2
    # (c) baked model forward matches live forward
    spec = replace(toy_spec(), classes=4)
    model = build_model(spec, seed=3)
    x = Tensor(np.random.default_rng(5).standard_normal((2, 64, 64, 3)).astype(np.float32))
    with no_grad():
        live = model(x).data.copy()
    for blocks, planned in zip(model.stages, spec.block_plan()):
        for block, p in zip(blocks, planned):
            block.attn.bias = bake_to_table(block.attn.bias, *p.slots)
    with no_grad():
        frozen = model(x).data.copy()
    diff = np.abs(live - frozen).max()
    assert diff <= 1e-6
    report(
        "criterion 6 PASS: bias tables bitwise-equal per-pair evals for G<=8, "
        f"(2G-1)^2 evals each, baked-vs-live forward diff {diff:.1e} (<= 1e-6)"
    )


def _attention_map_macs(side: int, group_size: int | None) -> int:
    """Executed MACs of the score and mixing matmuls on a side x side grid:
    short-distance groups of extent ``group_size``, or, for None, full
    attention with every token in one group and no layout."""
    rng = np.random.default_rng(0)
    dim, heads = 32, 2
    attn = GroupedAttention(rng, dim, heads, None, dtype=np.float32)
    x = Tensor(rng.standard_normal((1, side, side, dim)).astype(np.float32))
    with no_grad():
        if group_size is None:
            g, pad = x.reshape(1, 1, side * side, dim), None
        else:
            layout = build_layout("sda", side, side, group_size)
            g, pad = group(x, layout), key_padding_logits(layout, np.float32)
        q, k, v = attn.qkv(g)
        with count_macs() as counter:
            attend_tokens(q, k, v, key_logits=pad)
    return counter.macs


def test_07_complexity_scaling_quadratic_vs_quartic():
    g14 = _attention_map_macs(14, 7)
    g28 = _attention_map_macs(28, 7)
    full14 = _attention_map_macs(14, None)
    full28 = _attention_map_macs(28, None)
    assert g28 == 4 * g14, (g14, g28)
    assert full28 == 16 * full14, (full14, full28)
    g21 = _attention_map_macs(21, 7)
    assert g21 == attention_map_macs(21 * 21, 7 * 7, 32), g21
    # one group of every token is full attention
    assert build_layout("sda", 14, 14, 14).n_groups == 1
    assert _attention_map_macs(14, 14) == full14 == attention_map_macs(14 * 14, 14 * 14, 32)
    report(
        "criterion 7 PASS: counted attention MACs grow x4.00 grouped (G=7) vs "
        f"x16.00 full when S doubles ({g14}->{g28}, {full14}->{full28}); "
        f"S=21 matches the closed form ({g21})"
    )


def test_08_full_toy_model_gradient_check():
    start = time.time()
    spec = replace(toy_spec(), classes=4)
    model = build_model(spec, seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    # generic parameter point: fresh zero biases put the offset-(0,0) bias
    # evaluation exactly on relu kinks where finite differences are invalid
    for p in model.parameters():
        p.data = p.data + rng.normal(0.0, 0.02, p.data.shape)
    images = Tensor(rng.standard_normal((2, 64, 64, 3)) * 0.5)
    labels = np.array([1, 3])

    def loss():
        return cross_entropy(model(images), labels)

    rep = grad_check(loss, list(model.named_parameters()), tol=1e-4,
                     max_entries_per_tensor=2, rng=np.random.default_rng(1))
    assert rep.passed, rep.summary()
    report(
        f"criterion 8 PASS: full toy-model loss gradcheck max rel err "
        f"{rep.max_rel_error:.2e} (<= 1e-4) over {len(rep.per_tensor)} tensors, "
        f"{time.time() - start:.0f}s"
    )


def test_09_toy_training_reaches_full_accuracy(toy_training_run):
    # the toy recipe, seed 0, 500 steps, 4 classes (see conftest.py)
    code, out, _ = toy_training_run
    assert code == 0
    reached = re.search(r"\(100% at step (\d+)\)", out)
    assert reached is not None
    assert int(reached.group(1)) <= 500
    first_loss = float(re.search(r"^step +1 .* loss (\S+)", out, re.M).group(1))
    assert abs(first_loss - math.log(4)) / math.log(4) <= 0.2
    # the task is not linearly trivial: a pixel probe generalizes poorly
    train_x, train_y = synth_dataset(0, 32, 64, 4)
    test_x, test_y = synth_dataset(909, 96, 64, 4)
    probe = linear_probe_accuracy(train_x, train_y, test_x, test_y)
    assert probe < 1.0
    report(
        f"criterion 9 PASS: 100% train accuracy at step {reached.group(1)} "
        f"(<= 500), pixel probe held-out {100 * probe:.0f}%"
    )


def test_10_size_flexibility_dpb_vs_rpb():
    spec = replace(toy_spec(), classes=4, bias_kind="dpb")
    model = build_model(spec, seed=0)
    for side in (32, 64, 96):
        with no_grad():
            out = model(Tensor(np.zeros((1, side, side, 3), dtype=np.float32)))
        assert out.shape == (1, 4)
    rpb = build_model(replace(toy_spec(), classes=4, bias_kind="rpb"), seed=0)
    with no_grad():
        rpb(Tensor(np.zeros((1, 64, 64, 3), dtype=np.float32)))
    with pytest.raises(BiasRangeError, match="bias table only covers"):
        with no_grad():
            rpb(Tensor(np.zeros((1, 96, 96, 3), dtype=np.float32)))
    report(
        "criterion 10 PASS: dynamic-bias model runs at 32/64/96 input sides; "
        "fixed-table model raises the range diagnostic beyond its trained extent"
    )


def test_10b_small_variant_flexibility_at_full_scale():
    # the headline case: one 224-built model evaluated at three input sizes
    spec = replace(build_variant("small"), classes=10)
    model = build_model(spec, seed=0)
    for side in (192, 224, 256):
        with no_grad():
            out = model(Tensor(np.zeros((1, side, side, 3), dtype=np.float32)))
        assert out.shape == (1, 10)
    report("criterion 10 PASS (full scale): small variant runs at 192/224/256 input")
