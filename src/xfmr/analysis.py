"""Exact parameter and multiply-accumulate accounting per model spec.

Conventions: one multiply-add is one FLOP; convolutions, linear projections,
attention matmuls and bias-MLP evaluations are counted; softmax,
normalization, activations and elementwise adds are not. These are the
conventions under which the published reference budgets for comparable
backbones (e.g. 4.5G for a 29M-parameter windowed baseline at 224^2) are
reproducible. Attention costs use the padded token counts actually executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .bias import DYNAMIC_BIAS_KINDS, dpb_hidden_width
from .model import MLP_RATIO, PVT_REDUCTIONS, ModelSpec, build_variant

__all__ = [
    "CostReport",
    "count_params",
    "count_flops",
    "attention_map_macs",
    "PARAM_TARGETS",
    "FLOP_TARGETS",
    "POSITION_PARAM_TARGETS",
    "POSITION_FLOP_TARGETS",
    "CEL_TARGETS",
    "TargetCheck",
    "check_against_targets",
]

MECHANISMS = ("cel", "attention", "mlp", "bias", "norm", "head")


@dataclass
class CostReport:
    """Fine-grained integer counts, keyed 'stageN.mechanism' or 'head.*'."""

    unit: str  # "params" or "macs"
    entries: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, amount: int) -> None:
        self.entries[key] = self.entries.get(key, 0) + int(amount)

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def by_stage(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for key, n in self.entries.items():
            out[key.split(".")[0]] = out.get(key.split(".")[0], 0) + n
        return out

    def by_mechanism(self) -> dict[str, int]:
        out = {m: 0 for m in MECHANISMS}
        for key, n in self.entries.items():
            out[key.split(".")[-1]] += n
        return out

    def table_text(self) -> str:
        width = max(len(k) for k in self.entries)
        lines = [f"{k.ljust(width)}  {v:>15,}" for k, v in self.entries.items()]
        lines.append(f"{'total'.ljust(width)}  {self.total:>15,}")
        return "\n".join(lines)

    def table_csv(self) -> str:
        lines = [f"module,{self.unit}"]
        lines += [f"{k},{v}" for k, v in self.entries.items()]
        lines.append(f"total,{self.total}")
        return "\n".join(lines)


def _linear_params(d_in: int, d_out: int) -> int:
    return d_in * d_out + d_out


def _dpb_params(dim: int, heads: int) -> int:
    h = dpb_hidden_width(dim)
    total = _linear_params(2, h)
    total += 2 * (2 * h + _linear_params(h, h))  # two [norm, relu, linear] blocks
    total += 2 * h + _linear_params(h, heads)  # final [norm, relu, linear]
    return total


def _dpb_eval_macs(dim: int, heads: int) -> int:
    h = dpb_hidden_width(dim)
    return 2 * h + 2 * h * h + h * heads


def count_params(spec: ModelSpec) -> CostReport:
    report = CostReport("params")
    in_ch = 3
    for s, (stage, layouts) in enumerate(zip(spec.stages, spec.block_plan())):
        key = f"stage{s + 1}"
        for k, d in zip(stage.cel.kernel_sizes, stage.cel.per_kernel_dims):
            report.add(f"{key}.cel", k * k * in_ch * d + d)
        for _ in range(stage.blocks):
            report.add(f"{key}.norm", 4 * stage.dim)  # two layer norms
            report.add(f"{key}.attention", 4 * _linear_params(stage.dim, stage.dim))
            report.add(f"{key}.mlp", _linear_params(stage.dim, MLP_RATIO * stage.dim)
                       + _linear_params(MLP_RATIO * stage.dim, stage.dim))
        if spec.attention_mode != "pvt-like":
            if spec.bias_kind in DYNAMIC_BIAS_KINDS:
                report.add(f"{key}.bias", stage.blocks * _dpb_params(stage.dim, stage.heads))
            elif spec.bias_kind == "rpb":
                for layout in layouts:
                    sh, sw = layout.slots
                    report.add(f"{key}.bias", (2 * sh - 1) * (2 * sw - 1) * stage.heads)
        in_ch = stage.dim
    if spec.bias_kind == "ape":
        g0 = spec.stage_grids()[0]
        report.add("stage1.bias", g0[0] * g0[1] * spec.stages[0].dim)
    report.add("head.norm", 2 * spec.stages[3].dim)
    report.add("head.head", _linear_params(spec.stages[3].dim, spec.classes))
    return report


def attention_map_macs(tokens: int, slots: int, dim: int) -> int:
    """MACs of the two attention matmuls (scores and mixing) over ``tokens``
    padded tokens grouped into windows of ``slots`` slots."""
    return 2 * tokens * slots * dim


def count_flops(spec: ModelSpec, input_size: tuple[int, int] | None = None) -> CostReport:
    """Multiply-accumulate count of one single-image forward pass."""
    report = CostReport("macs")
    in_ch = 3
    stages = zip(spec.stages, spec.stage_grids(input_size), spec.block_plan(input_size))
    for s, (stage, (h, w), layouts) in enumerate(stages):
        key = f"stage{s + 1}"
        for k, d in zip(stage.cel.kernel_sizes, stage.cel.per_kernel_dims):
            report.add(f"{key}.cel", h * w * d * k * k * in_ch)
        tokens = h * w
        if spec.attention_mode == "pvt-like":
            r = PVT_REDUCTIONS[s]
            kv_tokens = math.ceil(h / r) * math.ceil(w / r)
            for _ in range(stage.blocks):
                report.add(f"{key}.attention",
                           2 * tokens * stage.dim ** 2 + 2 * kv_tokens * stage.dim ** 2)
                report.add(f"{key}.attention", attention_map_macs(tokens, kv_tokens, stage.dim))
        else:
            for layout in layouts:
                padded = layout.padded_grid[0] * layout.padded_grid[1]
                report.add(f"{key}.attention", 4 * padded * stage.dim ** 2)
                report.add(f"{key}.attention",
                           attention_map_macs(padded, layout.n_slots, stage.dim))
                if spec.bias_kind in DYNAMIC_BIAS_KINDS:
                    sh, sw = layout.slots
                    report.add(f"{key}.bias",
                               (2 * sh - 1) * (2 * sw - 1) * _dpb_eval_macs(stage.dim, stage.heads))
        report.add(f"{key}.mlp", stage.blocks * tokens * 2 * MLP_RATIO * stage.dim ** 2)
        in_ch = stage.dim
    report.add("head.head", spec.stages[3].dim * spec.classes)
    return report


# -- reference budgets --------------------------------------------------------

# parameter / MAC design targets for the named variants at 224^2 input
PARAM_TARGETS = {"tiny": 27.8e6, "small": 30.7e6, "base": 52.0e6, "large": 92.0e6}
FLOP_TARGETS = {"tiny": 2.9e9, "small": 4.9e9, "base": 9.2e9, "large": 16.1e9}
# position-representation budgets for the small variant
POSITION_PARAM_TARGETS = {"ape": 30.9342e6, "rpb": 30.6159e6, "dpb": 30.6573e6, "dpb-res": 30.6573e6}
POSITION_FLOP_TARGETS = {"ape": 4.9061e9, "rpb": 4.9062e9, "dpb": 4.9098e9, "dpb-res": 4.9098e9}
# embedding-layer ablations of the small variant: (params, macs)
CEL_TARGETS = {"single": (28.3e6, 4.5e9), "two": (30.6e6, 4.8e9), "cross": (30.7e6, 4.9e9)}

PARAM_TOLERANCE = 0.02
FLOP_TOLERANCE = 0.10
POSITION_TOLERANCE = 0.015


@dataclass(frozen=True)
class TargetCheck:
    label: str
    actual: int
    target: float
    tolerance: float

    @property
    def rel_error(self) -> float:
        return (self.actual - self.target) / self.target

    @property
    def passed(self) -> bool:
        return abs(self.rel_error) <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.label:<28} actual {self.actual / 1e6:>10.4f}M  "
                f"target {self.target / 1e6:>10.4f}M  err {100 * self.rel_error:+6.2f}%  "
                f"(tol {100 * self.tolerance:.1f}%)  {status}")


def check_against_targets(spec: ModelSpec) -> list[TargetCheck]:
    """The reference budgets of the paper's row that ``spec`` is, stochastic
    depth aside: a named variant, an embedding-layer ablation of small or a
    position-bias row of small. Any other spec has none."""

    def is_row(row: ModelSpec) -> bool:
        return replace(spec, drop_path_max=row.drop_path_max) == row

    params, macs = count_params(spec).total, count_flops(spec).total
    headline = {v: (build_variant(v), PARAM_TARGETS[v], FLOP_TARGETS[v]) for v in PARAM_TARGETS}
    headline |= {f"small/{mode}": (build_variant("small", cel_mode=mode), *targets)
                 for mode, targets in CEL_TARGETS.items() if mode != "cross"}
    checks = []
    for label, (row, pt, ft) in headline.items():
        if is_row(row):
            checks += [TargetCheck(f"{label} params", params, pt, PARAM_TOLERANCE),
                       TargetCheck(f"{label} macs", macs, ft, FLOP_TOLERANCE)]
    for bias, target in POSITION_PARAM_TARGETS.items():
        if is_row(replace(build_variant("small"), bias_kind=bias)):
            checks += [TargetCheck(f"small/{bias} params", params, target, POSITION_TOLERANCE),
                       TargetCheck(f"small/{bias} macs", macs, POSITION_FLOP_TARGETS[bias], POSITION_TOLERANCE)]
    return checks
