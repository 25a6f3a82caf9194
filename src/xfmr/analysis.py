"""Exact parameter and multiply-accumulate accounting per model spec.

Conventions: one multiply-add is one FLOP; convolutions, linear projections,
attention matmuls and bias-MLP evaluations are counted; softmax,
normalization, activations and elementwise adds are not. These are the
conventions under which the published reference budgets for comparable
backbones (e.g. 4.5G for a 29M-parameter windowed baseline at 224^2) are
reproducible. Attention costs use the padded token counts actually executed.

Every count is of a model built from the spec and run at ``spec.input_size``;
for another size, count ``dataclasses.replace(spec, input_size=...)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from .bias import dpb_hidden_width
from .model import MLP_RATIO, ModelSpec, build_variant

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


def attention_map_macs(tokens: int, slots: int, dim: int) -> int:
    """MACs of the two attention matmuls (scores and mixing) over ``tokens``
    padded tokens grouped into windows of ``slots`` slots."""
    return 2 * tokens * slots * dim


def _parts(spec: ModelSpec) -> Iterator[tuple[str, int, int]]:
    """``(key, params, MACs of one image's forward)`` for each part of a model
    built from ``spec`` and run at ``spec.input_size``: each embedding kernel,
    each block's norms, attention, MLP and position bias, the APE table, the
    head norm and the head. Both counts sum one column of this one walk."""
    in_ch = 3
    for s, (stage, (h, w), layouts) in enumerate(zip(spec.stages, spec.stage_grids(), spec.block_plan())):
        key, d, tokens = f"stage{s + 1}", stage.dim, h * w
        for k, c in zip(stage.cel.kernel_sizes, stage.cel.per_kernel_dims):
            yield f"{key}.cel", k * k * in_ch * c + c, tokens * c * k * k * in_ch
        for layout in layouts:
            yield f"{key}.norm", 4 * d, 0  # two layer norms
            if spec.attention_mode == "pvt-like":  # keys and values: one per window of the layout
                kv = layout.n_groups
                macs = 2 * (tokens + kv) * d * d + attention_map_macs(tokens, kv, d)
            else:
                padded = math.prod(layout.padded_grid)
                macs = 4 * padded * d * d + attention_map_macs(padded, layout.n_slots, d)
            yield f"{key}.attention", 4 * _linear_params(d, d), macs
            yield (f"{key}.mlp", _linear_params(d, MLP_RATIO * d) + _linear_params(MLP_RATIO * d, d),
                   tokens * 2 * MLP_RATIO * d * d)
            if spec.attention_mode == "pvt-like" or spec.bias_kind == "ape":
                continue
            offsets = (2 * layout.slots[0] - 1) * (2 * layout.slots[1] - 1)
            if spec.bias_kind == "rpb":
                yield f"{key}.bias", offsets * stage.heads, 0
            else:  # 2 -> hid, two [norm, relu, linear] hid -> hid, [norm, relu, linear] hid -> heads
                hid = dpb_hidden_width(d)
                params = _linear_params(2, hid) + 2 * _linear_params(hid, hid) + _linear_params(hid, stage.heads)
                yield f"{key}.bias", params + 3 * 2 * hid, offsets * (2 * hid + 2 * hid * hid + hid * stage.heads)
        in_ch = d
    if spec.bias_kind == "ape":
        yield "stage1.bias", math.prod(spec.stage_grids()[0]) * spec.stages[0].dim, 0
    d = spec.stages[3].dim
    yield "head.norm", 2 * d, 0
    yield "head.head", _linear_params(d, spec.classes), d * spec.classes


def count_params(spec: ModelSpec) -> CostReport:
    """Parameter count of a model built from ``spec``."""
    report = CostReport("params")
    for key, params, _ in _parts(spec):
        if params:
            report.add(key, params)
    return report


def count_flops(spec: ModelSpec) -> CostReport:
    """Multiply-accumulate count of one single-image forward pass."""
    report = CostReport("macs")
    for key, _, macs in _parts(spec):
        if macs:
            report.add(key, macs)
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
