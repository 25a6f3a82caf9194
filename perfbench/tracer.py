"""Per-module spans and per-op tallies, recorded from outside the program.

The tracer wraps public callables of the ``xfmr`` package while it is
installed and puts every original back when it is removed. Module-level
callables (``attend_tokens``, the ``xfmr.tensor`` ops, ...) are replaced in
every ``xfmr`` module that holds them, because each module looks them up in
its own namespace.

Module calls become spans: name, parent, start and end in nanoseconds, and
the MACs counted while the span was open. Self time is the span minus its
child spans. A span's MACs are the difference of one run-wide ``count_macs``
counter across it; every active counter sees every MAC, so this equals a
counter nested in the span. Tensor ops are not spans: each op call adds its
time, one call and its MACs to a per-op tally, and the time stays inside the
self time of the span that ran it.

Spans and tallies are grouped into units (one forward call, or one training
step); ``cut`` closes the current unit.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

import xfmr
import xfmr.tensor
from xfmr.attention import GroupedAttention
from xfmr.layers import LayerNorm, Linear, Mlp
from xfmr.model import Block, Classifier

OPS = ("matmul", "conv2d", "gelu", "softmax_lastdim", "layer_norm", "relu", "index_rows")

_ns = time.perf_counter_ns


@contextlib.contextmanager
def patch(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the block.

    For a module-level function of ``xfmr``, every ``xfmr`` module that holds
    the same object is patched. The original objects are put back on exit.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        targets = [owner]
    else:
        targets = [m for name, m in list(sys.modules.items())
                   if (name == "xfmr" or name.startswith("xfmr.")) and getattr(m, attr, None) is original]
    saved = [(t, t.__dict__.get(attr)) for t in targets]
    for t in targets:
        setattr(t, attr, wrapper)
    try:
        yield
    finally:
        for t, own in saved:
            if own is None:
                delattr(t, attr)
            else:
                setattr(t, attr, own)


def dpb_modules(module) -> list:
    """Every DynamicPositionBias reachable from ``module`` through attributes."""
    found, stack, seen = [], [module], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, xfmr.DynamicPositionBias):
            found.append(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, xfmr.layers.Module):
            stack.extend(vars(obj).values())
    return found


class Tracer:
    """Collects spans and op tallies while installed; see the module docstring."""

    def __init__(self) -> None:
        self.units: list[dict] = []  # per kept unit: duration, spans, ops, dpb rows
        self._spans: list[list] = []  # current unit: [name, parent, start, end, macs]
        self._ops: dict[str, list[int]] = {}  # current unit: name -> [calls, ns, macs]
        self._stack: list[int] = []
        self._stage = 0
        self._counter = None
        self._dpbs: list = []
        self._dpb_seen = 0

    # -- recording -------------------------------------------------------------

    def _span(self, fn, name_of):
        """Wrap ``fn`` so that each call is a span named ``name_of(args)``;
        a ``None`` name calls through without a span."""
        spans, stack = self._spans, self._stack

        def wrapper(*args, **kwargs):
            name = name_of(args)
            if name is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, _ns(), 0, self._counter.macs])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record = spans[index]
                record[3] = _ns()
                record[4] = self._counter.macs - record[4]

        return wrapper

    def _op(self, fn, name):
        def wrapper(*args, **kwargs):
            macs = self._counter.macs
            start = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _ns() - start
                tally = self._ops.get(name)
                if tally is None:
                    tally = self._ops[name] = [0, 0, 0]
                tally[0] += 1
                tally[1] += elapsed
                tally[2] += self._counter.macs - macs

        return wrapper

    def _enclosing(self) -> str:
        return self._spans[self._stack[-1]][0] if self._stack else ""

    def _forward_name(self, args):
        self._stage = 0
        return "model.forward"

    def _embed_name(self, args):
        self._stage += 1
        return f"embed.stage{self._stage}"

    def _proj_name(self, args):
        return "attention.proj" if self._enclosing() == "attention" else None

    def _norm_name(self, args):
        return "layers.layer_norm" if self._enclosing().startswith("model.stage") else None

    @contextlib.contextmanager
    def installed(self, model):
        """Install every wrapper for the block; ``model`` is watched for
        DynamicPositionBias evaluations."""
        named = lambda name: (lambda args: name)  # noqa: E731
        spans = [
            (Classifier, "__call__", self._forward_name),
            (xfmr.CrossScaleEmbedding, "__call__", self._embed_name),
            (Block, "__call__", lambda args: f"model.stage{self._stage}"),
            (GroupedAttention, "__call__", named("attention")),
            (Linear, "__call__", self._proj_name),
            (xfmr.attention, "attend_tokens", named("attention.attend")),
            (xfmr.attention, "group", named("attention.group")),
            (xfmr.attention, "ungroup", named("attention.group")),
            (xfmr.DynamicPositionBias, "bias_matrix", named("bias")),
            (xfmr.RelativePositionBias, "bias_matrix", named("bias")),
            (Mlp, "__call__", named("layers.mlp")),
            (LayerNorm, "__call__", self._norm_name),
            (xfmr.Tensor, "backward", named("tensor.backward")),
            (xfmr.AdamW, "step", named("train.optimizer")),
        ]
        self._dpbs = dpb_modules(model)
        self._dpb_seen = sum(m.eval_count for m in self._dpbs)
        with contextlib.ExitStack() as stack:
            self._counter = stack.enter_context(xfmr.count_macs())
            for owner, attr, name_of in spans:
                stack.enter_context(patch(owner, attr, lambda fn, n=name_of: self._span(fn, n)))
            for op in OPS:
                stack.enter_context(patch(xfmr.tensor, op, lambda fn, n=f"tensor.{op}": self._op(fn, n)))
            yield self

    def cut(self, duration_ns: int | None) -> None:
        """Close the current unit; keep it with its wall time, or drop it
        when ``duration_ns`` is None."""
        if self._stack:
            raise RuntimeError("cannot close a unit inside an open span")
        rows = sum(m.eval_count for m in self._dpbs)
        if duration_ns is not None:
            self.units.append({
                "duration_ns": duration_ns,
                "spans": [list(s) for s in self._spans],
                "ops": {k: list(v) for k, v in self._ops.items()},
                "dpb_rows": rows - self._dpb_seen,
            })
        self._dpb_seen = rows
        self._spans.clear()
        self._ops.clear()


# -- summaries -------------------------------------------------------------------


def self_times(spans: list[list]) -> list[tuple[int, int]]:
    """(self ns, self MACs) per span: its own figures minus its children's."""
    out = [[end - start, macs] for _, _, start, end, macs in spans]
    for _, parent, start, end, macs in spans:
        if parent >= 0:
            out[parent][0] -= end - start
            out[parent][1] -= macs
    return [tuple(v) for v in out]


def unit_modules(unit: dict) -> dict[str, list[int]]:
    """Per span name, then per op: [self ns, inclusive ns, self MACs, calls].

    Op rows are a second view of the same time: it is already inside the
    self time of the spans that ran the ops.
    """
    out: dict[str, list[int]] = {}
    spans = unit["spans"]
    for (name, _, start, end, _), (self_ns, self_macs) in zip(spans, self_times(spans)):
        row = out.setdefault(name, [0, 0, 0, 0])
        row[0] += self_ns
        row[1] += end - start
        row[2] += self_macs
        row[3] += 1
    for name, (calls, ns, macs) in unit["ops"].items():
        out[name] = [ns, ns, macs, calls]
    return out


def unit_figures(unit: dict) -> dict[str, float]:
    """Per-module metrics of one unit (ms, MACs, counts), keyed by metric name."""
    modules = unit_modules(unit)
    zero = [0, 0, 0, 0]

    def ms(name, inclusive=False):
        return modules.get(name, zero)[1 if inclusive else 0] / 1e6

    def macs(*names):
        return sum(modules.get(n, zero)[2] for n in names)

    embeds = [n for n in modules if n.startswith("embed.stage")]
    f = {
        "model.forward_ms": ms("model.forward", inclusive=True),
        **{f"model.stage{s}.ms": ms(f"model.stage{s}", inclusive=True) for s in range(1, 5)},
        "embed.ms": sum(ms(n) for n in embeds),
        "embed.stage1.ms": ms("embed.stage1"),
        "embed.macs": macs(*embeds),
        "bias.ms": ms("bias", inclusive=True),
        "bias.dpb_rows": unit["dpb_rows"],
        "bias.macs": macs("bias"),
        "attention.ms": ms("attention"),
        "attention.proj_ms": ms("attention.proj"),
        "attention.attend_ms": ms("attention.attend"),
        "attention.group_ms": ms("attention.group"),
        "attention.macs": macs("attention", "attention.proj", "attention.attend", "attention.group"),
        "layers.mlp_ms": ms("layers.mlp"),
        "layers.layer_norm_ms": ms("layers.layer_norm"),
        "layers.mlp_macs": macs("layers.mlp"),
    }
    for op in OPS:
        f[f"tensor.{op}.ms"] = ms(f"tensor.{op}")
        f[f"tensor.{op}.calls"] = modules.get(f"tensor.{op}", zero)[3]
    matmul_ns = modules.get("tensor.matmul", zero)[0]
    f["tensor.matmul.gmacs_per_s"] = macs("tensor.matmul") / matmul_ns if matmul_ns else 0.0
    # a training step's parts; they read 0 on inference, which has no step
    stepping = "train.optimizer" in modules
    f["tensor.backward_ms"] = ms("tensor.backward", inclusive=True)
    f["train.forward_ms"] = ms("model.forward", inclusive=True) if stepping else 0.0
    f["train.backward_ms"] = f["tensor.backward_ms"]
    f["train.optimizer_ms"] = ms("train.optimizer", inclusive=True)
    parts = f["train.forward_ms"] + f["train.backward_ms"] + f["train.optimizer_ms"]
    f["train.other_ms"] = unit["duration_ns"] / 1e6 - parts if stepping else 0.0
    return f


def median_figures(units: list[dict]) -> dict[str, float]:
    """Median over units of each per-unit metric."""
    per_unit = [unit_figures(u) for u in units]
    return {k: statistics.median(f[k] for f in per_unit) for k in per_unit[0]}


def module_table(units: list[dict]) -> str:
    """Per-module table, medians over units: self and inclusive ms, calls,
    self MACs and self time as a share of the unit (forward call or step)."""
    per_unit = [unit_modules(u) for u in units]
    unit_ms = statistics.median(u["duration_ns"] for u in units) / 1e6
    names = sorted({n for m in per_unit for n in m}, key=lambda n: (n.startswith("tensor."), n))
    lines = [f"{'module':<22}{'self ms':>11}{'incl ms':>11}{'calls':>8}{'self MACs':>16}{'share':>8}",
             f"{'unit (call or step)':<22}{unit_ms:>11.3f}{unit_ms:>11.3f}"]
    for name in names:
        rows = [m.get(name, [0, 0, 0, 0]) for m in per_unit]
        self_ms, incl_ms, macs, calls = (statistics.median(r[i] for r in rows) for i in range(4))
        lines.append(f"{name:<22}{self_ms / 1e6:>11.3f}{incl_ms / 1e6:>11.3f}{calls:>8.0f}"
                     f"{macs:>16,.0f}{100 * self_ms / 1e6 / unit_ms:>7.1f}%")
    return "\n".join(lines)
