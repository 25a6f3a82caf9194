"""Finite-difference verification of reverse-mode gradients.

Compares the tape's gradient of a scalar function against central
differences at 64-bit precision. Relative error uses a per-tensor floor so
that coordinates whose true gradient is dominated by finite-difference
roundoff noise cannot produce spurious failures; a genuinely wrong backward
rule still shows up orders of magnitude above any tolerance in use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, no_grad

__all__ = ["GradCheckError", "GradCheckReport", "grad_check"]

DEFAULT_STEP = 1e-5


class GradCheckError(RuntimeError):
    """Raised when the function under test produces non-finite outputs."""


@dataclass
class EntryReport:
    name: str
    coord: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    tol: float
    max_rel_error: float = 0.0
    per_tensor: dict[str, float] = field(default_factory=dict)
    worst: list[EntryReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def summary(self) -> str:
        lines = [
            f"gradcheck: max relative error {self.max_rel_error:.3e} "
            f"(tolerance {self.tol:.1e}) -> {'PASS' if self.passed else 'FAIL'}"
        ]
        for e in self.worst[:8]:
            lines.append(
                f"  {e.name}{list(e.coord)}: analytic {e.analytic:+.6e} "
                f"numeric {e.numeric:+.6e} rel {e.rel_error:.3e}"
            )
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    inputs: Sequence[tuple[str, Tensor]],
    tol: float = 1e-5,
    max_entries_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Check d f / d input for every (or a sampled subset of) coordinate of
    each named input, with central differences of step ``DEFAULT_STEP``.

    ``f`` must rebuild its forward pass on every call (it is re-evaluated
    under perturbed inputs, without a tape: only the analytic pass needs
    one). Inputs must be float64; 32-bit precision is too coarse for central
    differences to be meaningful.
    """
    inputs = list(inputs)  # walked twice; `named_parameters()` is a generator
    for name, t in inputs:
        if t.data.dtype != np.float64:
            raise GradCheckError(f"{name}: grad_check requires float64 inputs")
        t.requires_grad = True
        t.grad = None

    out = f()
    if not np.isfinite(out.data).all():
        raise GradCheckError("function produced non-finite output")
    out.backward()

    rng = rng or np.random.default_rng(0)
    report = GradCheckReport(tol=tol)
    entries: list[EntryReport] = []

    for name, t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        # Noise floor: coordinates far below the tensor's gradient scale are
        # compared against this scale rather than their own magnitude.
        floor = max(1e-2 * float(np.abs(analytic).max()), 1e-3)
        n = t.data.size
        if max_entries_per_tensor is not None and n > max_entries_per_tensor:
            flat_ids = rng.choice(n, size=max_entries_per_tensor, replace=False)
        else:
            flat_ids = np.arange(n)
        flat = t.data.reshape(-1)
        worst_for_tensor = 0.0
        for fid in flat_ids:
            orig = flat[fid]
            with no_grad():
                flat[fid] = orig + DEFAULT_STEP
                hi = float(f().data)
                flat[fid] = orig - DEFAULT_STEP
                lo = float(f().data)
            flat[fid] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradCheckError(f"{name}: non-finite output during perturbation")
            numeric = (hi - lo) / (2 * DEFAULT_STEP)
            a = float(analytic.reshape(-1)[fid])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst_for_tensor = max(worst_for_tensor, rel)
            entries.append(
                EntryReport(name, tuple(np.unravel_index(fid, t.data.shape)), a, numeric, rel)
            )
        report.per_tensor[name] = worst_for_tensor
        report.max_rel_error = max(report.max_rel_error, worst_for_tensor)

    entries.sort(key=lambda e: e.rel_error, reverse=True)
    report.worst = entries[:16]
    return report
