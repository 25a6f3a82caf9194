import numpy as np
import pytest

import xfmr.tensor as T
from xfmr import Tensor
from xfmr.gradcheck import GradCheckError, grad_check

from oracles import scaled_backward


def test_analytic_quadratic():
    x = Tensor(np.linspace(-2, 2, 9), requires_grad=True)
    rep = grad_check(lambda: (x * x).sum(), [("x", x)])
    assert rep.passed
    assert rep.max_rel_error <= 1e-9
    # gradient of sum(x^2) is 2x
    assert np.allclose(x.grad, 2 * x.data)


def test_corrupted_backward_fails(monkeypatch):
    x = Tensor(np.linspace(0.5, 2.0, 6), requires_grad=True)
    monkeypatch.setattr(T, "relu", scaled_backward(T.relu))
    rep = grad_check(lambda: T.relu(x).sum(), [("x", x)], tol=1e-4)
    assert not rep.passed
    assert rep.max_rel_error > 1e-2


def test_requires_float64():
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(GradCheckError):
        grad_check(lambda: x.sum(), [("x", x)])


def test_nonfinite_output_aborts():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(GradCheckError):
        grad_check(lambda: (x * np.inf).sum(), [("x", x)])


def test_sampling_limits_evaluations():
    calls = 0
    x = Tensor(np.random.default_rng(0).standard_normal(50), requires_grad=True)

    def f():
        nonlocal calls
        calls += 1
        return (x * x).sum()

    grad_check(f, [("x", x)], max_entries_per_tensor=5)
    assert calls == 1 + 2 * 5  # one analytic pass plus two per sampled coordinate


def test_report_lists_worst_offenders():
    x = Tensor(np.linspace(0.5, 2.0, 4), requires_grad=True)
    rep = grad_check(lambda: (x * x * x).sum(), [("weights", x)])
    assert rep.worst and rep.worst[0].name == "weights"
    assert "weights" in rep.per_tensor
    assert "PASS" in rep.summary()
