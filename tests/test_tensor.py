import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xfmr.tensor as T
from xfmr import Tensor, grad_check

from oracles import conv2d_loops, matmul_loops

rng = np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _fresh_rng():
    """Each test draws from a fresh ``rng``, so its data do not depend on
    which tests ran before it."""
    global rng
    rng = np.random.default_rng(1234)


def randt(*shape, grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=grad)


class TestReshapePermute:
    def test_reshape_views_row_major(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        y = x.reshape(4, 6)
        assert (y.data.reshape(-1) == x.data.reshape(-1)).all()

    def test_reshape_identity(self):
        x = randt(3, 5)
        assert (x.reshape(3, 5).data == x.data).all()

    def test_reshape_grouping_chain(self):
        # 6x6x8 -> 4x9x8 through the short-distance grouping shapes
        x = randt(6, 6, 8)
        y = x.reshape(2, 3, 2, 3, 8).permute(0, 2, 1, 3, 4).reshape(4, 9, 8)
        assert y.shape == (4, 9, 8)
        assert sorted(y.data.reshape(-1)) == sorted(x.data.reshape(-1))

    def test_reshape_product_mismatch(self):
        with pytest.raises(T.ShapeError):
            Tensor(np.zeros((2, 3))).reshape(7)

    def test_permute_transpose(self):
        x = randt(2, 3)
        assert (x.permute(1, 0).data == x.data.T).all()

    def test_permute_invalid(self):
        with pytest.raises(T.ShapeError):
            randt(2, 3).permute(0, 0)

    def test_rank5_grouping_permute(self):
        # the short-distance grouping line permutes (0, 2, 1, 3, 4)
        x = randt(2, 3, 2, 3, 8)
        y = x.permute(0, 2, 1, 3, 4)
        assert y.shape == (2, 2, 3, 3, 8)
        assert (y.data[1, 0, 2, 1] == x.data[1, 2, 0, 1]).all()

    @given(st.permutations(range(4)))
    @settings(max_examples=20, deadline=None)
    def test_permute_roundtrip_bitwise(self, order):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 5)))
        inv = np.argsort(order)
        back = x.permute(order).permute(tuple(inv))
        assert (back.data == x.data).all()

    @given(st.sampled_from([(2, 12), (4, 6), (24,), (2, 3, 4), (1, 24)]))
    @settings(max_examples=10, deadline=None)
    def test_reshape_roundtrip_bitwise(self, shape):
        x = Tensor(np.random.default_rng(0).standard_normal(24))
        assert (x.reshape(shape).reshape(24).data == x.data).all()

    def test_reshape_permute_differentiable(self):
        x = randt(2, 3, 4, grad=True)
        rep = grad_check(lambda: (x.permute(2, 0, 1).reshape(6, 4) * 3.0).sum(), [("x", x)], tol=1e-7)
        assert rep.passed, rep.summary()


class TestMatmul:
    def test_identity(self):
        x = randt(4, 4)
        eye = Tensor(np.eye(4))
        assert np.allclose(T.matmul(eye, x).data, x.data)

    def test_one_by_one(self):
        a, b = Tensor(np.array([[3.0]])), Tensor(np.array([[-2.0]]))
        assert T.matmul(a, b).data[0, 0] == -6.0

    def test_against_triple_loop(self):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        assert np.abs(T.matmul(a, b).data - matmul_loops(a.data, b.data)).max() <= 1e-12

    def test_batched_broadcast(self):
        a = randt(2, 3, 4, 5)
        b = randt(5, 6)
        out = T.matmul(a, b)
        assert out.shape == (2, 3, 4, 6)
        assert np.allclose(out.data[1, 2], a.data[1, 2] @ b.data)

    def test_shape_errors(self):
        with pytest.raises(T.ShapeError):
            T.matmul(randt(3, 4), randt(3, 4))

    def test_grad(self):
        a, b = randt(3, 4, grad=True), randt(4, 2, grad=True)
        rep = grad_check(lambda: T.matmul(a, b).sum(), [("a", a), ("b", b)], tol=1e-8)
        assert rep.passed, rep.summary()

    def test_grad_broadcast_batch(self):
        a, b = randt(2, 3, 4, grad=True), randt(4, 5, grad=True)
        w = rng.standard_normal((2, 3, 5))
        rep = grad_check(lambda: (T.matmul(a, b) * w).sum(), [("a", a), ("b", b)], tol=1e-7)
        assert rep.passed, rep.summary()


def _rows_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Oracle for a token-wise product: every leading index one vector @ matrix."""
    out = np.zeros(a.shape[:-1] + (b.shape[1],), dtype=np.result_type(a, b))
    for idx in np.ndindex(*a.shape[:-1]):
        out[idx] = a[idx] @ b
    return out


def _linear(a, b):
    """``linear`` with a zero bias: the token-wise product ``a @ b``."""
    return T.linear(a, b, Tensor(np.zeros(b.shape[1], b.dtype)))


class TestFoldedMatmul:
    """``linear`` runs its 2-D weight as one GEMM over all leading rows of
    ``a``; a zero bias leaves the plain token-wise product."""

    CASES = {
        "rank3": lambda r: r.standard_normal((2, 5, 6)),
        "rank4": lambda r: r.standard_normal((2, 3, 4, 6)),
        "rank5": lambda r: r.standard_normal((2, 3, 2, 3, 6)),
        "rank4-permuted": lambda r: r.standard_normal((2, 4, 3, 6)).transpose(0, 2, 1, 3),
        "zero-rows": lambda r: r.standard_normal((0, 3, 6)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_forward_matches_row_loop(self, case):
        r = np.random.default_rng(7)
        a = self.CASES[case](r).astype(np.float32)
        b = r.standard_normal((6, 5)).astype(np.float32)
        out = _linear(Tensor(a), Tensor(b))
        assert out.shape == a.shape[:-1] + (5,) and out.dtype == np.float32
        np.testing.assert_allclose(out.data, _rows_times(a, b), rtol=1e-5, atol=1e-5)

    # grad_check perturbs leaves through a flat view, so they are contiguous
    # here; test_grad_through_permuted_input feeds a permuted operand
    @pytest.mark.parametrize("case", ["rank3", "rank4", "rank5"])
    def test_grads_f64(self, case):
        r = np.random.default_rng(8)
        a = Tensor(self.CASES[case](r), requires_grad=True)
        b = Tensor(r.standard_normal((6, 5)), requires_grad=True)
        weights = r.standard_normal(a.shape[:-1] + (5,))
        rep = grad_check(lambda: (_linear(a, b) * weights).sum(), [("a", a), ("b", b)], tol=1e-7)
        assert rep.passed, rep.summary()

    def test_grads_zero_rows(self):
        a = Tensor(np.zeros((0, 3, 6)), requires_grad=True)
        b = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        _linear(a, b).sum().backward()
        assert a.grad.shape == (0, 3, 6)
        assert (b.grad == 0.0).all() and b.grad.shape == (6, 5)

    def test_grad_through_permuted_input(self):
        x = randt(2, 4, 3, 6, grad=True)
        w = randt(6, 5, grad=True)
        weights = rng.standard_normal((2, 3, 4, 5))
        rep = grad_check(lambda: (_linear(x.permute(0, 2, 1, 3), w) * weights).sum(),
                         [("x", x), ("w", w)], tol=1e-7)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("shape", [(2, 5, 6), (2, 3, 4, 6), (2, 3, 2, 3, 6), (0, 3, 6)])
    def test_macs_counted(self, shape):
        with T.count_macs() as c:
            out = _linear(Tensor(np.zeros(shape)), Tensor(np.zeros((6, 5))))
        assert c.macs == int(np.prod(out.shape)) * 6


def _token_matmul(x, w):
    """(..., K) @ (K, N) on the tape: the rows folded by hand into one 2-D ``matmul``."""
    lead = x.shape[:-1]
    return T.matmul(x.reshape(int(np.prod(lead)), x.shape[-1]), w).reshape(lead + w.shape[1:])


def _composed_linear(x, w, b):
    return _token_matmul(x, w) + b


def _composed_mlp(x, w1, b1, w2, b2):
    return _token_matmul(T.gelu(_token_matmul(x, w1) + b1), w2) + b2


def _tape_bytes(forward, arrays, weights):
    """Bytes of the output and of every input's gradient of
    ``(forward(*inputs) * weights).sum()``, plus the output without a tape."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = forward(*inputs)
    (out * Tensor(weights)).sum().backward()
    with T.no_grad():
        untaped = forward(*[Tensor(a) for a in arrays])
    return [out.data.tobytes(), untaped.data.tobytes()] + [t.grad.tobytes() for t in inputs]


class TestFusedTokenwise:
    """``linear`` and ``mlp`` are one tape node each and give bitwise the
    outputs and gradients of their matmul → add (→ gelu → matmul → add)
    composition, with or without a tape."""

    HIDDEN = 64
    PER_CHUNK = T._PHI_CHUNK // HIDDEN  # rows in one GELU chunk at HIDDEN wide
    LEADS = {
        "one-row": (1,),
        "chunk-less-one": (PER_CHUNK - 1,),
        "chunk": (PER_CHUNK,),
        "chunk-plus-one": (PER_CHUNK + 1,),
        "two-chunks-plus": (2 * PER_CHUNK + 3,),
        "rank4": (2, 3, 5),
        "zero-rows": (0,),
        "zero-rows-rank3": (2, 0),
        "permuted": "permuted",
    }

    @staticmethod
    def mlp_arrays(r, lead, dtype, hidden=HIDDEN, d=5, n=3):
        """x, w1, b1, w2, b2 and loss weights; pre-activations have std ≈ 1.6,
        so that a share of them lies beyond the polynomial's ±1.5."""
        if lead == "permuted":  # a non-contiguous x of shape (6, 7, d)
            x = r.standard_normal((7, 6, d)).transpose(1, 0, 2)
            lead = (6, 7)
        else:
            x = r.standard_normal(lead + (d,))
        arrays = [x * 0.7, r.standard_normal((d, hidden)), r.standard_normal(hidden) * 0.3,
                  r.standard_normal((hidden, n)), r.standard_normal(n)]
        weights = r.standard_normal(lead + (n,))
        return [a.astype(dtype) for a in arrays], weights.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", LEADS)
    def test_mlp_equals_composition_bitwise(self, dtype, lead):
        arrays, weights = self.mlp_arrays(np.random.default_rng(51), self.LEADS[lead], dtype)
        if lead == "permuted":
            assert not arrays[0].flags.c_contiguous
        assert _tape_bytes(T.mlp, arrays, weights) == _tape_bytes(_composed_mlp, arrays, weights)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mlp_row_wider_than_a_chunk(self, dtype):
        arrays, weights = self.mlp_arrays(np.random.default_rng(52), (3,), dtype, hidden=T._PHI_CHUNK + 3, d=2)
        assert _tape_bytes(T.mlp, arrays, weights) == _tape_bytes(_composed_mlp, arrays, weights)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("special", ["inf", "nan", "far"])
    def test_mlp_special_pre_activations(self, dtype, special):
        arrays, weights = self.mlp_arrays(np.random.default_rng(53), (40,), dtype, hidden=8)
        arrays[2][:] = {"inf": [np.inf, -np.inf, 0.5, -0.5, np.inf, 0.0, -np.inf, 1.0],
                        "nan": [np.nan, 0.5, -0.5, 0.0, 1.0, -1.0, 2.0, -2.0],
                        "far": [4.0, -4.0, 1.7, -1.7, 9.0, -9.0, 1e20, -1e20]}[special]
        with np.errstate(all="ignore"):
            assert _tape_bytes(T.mlp, arrays, weights) == _tape_bytes(_composed_mlp, arrays, weights)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", LEADS)
    def test_linear_equals_composition_bitwise(self, dtype, lead):
        arrays, weights = self.mlp_arrays(np.random.default_rng(54), self.LEADS[lead], dtype, n=self.HIDDEN)
        x, w, b = arrays[:3]  # x (..., 5) @ w (5, 64) + b (64,), weighted like the (..., 64) output
        assert _tape_bytes(T.linear, [x, w, b], weights) == _tape_bytes(_composed_linear, [x, w, b], weights)

    def test_layers_are_one_node_each(self):
        from xfmr.layers import Linear, Mlp

        r = np.random.default_rng(55)
        x = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)
        lin, mlp = Linear(r, 4, 5, np.float64), Mlp(r, 4, 8, np.float64)
        assert lin(x)._node._parents == (x, lin.w, lin.b)
        assert mlp(x)._node._parents == (x, mlp.fc1.w, mlp.fc1.b, mlp.fc2.w, mlp.fc2.b)

    def test_macs_counted(self):
        r = np.random.default_rng(56)
        x = Tensor(r.standard_normal((2, 3, 4)))
        w1, b1, w2, b2 = (Tensor(r.standard_normal(s)) for s in ((4, 8), (8,), (8, 5), (5,)))
        with T.count_macs() as c:
            T.linear(x, w1, b1)
        assert c.macs == 6 * 4 * 8
        with T.count_macs() as c:
            T.mlp(x, w1, b1, w2, b2)
        assert c.macs == 6 * 8 * (4 + 5)

    def test_shape_errors(self):
        r = np.random.default_rng(57)
        x, w, b = Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal((4, 5))), Tensor(np.zeros(5))
        for args in ((x, w, Tensor(np.zeros(4))), (x, Tensor(np.zeros((5, 5))), b), (x, Tensor(np.zeros((4, 5, 1))), b)):
            with pytest.raises(T.ShapeError):
                T.linear(*args)
        with pytest.raises(T.ShapeError):
            T.mlp(x, w, b, Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_warnings_match_composition_when_bias_add_overflows(self):
        # the fc1 bias add overflows to inf in some entries and leaves others
        # huge; both paths warn of it first, then of the same later faults in
        # the same order (one GELU chunk here, so the counts agree too)
        r = np.random.default_rng(58)
        f32 = np.float32
        arrays = [r.standard_normal((40, 5)).astype(f32), (r.standard_normal((5, 8)) * 1e37).astype(f32),
                  np.full(8, 3.3e38, f32), r.standard_normal((8, 3)).astype(f32), r.standard_normal(3).astype(f32)]

        def warned(fwd):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fwd(*inputs).sum().backward()
            return [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]

        seen = warned(T.mlp)
        assert seen[0] == "overflow encountered in add"
        assert seen == warned(_composed_mlp)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        p = T.softmax_lastdim(Tensor(np.full((2, 5), 3.25)))
        assert np.allclose(p.data, 0.2)

    def test_rows_sum_to_one(self):
        p = T.softmax_lastdim(randt(4, 7))
        assert np.abs(p.data.sum(-1) - 1).max() <= 1e-6

    def test_neg_inf_gets_zero(self):
        x = Tensor(np.array([[1.0, -np.inf, 2.0]]))
        p = T.softmax_lastdim(x).data
        assert p[0, 1] == 0.0
        assert abs(p.sum() - 1) <= 1e-6

    def test_fully_masked_row_is_zero_not_nan(self):
        p = T.softmax_lastdim(Tensor(np.full((1, 3), -np.inf))).data
        assert (p == 0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [3, 40])
    def test_nan_row_gives_nan(self, dtype, width):
        r = np.random.default_rng(11)
        x = r.standard_normal((4, width)).astype(dtype)
        x[1, 1] = np.nan
        x[2] = -np.inf
        x[3, ::2] = -np.inf
        p = T.softmax_lastdim(Tensor(x)).data
        assert np.isnan(p[1]).all()
        assert p[2].tobytes() == np.zeros(width, dtype).tobytes()
        finite = T.softmax_lastdim(Tensor(x[[0, 3]])).data
        assert p[[0, 3]].tobytes() == finite.tobytes()
        shifted = np.exp(x[[0, 3]] - x[[0, 3]].max(-1, keepdims=True))
        np.testing.assert_allclose(finite, shifted / shifted.sum(-1, keepdims=True), rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_log_softmax_fully_masked_row(self, dtype):
        # all -inf gives -inf and a zero gradient, NaN gives NaN, and finite
        # rows give the shifted log-sum-exp, all without a RuntimeWarning
        x = np.array([[-np.inf, -np.inf], [0.25, 1.5], [np.nan, 1.0], [-np.inf, 2.0]], dtype)
        g = (np.random.default_rng(41).random(x.shape) + 0.5).astype(dtype)  # > 0: no -inf + inf in the loss
        t = Tensor(x, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, masked = T._log_softmax(x)
            dx = T._log_softmax_grad(out, masked, g)
        assert out[0].tobytes() == np.full(2, -np.inf, dtype).tobytes()
        assert dx[0].tobytes() == np.zeros(2, dtype).tobytes()
        assert np.isnan(out[2]).all() and np.isnan(dx[2]).all()
        z = x[[1, 3]] - x[[1, 3]].max(-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
        assert out[[1, 3]].tobytes() == logp.tobytes()
        grad = g[[1, 3]] - np.exp(logp) * g[[1, 3]].sum(-1, keepdims=True)
        assert dx[[1, 3]].tobytes() == grad.tobytes()

    @given(st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, c):
        x = np.random.default_rng(3).standard_normal((2, 6))
        a = T.softmax_lastdim(Tensor(x)).data
        b = T.softmax_lastdim(Tensor(x + c)).data
        assert np.abs(a - b).max() <= 1e-6

    def test_grad_matches_finite_differences(self):
        x = randt(3, 5, grad=True)
        w = rng.standard_normal((3, 5))
        rep = grad_check(lambda: (T.softmax_lastdim(x) * w).sum(), [("x", x)], tol=1e-6)
        assert rep.passed, rep.summary()

    def test_grad_with_masked_entries(self):
        mask = np.array([[0, -np.inf, 0, 0], [0, 0, -np.inf, -np.inf]])
        x = randt(2, 4, grad=True)
        rep = grad_check(
            lambda: (T.softmax_lastdim(x + Tensor(mask)) * 2.0).sum(), [("x", x)], tol=1e-6
        )
        assert rep.passed, rep.summary()


class TestReductions:
    """The row and column reductions of the norms and softmax. A row reduces
    to the same bits alone or in a batch of any size, and columns add the
    rows in order."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_results_do_not_depend_on_row_count(self, dtype):
        r = np.random.default_rng(21)
        for d in range(1, 601):
            a, b = r.standard_normal((2, 5, d)).astype(dtype)
            one, zero = Tensor(np.ones(d, dtype)), Tensor(np.zeros(d, dtype))
            batch = [T._row_sum(a), T._row_sum(a, b), T._row_max(a),
                     T.softmax_lastdim(Tensor(a)).data, T.layer_norm(Tensor(a), one, zero).data]
            for i in range(5):
                lone = [T._row_sum(a[i:i + 1]), T._row_sum(a[i:i + 1], b[i:i + 1]), T._row_max(a[i:i + 1]),
                        T.softmax_lastdim(Tensor(a[i])).data, T.layer_norm(Tensor(a[i]), one, zero).data]
                for whole, alone in zip(batch, lone):
                    assert whole[i].tobytes() == alone.reshape(-1).tobytes(), (d, i)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_col_sum_adds_rows_in_order(self, dtype):
        r = np.random.default_rng(22)
        for d in range(2, 130, 3):
            for rows in (1, 2, 7, 33):
                a, b = r.standard_normal((2, rows, d)).astype(dtype)
                a[0] = -0.0  # a row of signed zeros
                if rows > 2:
                    a[2, ::2] = -0.0
                    b[2, 1::2] = -0.0
                acc, acc_ab = np.zeros(d, dtype), np.zeros(d, dtype)
                for i in range(rows):
                    acc = acc + a[i]
                    acc_ab = acc_ab + a[i] * b[i]
                assert T._col_sum(a).tobytes() == acc.tobytes(), (d, rows)
                assert T._col_sum(a, b).tobytes() == acc_ab.tobytes(), (d, rows)
                assert T._col_sum(a.reshape(1, rows, 1, d)).tobytes() == acc.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 2, 4, T._NARROW_MAX, T._NARROW_MAX + 1, 49, 600])
    def test_row_max_equals_np_max(self, dtype, width):
        a = np.random.default_rng(width).standard_normal((6, 3, width)).astype(dtype)
        a[0, 0] = -np.inf
        a[1, 1, -1] = np.nan
        a[2, 2] = np.nan
        a[3, 0, 0] = np.inf
        a[4, 1, ::2] = -np.inf
        assert T._row_max(a).tobytes() == np.max(a, axis=-1, keepdims=True).tobytes()
        assert T._row_max(a[:, 1]).tobytes() == np.max(a[:, 1], axis=-1, keepdims=True).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_and_width_one_shapes(self, dtype):
        for shape in [(0, 5), (2, 0, 4)]:
            x = np.zeros(shape, dtype)
            d = shape[-1]
            assert T._row_sum(x).shape == T._row_max(x).shape == shape[:-1] + (1,)
            assert T._col_sum(x).tobytes() == np.zeros(d, dtype).tobytes()
            assert T.softmax_lastdim(Tensor(x)).data.shape == shape
            out = T.layer_norm(Tensor(x), Tensor(np.ones(d, dtype)), Tensor(np.zeros(d, dtype)))
            assert out.data.shape == shape and out.data.dtype == dtype
        assert T._row_sum(np.zeros((3, 0), dtype)).tobytes() == np.zeros((3, 1), dtype).tobytes()
        with pytest.raises(ValueError):  # np.max refuses to reduce an empty row
            T.softmax_lastdim(Tensor(np.zeros((3, 0), dtype)))
        x = np.random.default_rng(23).standard_normal((4, 1)).astype(dtype)
        assert T._row_sum(x).tobytes() == x.tobytes()
        assert T._row_max(x).tobytes() == x.tobytes()
        np.testing.assert_allclose(T._col_sum(x), x.sum(axis=0), rtol=1e-6)
        assert T.softmax_lastdim(Tensor(x)).data.tobytes() == np.ones((4, 1), dtype).tobytes()
        beta = Tensor(np.array([0.5], dtype))
        assert (T.layer_norm(Tensor(x), Tensor(np.ones(1, dtype)), beta).data == 0.5).all()


class TestLayerNorm:
    def test_constant_input_gives_beta(self):
        gamma = Tensor(np.full(6, 2.0))
        beta = Tensor(np.arange(6.0))
        out = T.layer_norm(Tensor(np.full((3, 6), 5.0)), gamma, beta)
        assert np.allclose(out.data, beta.data, atol=1e-3)

    def test_standardizes_last_axis(self):
        x = randt(4, 9, 16)
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(out.mean(-1)).max() <= 1e-5
        assert np.abs(out.std(-1) - 1).max() <= 1e-3

    def test_already_standardized_unchanged(self):
        x = rng.standard_normal((5, 8))
        x = (x - x.mean(-1, keepdims=True)) / x.std(-1, keepdims=True)
        out = T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.abs(out - x).max() <= 1e-4

    def test_grad(self):
        x = randt(2, 3, 6, grad=True)
        g = randt(6, grad=True)
        b = randt(6, grad=True)
        w = rng.standard_normal((2, 3, 6))
        rep = grad_check(
            lambda: (T.layer_norm(x, g, b) * w).sum(), [("x", x), ("gamma", g), ("beta", b)], tol=1e-5
        )
        assert rep.passed, rep.summary()


class TestConv2d:
    def test_1x1_is_pixelwise_linear(self):
        x = randt(1, 5, 5, 3)
        k = randt(1, 1, 3, 4)
        b = randt(4)
        out = T.conv2d(x, k, b, 1, 0)
        assert np.allclose(out.data, x.data @ k.data[0, 0] + b.data, atol=1e-6)

    def test_output_extent_rule(self):
        x = randt(1, 224, 224, 3)
        out = T.conv2d(x, randt(8, 8, 3, 2), None, 4, 2)
        assert out.shape == (1, 56, 56, 2)

    def test_against_direct_summation(self):
        x = Tensor(rng.standard_normal((1, 7, 6, 2)))
        k = Tensor(rng.standard_normal((3, 3, 2, 4)))
        b = Tensor(rng.standard_normal(4))
        mine = T.conv2d(x, k, b, 2, 1).data[0]
        ref = conv2d_loops(x.data[0], k.data, b.data, 2, 1)
        assert np.abs(mine - ref).max() <= 1e-10

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(T.ShapeError, match="larger than padded input"):
            T.conv2d(randt(1, 3, 3, 1), randt(5, 5, 1, 1), None, 1, 0)

    def test_rejects_unbatched_input(self):
        with pytest.raises(T.ShapeError, match=r"wants a batch \(N, H, W, Cin\)"):
            T.conv2d(randt(3, 3, 1), randt(1, 1, 1, 1), None, 1, 0)

    def test_batched(self):
        x = randt(3, 8, 8, 2)
        out = T.conv2d(x, randt(2, 2, 2, 5), randt(5), 2, 0)
        assert out.shape == (3, 4, 4, 5)

    def test_grad(self):
        x = randt(2, 5, 5, 2, grad=True)
        k = randt(3, 3, 2, 3, grad=True)
        b = randt(3, grad=True)
        rep = grad_check(
            lambda: (T.conv2d(x, k, b, 2, 1) * 1.5).sum(), [("x", x), ("k", k), ("b", b)], tol=1e-7
        )
        assert rep.passed, rep.summary()

    @given(
        kh=st.integers(1, 9), kw=st.integers(1, 9), stride=st.integers(1, 4), padding=st.integers(0, 3),
        extra_h=st.integers(0, 4), extra_w=st.integers(0, 4), cin=st.integers(1, 4), cout=st.integers(1, 4),
        batch=st.sampled_from([1, 2]), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_direct_summation_any_geometry(self, kh, kw, stride, padding, extra_h, extra_w,
                                                   cin, cout, batch, seed):
        # k not a multiple of s, padded extents not divisible by s
        h, w = max(1, kh - 2 * padding) + extra_h, max(1, kw - 2 * padding) + extra_w
        r = np.random.default_rng(seed)
        images = r.standard_normal((batch, h, w, cin))
        k, b = r.standard_normal((kh, kw, cin, cout)), r.standard_normal(cout)
        with T.count_macs() as counter:
            mine = T.conv2d(Tensor(images), Tensor(k), Tensor(b), stride, padding).data
        ref = np.stack([conv2d_loops(img, k, b, stride, padding) for img in images])
        n, oh, ow, _ = ref.shape
        assert mine.shape == ref.shape
        assert np.abs(mine - ref).max() <= 1e-10
        assert counter.macs == n * oh * ow * cout * kh * kw * cin

    @pytest.mark.parametrize("shape, kernel, stride, padding", [
        ((2, 12, 8, 2), 8, 4, 2),  # stage-1 embedding geometry: k a multiple of s
        ((1, 7, 6, 2), 3, 2, 1),   # k not a multiple of s, padded extent odd
        ((2, 9, 11, 1), 3, 4, 0),  # k smaller than s: the last input row feeds no output
    ])
    def test_grad_space_to_depth_geometries(self, shape, kernel, stride, padding):
        x = randt(*shape, grad=True)
        k = randt(kernel, kernel, shape[-1], 3, grad=True)
        b = randt(3, grad=True)
        w = randt(*T.conv2d(x, k, b, stride, padding).shape)
        rep = grad_check(
            lambda: (T.conv2d(x, k, b, stride, padding) * w).sum(), [("x", x), ("k", k), ("b", b)], tol=1e-7
        )
        assert rep.passed, rep.summary()

    def test_input_without_grad_gets_none(self):
        x = randt(2, 9, 9, 3)
        k = randt(4, 4, 3, 2, grad=True)
        T.conv2d(x, k, None, 4, 0).sum().backward()
        assert x.grad is None
        assert k.grad is not None and k.grad.shape == (4, 4, 3, 2)

    @pytest.mark.parametrize("stride, padding", [(0, 0), (-1, 0), (1, -1)])
    def test_bad_stride_or_padding(self, stride, padding):
        with pytest.raises(T.ShapeError, match="stride >= 1 and padding >= 0"):
            T.conv2d(randt(1, 8, 8, 1), randt(2, 2, 1, 1), None, stride, padding)


class TestStandardLayers:
    def test_relu_values(self):
        out = T.relu(Tensor(np.array([-1.0, 2.0])))
        assert out.data.tolist() == [0.0, 2.0]

    def test_float64_phi_is_scipy_ndtr(self):
        # float64 Φ is cephes' erf form of scipy's ndtr for |x| < √2, bitwise,
        # and the float32 engine's tail beyond: within 4 ulp where ndtr is a
        # normal float. Below x ≈ -37.6 scipy flushes Φ to 0, where the tail
        # keeps a subnormal.
        from scipy.special import ndtr

        r = np.random.default_rng(11)
        root2 = np.sqrt(2.0)
        edge = np.nextafter(root2, 0.0)
        x = np.concatenate([
            r.uniform(-root2, root2, 200_000), r.uniform(-40.0, 40.0, 200_000), r.uniform(-39.0, -37.0, 2000),
            [edge, -edge, root2, -root2, 1e-310, -5e-324, 8.3, -8.3, 37.6, -37.6],
        ])
        phi = np.empty_like(x)
        assert T._phi(x, phi, np.empty_like(x)).size == 0
        ref = ndtr(x)
        near = np.abs(x) < root2
        assert (phi[near].view(np.int64) == ref[near].view(np.int64)).all()
        normal = ref >= np.finfo(np.float64).tiny
        assert (np.abs(phi - ref)[normal] <= 4 * np.spacing(ref[normal])).all()
        tiny = ~normal & ~near
        assert ((ref[tiny] == 0) & (phi[tiny] > 0)).sum() > 100
        assert (np.abs(phi - ref)[tiny] <= 6e-311).all()
        g = r.standard_normal(x.shape)  # the value and the slope come from the same Φ
        dens = np.exp(-0.5 * x * x) * 0.3989422804014327
        t = Tensor(x, requires_grad=True)
        out = T.gelu(t)
        (out * Tensor(g)).sum().backward()
        assert out.data.tobytes() == (x * phi).tobytes()
        assert t.grad.tobytes() == (g * (phi + x * dens)).tobytes()

        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
        t = Tensor(special, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            inf = T._phi(special, phi[: special.size], np.empty_like(special))
            out = T.gelu(t)
            out.sum().backward()
        assert phi[: special.size].tobytes() == np.array([0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0]).tobytes()
        assert inf.tolist() == [2, 3]
        assert out.data.tobytes() == np.array([0.0, -0.0, np.inf, -0.0, np.nan, 1e300, -0.0]).tobytes()
        assert t.grad.tobytes() == np.array([0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0]).tobytes()

    def test_gelu_float32_accuracy(self):
        from scipy.special import ndtr

        x = np.linspace(-10, 10, 2_000_001).astype(np.float32)
        out = T.gelu(Tensor(x)).data
        x64 = x.astype(np.float64)
        ref = x64 * ndtr(x64)
        err = np.abs(out - ref)
        assert out.dtype == np.float32
        assert err.max() <= 4.47e-7  # scipy erf formula in float32: 4.474e-7
        near = np.abs(x) <= 3
        ulp = np.spacing(np.abs(ref[near]).astype(np.float32)).astype(np.float64)
        assert (err[near] <= 32 * ulp).all()  # erf formula: 101 ulp

    @pytest.mark.parametrize("n", [1, T._PHI_CHUNK - 1, T._PHI_CHUNK + 1, 2 * T._PHI_CHUNK + 7])
    def test_gelu_float32_elementwise_across_chunks(self, n):
        x = (np.random.default_rng(n).standard_normal(n) * 2).astype(np.float32)
        out = T.gelu(Tensor(x)).data
        pieces = [T.gelu(Tensor(x[s : s + 1000])).data for s in range(0, n, 1000)]
        assert out.tobytes() == np.concatenate(pieces).tobytes()
        if n > 1:  # a 2-D array walks the same flat chunks
            grid = T.gelu(Tensor(x[: n - n % 2].reshape(2, -1))).data
            assert grid.tobytes() == out[: n - n % 2].tobytes()

    def test_gelu_float32_special_inputs(self):
        from scipy.special import ndtr

        f32 = np.float32
        empty = T.gelu(Tensor(np.zeros((0, 3), f32))).data
        assert empty.shape == (0, 3) and empty.dtype == f32
        far = np.array([-40, -5, -1.6, np.nextafter(f32(1.5), f32(2)), 3, 40], f32)
        assert T.gelu(Tensor(far)).data.tobytes() == (far * ndtr(far)).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            signed_zero = T.gelu(Tensor(np.array([0.0, -0.0], f32))).data
            huge = T.gelu(Tensor(np.array([3e38, -3e38, 1e20, -1e20, np.nan, np.inf], f32))).data
            neg_inf = T.gelu(Tensor(np.array([-np.inf], f32))).data
        assert signed_zero.tobytes() == np.array([0.0, -0.0], f32).tobytes()
        assert huge.tobytes() == np.array([3e38, -0.0, 1e20, -0.0, np.nan, np.inf], f32).tobytes()
        assert neg_inf.tobytes() == np.array([-0.0], f32).tobytes()

    def test_float32_far_tail_is_scipy_ndtr_bitwise(self):
        # beyond |x| = 1.5, float32 Φ is a numpy port of scipy's ndtr; checked
        # exhaustively on every finite float32 when written, sampled here
        from scipy.special import ndtr

        f32 = np.float32
        strided = np.arange(0x3FC00001, 0x7F800000, 4099, dtype=np.uint32)  # 1.5 < |x| < inf
        largest = np.arange(0x7F7FFFF0, 0x7F800000, dtype=np.uint32)
        subnormal = np.arange(0xC1500001, 0xC1680000, 7, dtype=np.uint32)  # -14.5 < x < -13
        x = np.concatenate([
            strided.view(f32), -strided.view(f32), largest.view(f32), -largest.view(f32),
            subnormal.view(f32), np.array([np.inf, -np.inf], f32),
        ])
        phi = np.empty_like(x)
        inf = T._phi(x, phi, np.empty_like(x))
        ref = ndtr(x)
        assert ref.dtype == f32 and ((0 < ref) & (ref < np.finfo(f32).tiny)).sum() > 1000
        assert (phi.view(np.uint32) == ref.view(np.uint32)).all()
        assert phi[-2:].tolist() == [1.0, 0.0] and inf.tolist() == [x.size - 2, x.size - 1]
        nan_only = T.gelu(Tensor(np.array([np.nan, 0.5], f32))).data  # a NaN, no far value
        assert np.isnan(nan_only[0]) and nan_only[1] == T.gelu(Tensor(np.array([0.5], f32))).data[0]

    def test_engine_does_not_load_scipy(self):
        # a float32 and a float64 toy training step, their GELUs reaching the
        # far tail (the MLPs' fc1 weights scaled up), a float64 gelu and a
        # small float64 gradcheck leave scipy unloaded
        probe = "\n".join([
            "import sys",
            "import numpy as np",
            "import xfmr.tensor as T",
            "from xfmr import RunConfig, build_model",
            "from xfmr.config import DTYPES, to_model_spec",
            "from xfmr.gradcheck import grad_check",
            "from xfmr.train import train_toy",
            "tail, far = T._ndtr_tail, []",
            "T._ndtr_tail = lambda a: far.append(a.size) or tail(a)",
            "for dtype in ('f32', 'f64'):",
            "    far.clear()",
            "    cfg = RunConfig(variant='toy', classes=4, steps=1, samples=8, batch=8, seed=0, dtype=dtype)",
            "    model = build_model(to_model_spec(cfg), seed=0, dtype=DTYPES[dtype])",
            "    for name, p in model.named_parameters():",
            "        if name.endswith('mlp.fc1.w'):",
            "            p.data *= 4",
            "    train_toy(cfg, model=model, stop_when_perfect=False)",
            "    assert sum(far) > 0, (dtype, far)",
            "T.gelu(T.Tensor(np.linspace(-3.0, 3.0, 7)))",
            "x = T.Tensor(np.linspace(-3.0, 3.0, 6).reshape(2, 3), requires_grad=True)",
            "assert grad_check(lambda: (T.gelu(x) * 0.7).sum(), [('x', x)], tol=1e-6).passed",
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'",
        ])
        src = str(Path(T.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_infinities_take_the_limits(self, dtype):
        # x·Φ(x) is -0 at -inf and inf at +inf; its slope Φ + x·φ is 0 and 1
        x = np.array([[-np.inf, 0.5], [np.inf, -np.inf]], dtype).T  # not C-contiguous
        t = Tensor(x, requires_grad=True)
        half = Tensor(np.array([0.5], dtype), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = T.gelu(t)
            (out * 3.0).sum().backward()
            finite = T.gelu(half)
            (finite * 3.0).sum().backward()
        assert out.data.tobytes() == np.array([[-0.0, np.inf], [finite.data[0], -0.0]], dtype).tobytes()
        assert t.grad.tobytes() == np.array([[0.0, 3.0], [half.grad[0], 0.0]], dtype).tobytes()

    def test_gelu_float32_grad_uses_forward_phi(self):
        x = (np.random.default_rng(5).standard_normal(5000) * 2).astype(np.float32)
        g = np.random.default_rng(6).standard_normal(x.shape).astype(np.float32)
        phi = np.empty_like(x)
        T._phi(x, phi, np.empty_like(x))
        dens = np.exp(-0.5 * x * x) * 0.3989422804014327
        t = Tensor(x, requires_grad=True)
        out = T.gelu(t)
        (out * Tensor(g)).sum().backward()
        assert out.data.tobytes() == (x * phi).tobytes()
        assert t.grad.tobytes() == (g * (phi + x * dens)).tobytes()

    def test_gelu_known_values(self):
        out = T.gelu(Tensor(np.array([0.0, 100.0, -100.0])))
        assert np.allclose(out.data, [0.0, 100.0, 0.0])

    def test_mean_pool_constant(self):
        x = Tensor(np.full((2, 7, 7, 3), 4.5))
        assert np.allclose(x.mean(axis=(1, 2)).data, 4.5)  # the classifier's pool

    def test_linear_gradcheck(self):
        from xfmr.layers import Linear

        lin = Linear(np.random.default_rng(0), 4, 3, dtype=np.float64)
        x = randt(5, 4, grad=True)
        rep = grad_check(
            lambda: (lin(x) * 0.7).sum(),
            [("x", x), ("w", lin.w), ("b", lin.b)],
            tol=1e-6,
        )
        assert rep.passed, rep.summary()

    def test_mlp_gradcheck(self):
        from xfmr.layers import Mlp

        r = np.random.default_rng(0)
        mlp = Mlp(r, 4, 6, dtype=np.float64)
        mlp.fc1.w.data *= 50.0  # pre-activations of order 1, where GELU bends
        mlp.fc1.b.data = r.standard_normal(6)
        x = Tensor(r.standard_normal((2, 5, 4)), requires_grad=True)
        rep = grad_check(
            lambda: (mlp(x) * 0.7).sum(),
            [("x", x), ("fc1.w", mlp.fc1.w), ("fc1.b", mlp.fc1.b), ("fc2.w", mlp.fc2.w), ("fc2.b", mlp.fc2.b)],
            tol=1e-6,
        )
        assert rep.passed, rep.summary()

    def test_gelu_relu_grads(self):
        x = randt(4, 4, grad=True)
        for fn in (T.gelu, T.relu):
            rep = grad_check(lambda: (fn(x) * 2.0).sum(), [("x", x)], tol=1e-5)
            assert rep.passed, rep.summary()

    def test_index_rows_grad(self):
        t = randt(6, 3, grad=True)
        idx = np.array([[0, 5, 2], [2, 2, 1]])
        rep = grad_check(lambda: (T.index_rows(t, idx) * 2.0).sum(), [("t", t)], tol=1e-7)
        assert rep.passed, rep.summary()

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = T.cross_entropy(logits, np.array([1, 2, 3, 4]))
        assert abs(float(loss.data) - np.log(10)) <= 1e-9

    def test_cross_entropy_is_one_node(self):
        logits = randt(4, 10, grad=True)
        assert T.cross_entropy(logits, np.array([1, 2, 3, 4]))._node._parents == (logits,)

    def test_cross_entropy_against_log_sum_exp(self):
        x = rng.standard_normal((5, 7)) * 3.0
        labels = np.array([0, 6, 2, 2, 5])
        loss = T.cross_entropy(Tensor(x), labels)
        m = x.max(-1)
        lse = m + np.log(np.exp(x - m[:, None]).sum(-1))
        assert abs(float(loss.data) - (lse - x[np.arange(5), labels]).mean()) <= 1e-12

    def test_cross_entropy_gradcheck(self):
        logits = randt(5, 7, grad=True)
        labels = np.array([0, 6, 2, 2, 5])

        def loss():
            return T.cross_entropy(logits, labels)

        for f in (loss, lambda: loss() * 3.0):  # alone, and with an incoming gradient other than 1
            rep = grad_check(f, [("logits", logits)], tol=1e-7)
            assert rep.passed, rep.summary()


class TestAutodiffPlumbing:
    def test_no_grad_blocks_recording(self):
        x = randt(3, grad=True)
        with T.no_grad():
            y = (x * 2.0).sum()
        assert y._node is None

    def test_only_a_leaf_holds_a_gradient(self):
        """An op output's pending gradient, inputs and rule are its `_Node`'s;
        the tensor itself has none to read, and its ``grad`` stays None."""
        x = randt(3, grad=True)
        y = x * 2.0
        for name in ("_grad", "_parents", "_backward"):
            with pytest.raises(AttributeError):
                getattr(y, name)
        y.sum().backward()
        assert y.grad is None and (x.grad == 2.0).all()

    def test_backward_requires_scalar(self):
        with pytest.raises(T.ShapeError):
            randt(3, grad=True).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * 3.0 + x * 5.0).sum()
        y.backward()
        assert x.grad[0] == 8.0

    def test_consumer_grad_released_before_producer_rule_runs(self):
        x = randt(3, 4, grad=True)
        h = x * 2.0
        u = h * 3.0
        loss = u.sum()
        seen = []
        rule = h._node._backward

        def spy(g):
            seen.append(u._node.grad is None)
            rule(g)

        h._node._backward = spy
        loss.backward()
        assert seen == [True]
        assert h._node.grad is None and u._node.grad is None and loss._node.grad is None
        assert (x.grad == 6.0).all()

    def test_second_backward_through_a_graph_raises(self):
        """Backward drops each rule once it has run, so a second pass would
        find no rules and leave stale gradients: it raises before touching
        any gradient, also when only a shared part of the graph has run."""
        x, w = randt(3, 4, grad=True), randt(3, 4, grad=True)
        h = x * w
        loss = h.sum()
        other = (h * 3.0).sum()
        loss.backward()
        assert h._node._backward is None and loss._node._backward is None
        x_grad, w_grad = x.grad, w.grad
        expected_x, expected_w = x_grad.copy(), w_grad.copy()
        for again in (loss, other):
            with pytest.raises(RuntimeError, match="^backward\\(\\) through a graph that has already been backpropagated$"):
                again.backward()
            assert x.grad is x_grad and w.grad is w_grad
            assert np.array_equal(x.grad, expected_x) and np.array_equal(w.grad, expected_w)
        assert other._node.grad is None and other._node._backward is not None

    def test_operands_of_add_get_separate_writable_grads(self):
        a, b = randt(3, 4, grad=True), randt(3, 4, grad=True)
        ((a + b).sum() + (a * 3.0).sum()).backward()
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable
        assert (a.grad == 4.0).all() and (b.grad == 1.0).all()

    def test_interior_node_with_two_consumers_sums_both(self):
        x = randt(2, 6, grad=True)
        w = randt(6, 5)
        h = x * 2.0
        loss = (h.reshape(3, 4) * 5.0).sum() + T.matmul(h, w).sum()
        loss.backward()
        expected = 2.0 * (5.0 + w.data.sum(axis=1))
        assert np.allclose(x.grad, expected, rtol=1e-12, atol=0)

    def test_mac_counter_matmul(self):
        a, b = randt(3, 4), randt(4, 5)
        with T.count_macs() as c:
            T.matmul(a, b)
        assert c.macs == 3 * 4 * 5

    def test_mac_counter_conv(self):
        x = randt(1, 8, 8, 2)
        with T.count_macs() as c:
            T.conv2d(x, randt(2, 2, 2, 3), None, 2, 0)
        assert c.macs == 1 * 4 * 4 * 3 * 2 * 2 * 2


@pytest.mark.parametrize("op,message", [
    (lambda: T.matmul(randt(4), randt(4, 2)), "matmul requires rank >= 2 operands"),
    (lambda: T.conv2d(randt(1, 4, 4, 3), randt(1, 1, 2, 1), None, 1, 0), "kernel expects 2 input channels, got 3"),
    (lambda: T.layer_norm(randt(2, 6), Tensor(np.ones(5)), Tensor(np.zeros(6))), "gamma/beta must match"),
], ids=["matmul-rank-1", "conv2d-channels", "layer-norm-gamma"])
def test_ops_refuse_misshaped_operands(op, message):
    with pytest.raises(T.ShapeError, match=message):
        op()
