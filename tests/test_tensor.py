import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xfmr.tensor as T
from xfmr import Tensor, grad_check

from oracles import conv2d_loops, matmul_loops

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


class TestFoldedMatmul:
    """A 2-D right operand runs as one GEMM over all leading rows of ``a``."""

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
        out = T.matmul(Tensor(a), Tensor(b))
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
        rep = grad_check(lambda: (T.matmul(a, b) * weights).sum(), [("a", a), ("b", b)], tol=1e-7)
        assert rep.passed, rep.summary()

    def test_grads_zero_rows(self):
        a = Tensor(np.zeros((0, 3, 6)), requires_grad=True)
        b = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        T.matmul(a, b).sum().backward()
        assert a.grad.shape == (0, 3, 6)
        assert (b.grad == 0.0).all() and b.grad.shape == (6, 5)

    def test_grad_through_permuted_input(self):
        x = randt(2, 4, 3, 6, grad=True)
        w = randt(6, 5, grad=True)
        weights = rng.standard_normal((2, 3, 4, 5))
        rep = grad_check(lambda: (T.matmul(x.permute(0, 2, 1, 3), w) * weights).sum(),
                         [("x", x), ("w", w)], tol=1e-7)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("shape", [(2, 5, 6), (2, 3, 4, 6), (2, 3, 2, 3, 6), (0, 3, 6)])
    def test_macs_counted(self, shape):
        with T.count_macs() as c:
            out = T.matmul(Tensor(np.zeros(shape)), Tensor(np.zeros((6, 5))))
        assert c.macs == int(np.prod(out.shape)) * 6


class TestLinearRows:
    def test_equals_per_row_tape_bitwise(self):
        # a zero input column and a -0.0 loss-weight column give signed-zero
        # gradient terms, which a one-row matmul and bias add turn into +0.0
        x0 = rng.standard_normal((6, 5))
        x0[:, 1] = 0.0
        w0, b0 = rng.standard_normal((5, 3)), rng.standard_normal(3)
        weights = rng.standard_normal((6, 3))
        weights[:, 2] = -0.0

        def run(forward):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
            out = forward(x, w, b)
            (out * weights).sum().backward()
            return [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)]

        def per_row(x, w, b):
            return T.concat([T.matmul(T.index_rows(x, np.array([r])), w) + b for r in range(6)])

        assert run(T.linear_rows) == run(per_row)

    def test_macs_counted(self):
        with T.count_macs() as c:
            T.linear_rows(randt(7, 4), randt(4, 3), randt(3))
        assert c.macs == 7 * 4 * 3

    def test_grad(self):
        x, w, b = randt(5, 4, grad=True), randt(4, 3, grad=True), randt(3, grad=True)
        weights = rng.standard_normal((5, 3))
        rep = grad_check(lambda: (T.linear_rows(x, w, b) * weights).sum(),
                         [("x", x), ("w", w), ("b", b)], tol=1e-8)
        assert rep.passed, rep.summary()

    def test_bad_rank_raises(self):
        with pytest.raises(T.ShapeError):
            T.linear_rows(randt(2, 5, 4), randt(4, 3), randt(3))
        with pytest.raises(T.ShapeError):
            T.linear_rows(randt(5, 4), randt(4, 3), randt(1, 3))
        with pytest.raises(T.ShapeError):
            T.linear_rows(randt(5, 4), randt(3, 3), randt(3))


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
        x = randt(5, 5, 3)
        k = randt(1, 1, 3, 4)
        b = randt(4)
        out = T.conv2d(x, k, b, 1, 0)
        assert np.allclose(out.data, x.data @ k.data[0, 0] + b.data, atol=1e-6)

    def test_output_extent_rule(self):
        x = randt(224, 224, 3)
        out = T.conv2d(x, randt(8, 8, 3, 2), None, 4, 2)
        assert out.shape == (56, 56, 2)

    def test_against_direct_summation(self):
        x = Tensor(rng.standard_normal((7, 6, 2)))
        k = Tensor(rng.standard_normal((3, 3, 2, 4)))
        b = Tensor(rng.standard_normal(4))
        mine = T.conv2d(x, k, b, 2, 1).data
        ref = conv2d_loops(x.data, k.data, b.data, 2, 1)
        assert np.abs(mine - ref).max() <= 1e-10

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(randt(3, 3, 1), randt(5, 5, 1, 1), None, 1, 0)

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
        batch=st.sampled_from([None, 1, 2]), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_direct_summation_any_geometry(self, kh, kw, stride, padding, extra_h, extra_w,
                                                   cin, cout, batch, seed):
        # k not a multiple of s, padded extents not divisible by s, unbatched input
        h, w = max(1, kh - 2 * padding) + extra_h, max(1, kw - 2 * padding) + extra_w
        r = np.random.default_rng(seed)
        images = r.standard_normal((batch or 1, h, w, cin))
        k, b = r.standard_normal((kh, kw, cin, cout)), r.standard_normal(cout)
        x = Tensor(images if batch else images[0])
        with T.count_macs() as counter:
            mine = T.conv2d(x, Tensor(k), Tensor(b), stride, padding).data
        ref = np.stack([conv2d_loops(img, k, b, stride, padding) for img in images])
        n, oh, ow, _ = ref.shape
        assert mine.shape == (ref.shape if batch else ref.shape[1:])
        assert np.abs(mine - (ref if batch else ref[0])).max() <= 1e-10
        assert counter.macs == n * oh * ow * cout * kh * kw * cin

    @pytest.mark.parametrize("shape, kernel, stride, padding", [
        ((2, 12, 8, 2), 8, 4, 2),  # stage-1 embedding geometry: k a multiple of s
        ((7, 6, 2), 3, 2, 1),      # k not a multiple of s, unbatched, padded extent odd
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
            T.conv2d(randt(8, 8, 1), randt(2, 2, 1, 1), None, stride, padding)


class TestStandardLayers:
    def test_relu_values(self):
        out = T.relu(Tensor(np.array([-1.0, 2.0])))
        assert out.data.tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_bitwise_equal_to_formula(self, dtype):
        from scipy.special import erf

        x = np.concatenate([rng.standard_normal(2000) * 4, [0.0, -0.0, 40.0, -40.0, 1e-30]]).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        phi = 0.5 * (1.0 + erf(x * 0.7071067811865476))
        dens = np.exp(-0.5 * x * x) * 0.3989422804014327
        t = Tensor(x, requires_grad=True)
        out = T.gelu(t)
        (out * Tensor(g)).sum().backward()
        assert out.data.dtype == dtype
        assert out.data.tobytes() == (x * phi).astype(dtype).tobytes()
        assert t.grad.tobytes() == (g * (phi + x * dens)).tobytes()

    def test_gelu_known_values(self):
        out = T.gelu(Tensor(np.array([0.0, 100.0, -100.0])))
        assert np.allclose(out.data, [0.0, 100.0, 0.0])

    def test_mean_pool_constant(self):
        x = Tensor(np.full((2, 7, 7, 3), 4.5))
        assert np.allclose(T.mean_pool_hw(x).data, 4.5)

    def test_linear_gradcheck(self):
        from xfmr.layers import Linear

        lin = Linear(np.random.default_rng(0), 4, 3, dtype=np.float64)
        lin.requires_grad_()
        x = randt(5, 4, grad=True)
        rep = grad_check(
            lambda: (lin(x) * 0.7).sum(),
            [("x", x), ("w", lin.w), ("b", lin.b)],
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


class TestAutodiffPlumbing:
    def test_no_grad_blocks_recording(self):
        x = randt(3, grad=True)
        with T.no_grad():
            y = (x * 2.0).sum()
        assert y._backward is None

    def test_backward_requires_scalar(self):
        with pytest.raises(T.ShapeError):
            randt(3, grad=True).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * 3.0 + x * 5.0).sum()
        y.backward()
        assert x.grad[0] == 8.0

    def test_mac_counter_matmul(self):
        a, b = randt(3, 4), randt(4, 5)
        with T.count_macs() as c:
            T.matmul(a, b)
        assert c.macs == 3 * 4 * 5

    def test_mac_counter_conv(self):
        x = randt(8, 8, 2)
        with T.count_macs() as c:
            T.conv2d(x, randt(2, 2, 2, 3), None, 2, 0)
        assert c.macs == 1 * 4 * 4 * 3 * 2 * 2 * 2
