import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xfmr.tensor as T
from xfmr import CelSpec, ConfigError, CrossScaleEmbedding, Tensor, allocate_dims


class TestAllocateDims:
    def test_four_kernel_halving(self):
        assert allocate_dims(128, 4) == [64, 32, 16, 16]

    def test_two_kernel_split(self):
        assert allocate_dims(96, 2) == [48, 48]

    def test_single_kernel(self):
        assert allocate_dims(96, 1) == [96]

    def test_divisibility_checked(self):
        with pytest.raises(ConfigError):
            allocate_dims(100, 4)

    @given(st.integers(1, 6), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_total(self, n, scale):
        total = scale * 2 ** max(min(n, 3), n - 1)
        assert sum(allocate_dims(total, n)) == total

    def test_five_kernels_need_deeper_divisibility(self):
        with pytest.raises(ConfigError):
            allocate_dims(24, 5)


class TestCelSpec:
    def test_odd_padding_rejected(self):
        with pytest.raises(ConfigError):
            CelSpec((3,), stride=2, dim=8)

    def test_kernel_smaller_than_stride_rejected(self):
        # (k - s) / 2 would be a negative padding
        with pytest.raises(ConfigError, match="kernel 2 smaller than stride 4"):
            CelSpec((2, 4), stride=4, dim=8)

    def test_positivity_checked_before_parity(self):
        with pytest.raises(ConfigError, match="must be positive"):
            CelSpec((3,), stride=0, dim=8)
        with pytest.raises(ConfigError, match="must be positive"):
            CelSpec((0, 2), stride=2, dim=8)

    def test_indivisible_input_rejected(self):
        spec = CelSpec((4, 8), stride=4, dim=8)
        with pytest.raises(ConfigError):
            spec.output_grid(225, 224)

    def test_padding_rule(self):
        spec = CelSpec((4, 8, 16, 32), stride=4, dim=96)
        assert [spec.padding_for(k) for k in spec.kernel_sizes] == [0, 2, 6, 14]

    def test_unsorted_kernels_allocated_by_size(self):
        spec = CelSpec((8, 4), stride=4, dim=96)
        # kept sorted; the smaller kernel still gets the larger share
        assert spec.kernel_sizes == (4, 8)
        assert spec.per_kernel_dims == (48, 48)
        spec = CelSpec((32, 4, 16, 8), stride=4, dim=128)
        assert spec.kernel_sizes == (4, 8, 16, 32)
        assert spec.per_kernel_dims == (64, 32, 16, 16)
        assert spec == CelSpec((4, 8, 16, 32), stride=4, dim=128)


def rng():
    return np.random.default_rng(0)


class TestCrossScaleEmbedding:
    def test_stage1_shape(self):
        spec = CelSpec((4, 8, 16, 32), stride=4, dim=96)
        cel = CrossScaleEmbedding(rng(), 3, spec)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 224, 224, 3)).astype(np.float32))
        with T.no_grad():
            out = cel(x)
        assert out.shape == (1, 56, 56, 96)

    def test_stage2_shape(self):
        spec = CelSpec((2, 4), stride=2, dim=192)
        cel = CrossScaleEmbedding(rng(), 96, spec)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 56, 56, 96)).astype(np.float32))
        with T.no_grad():
            out = cel(x)
        assert out.shape == (1, 28, 28, 192)

    def test_identity_1x1(self):
        spec = CelSpec((1,), stride=1, dim=4)
        cel = CrossScaleEmbedding(rng(), 4, spec)
        cel.kernels[0].data = np.eye(4, dtype=np.float32).reshape(1, 1, 4, 4)
        cel.biases[0].data = np.zeros(4, dtype=np.float32)
        x = Tensor(np.random.default_rng(2).standard_normal((1, 6, 6, 4)).astype(np.float32))
        with T.no_grad():
            out = cel(x)
        assert np.allclose(out.data, x.data)

    def test_channel_slices_come_from_individual_kernels(self):
        spec = CelSpec((2, 4), stride=2, dim=16)
        cel = CrossScaleEmbedding(rng(), 3, spec)
        x = Tensor(np.random.default_rng(3).standard_normal((1, 8, 8, 3)).astype(np.float32))
        with T.no_grad():
            full = cel(x).data.copy()
            cel.kernels[1].data = np.zeros_like(cel.kernels[1].data)
            cel.biases[1].data = np.zeros_like(cel.biases[1].data)
            zeroed = cel(x).data
        d0 = spec.per_kernel_dims[0]
        assert (zeroed[..., :d0] == full[..., :d0]).all()
        assert (zeroed[..., d0:] == 0).all()
        assert not (full[..., d0:] == 0).all()

    @given(
        st.integers(1, 3).map(lambda s: 2 * s),  # stride 2/4/6
        st.integers(1, 4),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_equal_grids_across_kernels(self, stride, h_mult, n_kernels):
        kernels = tuple(stride + 2 * i for i in range(n_kernels))
        spec = CelSpec(kernels, stride=stride, dim=8 * 2 ** min(n_kernels, 3))
        h = stride * h_mult
        w = stride * (h_mult + 1)
        cel = CrossScaleEmbedding(rng(), 2, spec)
        x = Tensor(np.random.default_rng(0).standard_normal((1, h, w, 2)).astype(np.float32))
        with T.no_grad():
            out = cel(x)
        assert out.shape == (1, h // stride, w // stride, spec.dim)

    def test_grad_flows(self):
        from xfmr import grad_check

        spec = CelSpec((2, 4), stride=2, dim=8)
        cel = CrossScaleEmbedding(np.random.default_rng(5), 2, spec, dtype=np.float64)
        x = Tensor(np.random.default_rng(6).standard_normal((1, 4, 4, 2)), requires_grad=True)
        rep = grad_check(
            lambda: (cel(x) * 0.3).sum(),
            [("x", x)] + list(cel.named_parameters()),
            tol=1e-6,
        )
        assert rep.passed, rep.summary()
