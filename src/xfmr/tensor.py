"""Minimal dense nd-array engine with reverse-mode automatic differentiation.

A Tensor wraps a numpy array (float32 for speed paths, float64 for
verification paths) and, when gradients are enabled, records the operation
that produced it so that ``backward()`` can replay the tape in reverse.
Only the operations the model actually needs are implemented.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "no_grad",
    "grad_enabled",
    "MacCounter",
    "count_macs",
    "matmul",
    "linear_rows",
    "conv2d",
    "relu",
    "gelu",
    "softmax_lastdim",
    "log_softmax_lastdim",
    "layer_norm",
    "pad_hw",
    "crop_hw",
    "concat",
    "index_rows",
    "pick_labels",
    "mean_pool_hw",
]

_GRAD_ENABLED = True

# Debug switch: deliberately corrupts one backward rule so that gradient
# checking has a live negative control (see cli gradcheck --corrupt-backward).
CORRUPT_BACKWARD = False

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class MacCounter:
    """Counts multiply-accumulate operations executed by matmul/conv2d.

    One MAC is one multiply-add; softmax, norms, activations and bias adds
    are not counted. Counters nest: every active counter sees every MAC.
    """

    def __init__(self) -> None:
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += n

    def reset(self) -> None:
        self.macs = 0


_ACTIVE_COUNTERS: list[MacCounter] = []


@contextlib.contextmanager
def count_macs():
    """Context manager yielding a MacCounter active for the block."""
    counter = MacCounter()
    _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTERS.remove(counter)


def _record_macs(n: int) -> None:
    if _ACTIVE_COUNTERS:
        for counter in _ACTIVE_COUNTERS:
            counter.add(n)


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's precondition."""


class Tensor:
    """Dense nd-array with optional gradient tracking.

    ``data`` is always a numpy float array; ``grad`` (same shape) is
    populated by ``backward()`` for tensors with ``requires_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass seeded from this (scalar) tensor."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # intermediate grads are kept only on leaves that asked for them
        for node in topo:
            if not node.requires_grad and node._backward is not None:
                node.grad = None

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def permute(self, *order):
        return permute(self, order[0] if len(order) == 1 and isinstance(order[0], (tuple, list)) else order)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad or p._backward is not None for p in parents):
        out.requires_grad = False
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if _needs_grad(t):
        if t.grad is None:
            t.grad = np.array(g, dtype=t.data.dtype, copy=True)
        else:
            t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise and reduction ops --------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    out_data = a.data + b.data

    def _bw(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), _bw)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    out_data = a.data * b.data

    def _bw(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), _bw)


def reduce_sum(t: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = t.data.sum(axis=axis, keepdims=keepdims)

    def _bw(g):
        if axis is None:
            _accumulate(t, np.broadcast_to(g, t.data.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(t, np.broadcast_to(gg, t.data.shape))

    return _make(out_data, (t,), _bw)


def reduce_mean(t: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = t.data.mean(axis=axis, keepdims=keepdims)
    denom = t.data.size if axis is None else int(np.prod([t.data.shape[a] for a in np.atleast_1d(axis)]))

    def _bw(g):
        if axis is None:
            _accumulate(t, np.broadcast_to(g / denom, t.data.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(t, np.broadcast_to(gg / denom, t.data.shape))

    return _make(out_data, (t,), _bw)


def relu(t: Tensor) -> Tensor:
    out_data = np.maximum(t.data, 0.0)

    def _bw(g):
        gate = (t.data > 0).astype(t.data.dtype)
        if CORRUPT_BACKWARD:
            gate = gate * 1.05  # negative control for gradient checking
        _accumulate(t, g * gate)

    return _make(out_data, (t,), _bw)


def gelu(t: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    x = t.data
    phi = x * _INV_SQRT2  # one buffer for 0.5·(1 + erf(x/√2))
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out_data = x * phi

    def _bw(g):
        dens = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        _accumulate(t, g * (phi + x * dens))

    return _make(out_data, (t,), _bw)


# -- shape ops -----------------------------------------------------------------


def reshape(t: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if int(np.prod(new_shape)) != t.data.size:
        raise ShapeError(f"cannot reshape {t.shape} (size {t.data.size}) to {new_shape}")
    out_data = t.data.reshape(new_shape)

    def _bw(g):
        _accumulate(t, g.reshape(t.data.shape))

    return _make(out_data, (t,), _bw)


def permute(t: Tensor, order) -> Tensor:
    order = tuple(int(a) for a in order)
    if sorted(order) != list(range(t.data.ndim)):
        raise ShapeError(f"{order} is not a permutation of axes of rank-{t.data.ndim} tensor")
    out_data = np.transpose(t.data, order)
    inverse = np.argsort(order)

    def _bw(g):
        _accumulate(t, np.transpose(g, inverse))

    return _make(out_data, (t,), _bw)


def pad_hw(t: Tensor, pad_h: int, pad_w: int) -> Tensor:
    """Zero-pad the trailing rows/cols of the H and W axes of a (..., H, W, C) tensor."""
    if pad_h == 0 and pad_w == 0:
        return t
    widths = [(0, 0)] * (t.data.ndim - 3) + [(0, pad_h), (0, pad_w), (0, 0)]
    out_data = np.pad(t.data, widths)
    h, w = t.data.shape[-3], t.data.shape[-2]

    def _bw(g):
        _accumulate(t, g[..., :h, :w, :])

    return _make(out_data, (t,), _bw)


def crop_hw(t: Tensor, height: int, width: int) -> Tensor:
    """Keep the leading height×width block of the H and W axes."""
    out_data = t.data[..., :height, :width, :]

    def _bw(g):
        full = np.zeros_like(t.data)
        full[..., :height, :width, :] = g
        _accumulate(t, full)

    return _make(out_data, (t,), _bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(out_data, tensors, _bw)


def index_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of ``t`` along axis 0 with an arbitrary integer index array."""
    idx = np.asarray(idx)
    out_data = t.data[idx]

    def _bw(g):
        full = np.zeros_like(t.data)
        np.add.at(full, idx, g)
        _accumulate(t, full)

    return _make(out_data, (t,), _bw)


def pick_labels(t: Tensor, labels: np.ndarray) -> Tensor:
    """Select t[i, labels[i]] for each row of a (N, C) tensor."""
    labels = np.asarray(labels)
    rows = np.arange(t.data.shape[0])
    out_data = t.data[rows, labels]

    def _bw(g):
        full = np.zeros_like(t.data)
        full[rows, labels] = g
        _accumulate(t, full)

    return _make(out_data, (t,), _bw)


# -- contractions ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the trailing two axes.

    A 2-D ``b`` (a token-wise weight) is applied to every row of ``a`` as
    one (M, K) @ (K, N) GEMM, M being the product of ``a``'s leading
    extents; its two gradients are one GEMM each as well. ``np.matmul``
    would treat an (N, H, W, K) operand as N·H separate products of only W
    rows, each reading the whole weight again; on the 7-wide grid of the
    last stage that ran at a quarter of one GEMM's speed. The folded
    forward equals ``np.matmul`` bitwise (each output element is the same
    K-long dot product); the weight gradient sums all rows inside one GEMM
    instead of per slice, so it rounds differently. Other ranks of ``b``
    broadcast as ``np.matmul`` does.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires rank >= 2 operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    k = a.data.shape[-1]
    fold = b.data.ndim == 2
    if fold:
        rows, n = int(np.prod(a.data.shape[:-1])), b.data.shape[1]
        out_data = (a.data.reshape(rows, k) @ b.data).reshape(a.data.shape[:-1] + (n,))
    else:
        out_data = np.matmul(a.data, b.data)
    _record_macs(int(np.prod(out_data.shape)) * k)

    def _bw(g):
        if fold:
            g2 = g.reshape(rows, n)
            if _needs_grad(a):
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
            if _needs_grad(b):
                _accumulate(b, a.data.reshape(rows, k).T @ g2)
            return
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _make(out_data, (a, b), _bw)


def linear_rows(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of (R, K) rows, each row computed alone.

    Every output row, and every row's contribution to the gradients, is
    bitwise what a lone (1, K) ``matmul(row, w) + b`` on the tape gives:
    the stacked M=1 products each run the BLAS call a one-row ``matmul``
    makes, and the ``w``/``b`` gradients sum exact per-row outer products
    in row order, the order in which separate per-row nodes accumulate.
    A single GEMM over all rows would round differently.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(f"linear_rows wants (R, K) @ (K, N) + (N,), got "
                         f"{x.data.shape} @ {w.data.shape} + {b.data.shape}")
    if x.data.shape[1] != w.data.shape[0] or b.data.shape[0] != w.data.shape[1]:
        raise ShapeError(f"linear_rows extents differ: {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    out_data = np.matmul(x.data[:, None, :], w.data)[:, 0, :] + b.data
    _record_macs(x.data.size * w.data.shape[1])

    def _bw(g):
        if _needs_grad(x):
            _accumulate(x, np.matmul(g[:, None, :], w.data.T)[:, 0, :])
        # "+ 0.0" turns -0.0 into +0.0, as the zero-started one-term sums of
        # a one-row matmul and bias broadcast do
        if _needs_grad(w):
            outer = x.data[:, :, None] * g[:, None, :] + 0.0
            _accumulate(w, np.add.accumulate(outer, axis=0)[-1])
        if _needs_grad(b):
            _accumulate(b, np.add.accumulate(g + 0.0, axis=0)[-1])

    return _make(out_data, (x, w, b), _bw)


def conv2d(t: Tensor, kernel: Tensor, bias: Tensor | None, stride: int, padding: int) -> Tensor:
    """Strided 2-D cross-correlation on (..., H, W, Cin) with kernel (kh, kw, Cin, Cout).

    Output extents follow floor((H + 2p - k) / s) + 1 with symmetric zero
    padding of ``padding`` per side.

    The convolution runs as space-to-depth plus GEMMs. With q = ceil(kh/s)
    and r = ceil(kw/s), the input is zero-padded to (oh+q-1)·s × (ow+r-1)·s
    and each s×s block of pixels becomes one row of s²·Cin channels; the
    kernel, zero-padded to q·s × r·s, becomes an (s²·Cin, q·r·Cout) matrix
    whose column group (a, b) holds the taps of block offset (a, b). Output
    (i, j) sums the products of block (i+a, j+b) with group (a, b). The
    forward takes one GEMM over all blocks per block-row offset a, so its
    product is q times smaller than a single GEMM's (2 instead of 16 MB for
    the 32×32 embedding kernel at batch 2) and was faster there. The backward
    writes ``g`` into the q·r disjoint slots and takes one GEMM per gradient.
    This replaces a loop of kh·kw small products (1,024 for the 32×32
    kernel), each of only Cin columns; it is exact up to float
    reassociation. The MAC counter records the convolution,
    n·oh·ow·Cout·kh·kw·Cin, not the GEMMs, whose extra rows and zero taps
    are layout, not work of the layer.
    """
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d wants stride >= 1 and padding >= 0, got {stride} and {padding}")
    x = t.data
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    n, h, w, cin = x.shape
    kh, kw, kcin, cout = kernel.data.shape
    if kcin != cin:
        raise ShapeError(f"kernel expects {kcin} input channels, got {cin}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    s, q, r = stride, -(-kh // stride), -(-kw // stride)
    hq, wq = oh + q - 1, ow + r - 1  # extents in s×s blocks
    tiles = (padding, hq * s, wq * s) == (0, h, w)  # the input is the padded grid already

    def blocks() -> np.ndarray:
        # (n·hq·wq, s²·Cin) rows, rebuilt in backward rather than kept on the tape
        xq = x
        if not tiles:
            xq = np.zeros((n, hq * s, wq * s, cin), dtype=x.dtype)
            xq[:, padding : padding + h, padding : padding + w] = x[:, : hq * s - padding, : wq * s - padding]
        return xq.reshape(n, hq, s, wq, s, cin).transpose(0, 1, 3, 2, 4, 5).reshape(-1, s * s * cin)

    kq = np.zeros((q * s, r * s, cin, cout), dtype=kernel.data.dtype)
    kq[:kh, :kw] = kernel.data
    kmat = kq.reshape(q, s, r, s, cin, cout).transpose(1, 3, 4, 0, 2, 5).reshape(s * s * cin, q * r * cout)

    xs = blocks()
    out = np.zeros((n, oh, ow, cout), dtype=x.dtype)
    for a in range(q):
        y = (xs @ kmat[:, a * r * cout : (a + 1) * r * cout]).reshape(n, hq, wq, r, cout)
        for b in range(r):
            out += y[:, a : a + oh, b : b + ow, b]
    if bias is not None:
        out += bias.data
    _record_macs(n * oh * ow * cout * kh * kw * cin)
    if squeeze:
        out = out[0]

    def _bw(g):
        gb = g[None] if squeeze else g
        dy = np.zeros((n, hq, wq, q, r, cout), dtype=g.dtype)
        for a in range(q):
            for b in range(r):
                dy[:, a : a + oh, b : b + ow, a, b] = gb
        dy = dy.reshape(-1, q * r * cout)
        if _needs_grad(kernel):
            dk = (blocks().T @ dy).reshape(s, s, cin, q, r, cout).transpose(3, 0, 4, 1, 2, 5)
            _accumulate(kernel, dk.reshape(q * s, r * s, cin, cout)[:kh, :kw])
        if _needs_grad(t):
            dx = (dy @ kmat.T).reshape(n, hq, wq, s, s, cin).transpose(0, 1, 3, 2, 4, 5)
            dx = dx.reshape(n, hq * s, wq * s, cin)
            if not tiles:
                dxq, dx = dx, np.zeros_like(x)
                dx[:, : hq * s - padding, : wq * s - padding] = dxq[:, padding : padding + h, padding : padding + w]
            _accumulate(t, dx[0] if squeeze else dx)
        if bias is not None and _needs_grad(bias):
            _accumulate(bias, gb.sum(axis=(0, 1, 2)))

    parents = (t, kernel) if bias is None else (t, kernel, bias)
    return _make(out, parents, _bw)


# -- normalization and softmax -----------------------------------------------


def softmax_lastdim(t: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis.

    -inf logits get exactly zero probability; rows whose logits are all
    -inf (fully masked padding) produce all-zero rows instead of NaN.
    """
    x = t.data
    m = np.max(x, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - shift)
    s = e.sum(axis=-1, keepdims=True)
    p = np.divide(e, s, out=np.zeros_like(e), where=s > 0)

    def _bw(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accumulate(t, p * (g - inner))

    return _make(p, (t,), _bw)


def log_softmax_lastdim(t: Tensor) -> Tensor:
    x = t.data
    m = np.max(x, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    z = x - shift
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out_data = z - lse

    def _bw(g):
        p = np.exp(out_data)
        _accumulate(t, g - p * g.sum(axis=-1, keepdims=True))

    return _make(out_data, (t,), _bw)


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = t.data
    d = x.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError("gamma/beta must match the last-axis extent")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out_data = xhat * gamma.data + beta.data

    def _bw(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(beta, g.sum(axis=reduce_axes))
        _accumulate(gamma, (g * xhat).sum(axis=reduce_axes))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(t, inv_std * (dxhat - m1 - xhat * m2))

    return _make(out_data, (t, gamma, beta), _bw)


def mean_pool_hw(t: Tensor) -> Tensor:
    """Global average pool over the H and W axes of (..., H, W, C)."""
    return reduce_mean(t, axis=(-3, -2))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under (N, C) logits."""
    logp = log_softmax_lastdim(logits)
    return mul(reduce_mean(pick_labels(logp, labels)), -1.0)
