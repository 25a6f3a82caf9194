"""Minimal dense nd-array engine with reverse-mode automatic differentiation.

A Tensor wraps a numpy array (float32 for speed paths, float64 for
verification paths) and, when gradients are enabled, records the operation
that produced it so that ``backward()`` can replay the tape in reverse.
Only the operations the model actually needs are implemented.

The float32 engine needs numpy only. float64 GELU loads scipy's erf on first
use, so that the verification path is scipy's formula byte for byte.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "MacCounter",
    "count_macs",
    "matmul",
    "linear",
    "mlp",
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

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
# float32 Φ(x) = 0.5 + x·P(x²) for |x| ≤ _PHI_POLY_MAX, `_ndtr_tail` beyond.
# P (highest degree first) is a weighted minimax fit to f64 ndtr; its own
# relative error on x·Φ(x) is 4e-9, far below float32 rounding.
_PHI_POLY_MAX = 1.5
_PHI_POLY = (3.8711164e-07, -8.534946e-06, 1.13824084e-04, -1.18574e-03, 9.972722e-03, -6.649018e-02, 0.39894226)
# cephes' erfc(z) = exp(-z²)·P(z)/Q(z) for 1 ≤ z < 8 and exp(-z²)·R(z)/S(z)
# beyond, as scipy's ndtr evaluates it; highest degree first. Q and S are
# monic: their leading 1 makes polevl p1evl exactly (1·z = z).
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_PHI_CHUNK = 32768  # values per pass, so that a chunk and its scratch stay in cache
_NARROW_MAX = 16  # widest rows whose maximum is taken column by column


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


class MacCounter:
    """Counts multiply-accumulate operations executed by ``matmul``,
    ``linear``, ``mlp``, ``linear_rows`` and ``conv2d``.

    One MAC is one multiply-add; softmax, norms, activations and bias adds
    are not counted. Counters nest: every active counter sees every MAC.
    """

    def __init__(self) -> None:
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += n


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

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass seeded from this (scalar) tensor.

        Only tensors with ``requires_grad`` keep their gradient. Any other
        node's gradient is complete when the reverse walk reaches it and is
        dropped as soon as its rule has run, so the pass reuses that memory
        instead of returning it to the OS and faulting it in again next step.
        """
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
                if not node.requires_grad:
                    node.grad = None

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether ``_make`` puts a node with these parents on the tape."""
    return _GRAD_ENABLED and any(_needs_grad(p) for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _records(parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if _needs_grad(t):
        if t.grad is None:
            # own copy: `g` may be a view of the consumer's gradient, or the
            # same array `add` hands both operands; `+=` must not write there
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
    denom = t.data.size if axis is None else math.prod(t.data.shape[a] for a in np.atleast_1d(axis))

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
        _accumulate(t, g * (t.data > 0).astype(t.data.dtype))

    return _make(out_data, (t,), _bw)


def _phi(x: np.ndarray, phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a flat chunk ``x`` into ``phi``, ``u`` being
    scratch of the same size; returns the indices of ``x``'s infinite entries.
    float64 computes 0.5·(1 + erf(x/√2)) with scipy's erf, imported on first
    use; float32 needs numpy only: the polynomial for |x| ≤ _PHI_POLY_MAX, in
    place, and `_ndtr_tail` beyond, which gives scipy's float32 ndtr bitwise."""
    if x.dtype != np.float32:
        from scipy.special import erf

        np.multiply(x, _INV_SQRT2, out=phi)
        erf(phi, out=phi)
        phi += 1.0
        phi *= 0.5
        return np.flatnonzero(np.isinf(x))
    with np.errstate(over="ignore"):  # P overflows at huge |x|; the tail overwrites those
        np.multiply(x, x, out=u)
        _polevl(u, _PHI_POLY, out=phi)
        phi *= x
        phi += 0.5
        if u.max() <= _PHI_POLY_MAX * _PHI_POLY_MAX:  # False also when a NaN makes the max NaN
            return np.empty(0, np.intp)
        far = np.flatnonzero(u > _PHI_POLY_MAX * _PHI_POLY_MAX)
    xfar = x[far]
    phi[far] = _ndtr_tail(xfar)
    return far[np.isinf(xfar)]


def _polevl(z: np.ndarray, coefs: tuple[float, ...], out: np.ndarray | None = None) -> np.ndarray:
    """The polynomial ``coefs`` (highest degree first) at ``z`` by Horner,
    in cephes polevl's order, into ``out`` or a new array."""
    y = np.multiply(z, coefs[0], out=out)
    for c in coefs[1:-1]:
        y += c
        y *= z
    y += coefs[-1]
    return y


def _ndtr_tail(a: np.ndarray) -> np.ndarray:
    """scipy's ndtr of the float32 values ``a``, each |a| > 1, in float64:
    cephes' erfc branch, y = 0.5·erfc(z) with z = |a|/√2, and 1 - y where
    a > 0. Rounded to float32 it is scipy's float32 ndtr bit for bit."""
    z = np.abs(a, dtype=np.float64)
    z *= _INV_SQRT2
    np.minimum(z, 1e39, out=z)  # ±inf: beyond every finite float32, where y is 0 and Φ 0 or 1
    y = z * z
    np.negative(y, out=y)
    np.exp(y, out=y)
    if z.max(initial=0.0) < 8.0:  # `a` is empty when a NaN alone sent _phi here
        num, den = _polevl(z, _ERFC_P), _polevl(z, _ERFC_Q)
    else:
        big = z >= 8.0
        num, den = np.empty_like(z), np.empty_like(z)
        for part, p, q in ((~big, _ERFC_P, _ERFC_Q), (big, _ERFC_R, _ERFC_S)):
            num[part] = _polevl(z[part], p)
            den[part] = _polevl(z[part], q)
    y *= num
    y /= den
    y *= 0.5
    np.subtract(1.0, y, out=y, where=a > 0)
    return y


def _gelu_rows(h: np.ndarray, out: np.ndarray, slope: np.ndarray | None, bias: np.ndarray | None = None) -> None:
    """The one GELU kernel: x·Φ(x) of the C-order (rows, width) array ``h``
    into ``out`` and, unless ``slope`` is None, its slope Φ + x·φ(x) into
    ``slope``. ``bias``, when given, is first added to ``h`` in place.

    It walks whole rows, about _PHI_CHUNK values at a time, so that a chunk
    and its Φ stay in cache. ``out`` may be ``h``, or ``slope`` may be: each
    is written after the chunk's last read of ``h``. At ±inf the value and
    the slope take their limits, -0 and 0 at -inf, inf and 1 at +inf.
    """
    rows, width = h.shape
    step = max(1, _PHI_CHUNK // max(width, 1))
    phi, u = (np.empty(min(rows, step) * width, h.dtype) for _ in range(2))
    for s in range(0, rows if width else 0, step):
        hc = h[s : s + step]
        if bias is not None:
            hc += bias
        x, y = hc.reshape(-1), out[s : s + step].reshape(-1)
        ph, uc = phi[: x.size], u[: x.size]
        inf = _phi(x, ph, uc)
        limit = np.where(x[inf] > 0, np.inf, -0.0) if inf.size else None
        with np.errstate(invalid="ignore"):  # -inf·Φ(-inf) is -inf·0, set below
            np.multiply(x, ph, out=y)
        if slope is not None:
            np.multiply(x, -0.5, out=uc)  # φ(x) = exp(-x·x/2)/√(2π), in the order of -0.5·x·x
            uc *= x
            np.exp(uc, out=uc)
            uc *= _INV_SQRT_2PI
            with np.errstate(invalid="ignore"):  # ±inf·0 at ±inf, where the slope is Φ
                uc *= x
            sl = slope[s : s + step].reshape(-1)
            np.add(ph, uc, out=sl)
            if inf.size:
                sl[inf] = ph[inf]
        if inf.size:
            y[inf] = limit


def gelu(t: Tensor) -> Tensor:
    """Gaussian error linear unit x·Φ(x), Φ the standard normal CDF.

    One tape node that keeps its slope Φ + x·φ(x), computed with the value,
    and no other array. float64 computes Φ as 0.5·(1 + erf(x/√2)) with
    scipy's erf, loaded on first use. float32 needs numpy only (see `_phi`):
    a polynomial for |x| ≤ 1.5 and a port of scipy's ndtr beyond; against
    f64 x·ndtr(x) its output is within 3.9e-7 absolute everywhere and 14 ulp
    for |x| ≤ 3. At ±inf the value and the slope are their limits, -0 and 0 at
    -inf, inf and 1 at +inf.
    """
    x = t.data
    out = np.empty(x.shape, x.dtype)
    slope = np.empty(x.shape, x.dtype) if _records((t,)) else None
    _gelu_rows(x.reshape(-1, 1), out.reshape(-1, 1), None if slope is None else slope.reshape(-1, 1))

    def _bw(g):
        _accumulate(t, g * slope)

    return _make(out, (t,), _bw)


# -- shape ops -----------------------------------------------------------------


def reshape(t: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if math.prod(new_shape) != t.data.size:
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
    fold = b.data.ndim == 2
    if fold:
        out_data = _folded(a.data, b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])
    else:
        out_data = np.matmul(a.data, b.data)
        _record_macs(out_data.size * a.data.shape[-1])

    def _bw(g):
        if fold:
            _folded_grads(_rows(g), a, b)
            return
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _make(out_data, (a, b), _bw)


def _folded(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a`` (..., K) times a 2-D ``w`` (K, N) as one (M, K) @ (K, N) GEMM, M
    being the product of ``a``'s leading extents; returns the (M, N) product
    and records its MACs."""
    out = _rows(a) @ w
    _record_macs(out.size * w.shape[0])
    return out


def _folded_grads(g2: np.ndarray, a: Tensor, w: Tensor) -> None:
    """Accumulate the gradients of ``_folded(a.data, w.data)`` given the
    (M, N) gradient ``g2``: one GEMM each. The ``a`` rows are folded again
    here rather than kept on the tape."""
    if _needs_grad(a):
        _accumulate(a, (g2 @ w.data.T).reshape(a.data.shape))
    if _needs_grad(w):
        _accumulate(w, _rows(a.data).T @ g2)


def _check_affine(name: str, shape: tuple[int, ...], w: Tensor, b: Tensor) -> None:
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:] or shape[-1:] != w.data.shape[:1]:
        raise ShapeError(f"{name} wants (..., K) @ (K, N) + (N,), got {shape} @ {w.data.shape} + {b.data.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Token-wise affine map ``x @ w + b`` of (..., K) ``x`` as one tape node.

    The output is ``matmul(x, w) + b`` bitwise: the folded GEMM, then the
    bias added in place. The node keeps only its inputs. The gradients are
    those of that composition too; the bias gradient is ``add``'s reduction.
    """
    _check_affine("linear", x.data.shape, w, b)
    out = _folded(x.data, w.data)
    out += b.data
    out = out.reshape(x.data.shape[:-1] + b.data.shape)

    def _bw(g):
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g, b.data.shape))
        _folded_grads(_rows(g), x, w)

    return _make(out, (x, w, b), _bw)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Token-wise ``gelu(x @ w1 + b1) @ w2 + b2`` as one tape node.

    Outputs and gradients equal bitwise those of ``linear`` → ``gelu`` →
    ``linear``. The hidden pre-activations h get ``b1`` and GELU chunk by
    chunk in cache (`_gelu_rows`). On the tape the node keeps two
    hidden-sized arrays, the GELU output and its slope, which overwrites h;
    without a tape GELU runs in place in h.
    """
    _check_affine("mlp", x.data.shape, w1, b1)
    _check_affine("mlp", w1.data.shape, w2, b2)
    hidden = w1.data.shape[1]
    lead = x.data.shape[:-1]
    h = _folded(x.data, w1.data)
    keep = _records((x, w1, b1, w2, b2))
    act = np.empty_like(h) if keep else h
    _gelu_rows(h, act, h if keep else None, b1.data)
    out = _folded(act, w2.data)
    out += b2.data
    out = out.reshape(lead + b2.data.shape)
    slope = h

    def _bw(g):
        g2 = _rows(g)
        if _needs_grad(b2):
            _accumulate(b2, _unbroadcast(g, b2.data.shape))
        if _needs_grad(w2):
            _accumulate(w2, act.T @ g2)
        ga = g2 @ w2.data.T
        ga *= slope
        if _needs_grad(b1):
            _accumulate(b1, _unbroadcast(ga.reshape(lead + (hidden,)), b1.data.shape))
        _folded_grads(ga, x, w1)

    return _make(out, (x, w1, b1, w2, b2), _bw)


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
    """Strided 2-D cross-correlation of a batch (N, H, W, Cin) with kernel (kh, kw, Cin, Cout).

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
    if x.ndim != 4:
        raise ShapeError(f"conv2d wants a batch (N, H, W, Cin), got shape {x.shape}")
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

    def _bw(g):
        dy = np.zeros((n, hq, wq, q, r, cout), dtype=g.dtype)
        for a in range(q):
            for b in range(r):
                dy[:, a : a + oh, b : b + ow, a, b] = g
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
            _accumulate(t, dx)
        if bias is not None and _needs_grad(bias):
            _accumulate(bias, _col_sum(g))

    parents = (t, kernel) if bias is None else (t, kernel, bias)
    return _make(out, parents, _bw)


# -- normalization and softmax -----------------------------------------------
#
# Norms and softmax reduce many short rows, where numpy's ``ufunc.reduce`` pays
# a set-up per row that costs more than the adds; einsum does not. Never pass
# einsum ``optimize=``: it may route a sum to BLAS, whose GEMV rounds a row
# differently depending on the rows around it.


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as C-order (rows, last axis) for the reductions below."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


def _row_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``a`` (or of ``a*b``) over the last axis, kept as an axis of 1."""
    s = np.einsum("ij->i", _rows(a)) if b is None else np.einsum("ij,ij->i", _rows(a), _rows(b))
    return s.reshape(a.shape[:-1] + (1,))


def _col_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``a`` (or of ``a*b``) over every axis but the last, adding the
    rows in order; one column alone is summed as a row is."""
    return np.einsum("ij->j", _rows(a)) if b is None else np.einsum("ij,ij->j", _rows(a), _rows(b))


def _row_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the last axis, kept as an axis of 1; NaN if a row holds one.

    A maximum is exact in any order. Rows up to _NARROW_MAX wide take a
    running ``np.maximum`` over the columns, wider ones ``np.maximum.reduceat``
    over the flat array; each costs less per row than ``np.max`` there.
    """
    d = a.shape[-1]
    if a.size == 0:  # no rows, or rows of width 0, which np.max refuses
        return np.max(a, axis=-1, keepdims=True)
    if d <= _NARROW_MAX:
        m = a[..., :1].copy()
        for j in range(1, d):
            np.maximum(m, a[..., j : j + 1], out=m)
        return m
    flat = a.reshape(-1)
    return np.maximum.reduceat(flat, np.arange(0, flat.size, d)).reshape(a.shape[:-1] + (1,))


def softmax_lastdim(t: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis.

    -inf logits get exactly zero probability; rows whose logits are all
    -inf (fully masked padding) produce all-zero rows instead of NaN. A row
    that holds a NaN gives NaN, so the fault reaches the loss. Row sums are
    einsum's and maxima exact, so a row's output is bitwise the same alone or
    among any number of rows, as batched DPB tables need.
    """
    x = t.data
    m = _row_max(x)
    masked = m == -np.inf
    m[masked] = 0.0
    p = np.subtract(x, m)
    np.exp(p, out=p)
    s = _row_sum(p)
    s[masked] = 1.0  # the exp row of a fully masked row is all zeros
    p /= s

    def _bw(g):
        dx = g - _row_sum(g, p)
        dx *= p
        _accumulate(t, dx)

    return _make(p, (t,), _bw)


def log_softmax_lastdim(t: Tensor) -> Tensor:
    """Log of ``softmax_lastdim``: a row whose logits are all -inf gives -inf
    and a zero gradient, the log of softmax's zero row; a NaN row gives NaN."""
    x = t.data
    m = _row_max(x)
    masked = m == -np.inf
    shift = np.where(np.isfinite(m), m, 0.0)
    z = x - shift
    s = _row_sum(np.exp(z))
    s[masked] = 1.0  # log 1 = 0 leaves the row at -inf
    out_data = z - np.log(s)

    def _bw(g):
        p = np.exp(out_data)
        dx = g - p * _row_sum(g)
        dx[masked[..., 0]] = 0.0
        _accumulate(t, dx)

    return _make(out_data, (t,), _bw)


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Means and variances are einsum row sums, so a token is normalized to the
    same bits alone or in any batch, as batched DPB tables need; the gamma
    and beta gradients add the tokens in order.
    """
    x = t.data
    d = x.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError("gamma/beta must match the last-axis extent")
    xhat = x - _row_sum(x) / d
    inv_std = 1.0 / np.sqrt(_row_sum(xhat, xhat) / d + eps)
    xhat *= inv_std
    out_data = xhat * gamma.data
    out_data += beta.data

    def _bw(g):
        _accumulate(beta, _col_sum(g))
        _accumulate(gamma, _col_sum(g, xhat))
        dxhat = g * gamma.data
        m1 = _row_sum(dxhat) / d
        m2 = _row_sum(dxhat, xhat) / d
        dxhat -= m1
        dxhat -= xhat * m2
        dxhat *= inv_std
        _accumulate(t, dxhat)

    return _make(out_data, (t, gamma, beta), _bw)


def mean_pool_hw(t: Tensor) -> Tensor:
    """Global average pool over the H and W axes of (..., H, W, C)."""
    return reduce_mean(t, axis=(-3, -2))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under (N, C) logits."""
    logp = log_softmax_lastdim(logits)
    return mul(reduce_mean(pick_labels(logp, labels)), -1.0)
