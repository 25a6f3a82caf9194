"""Minimal dense nd-array engine with reverse-mode automatic differentiation.

A Tensor wraps a numpy array (float32 for speed paths, float64 for
verification paths). When gradients are enabled and an op has an input that
needs a gradient, the op's output Tensor points to a small graph node, a
`_Node` (see `_make`): the nodes of those inputs, the backward rule and the
pending gradient. A leaf has no node: a leaf that needs a gradient is itself
the input a node lists, and keeps its gradient in ``grad``. The node never
references its output tensor, and each rule keeps only the arrays it reads,
so an intermediate array that no rule reads is freed during the forward as
soon as the caller drops it. ``backward()`` replays the nodes in reverse and
drops each rule once it has run, so a graph is backpropagated once. Only the
operations the model actually needs are implemented.

What each kind of op keeps on the tape, until its rule has run:

- shape ops, ``add``, ``concat``, ``index_rows`` and the reductions: shapes,
  indices and dtypes, no array;
- ``mul``: each operand only if the other one needs a gradient;
- ``relu``: its output, whose sign is the mask (the bias MLP's next linear
  keeps that array anyway);
- ``matmul``, ``linear``, ``mlp`` and ``conv2d``: their inputs (``mlp``
  also its GELU output and slope);
- ``gelu``, ``softmax_lastdim``, ``layer_norm`` and ``cross_entropy``: their
  own saved arrays (slope, probabilities, normalized input, log-probabilities).

The engine needs numpy only. GELU's Φ is a numpy port of scipy's ndtr in
float32 and in float64 (see `_phi`).
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
    "conv2d",
    "relu",
    "gelu",
    "softmax_lastdim",
    "layer_norm",
    "pad_hw",
    "crop_hw",
    "concat",
    "index_rows",
    "cross_entropy",
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
# float64 Φ(x) = 0.5 + 0.5·erf(z), z = x/√2, erf(z) = z·T(z²)/U(z²) for |z| < 1
# (cephes' erf, as scipy's ndtr takes it), `_ndtr_tail` beyond; U is monic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_FAR = 1.0 - 2.0**-53  # the double below 1: z² > _ERF_FAR exactly when |z| ≥ 1
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
    ``linear``, ``mlp`` and ``conv2d``.

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


class _Node:
    """One recorded op on the tape: the nodes of its inputs that need a
    gradient (an input's `_Node`, or the input itself for a leaf), its
    backward rule and its pending gradient. It never holds its
    output tensor; the rule holds the arrays it reads, and nothing else.
    ``backward()`` sets the rule to None once it has run, which frees those
    arrays and marks the node as backpropagated."""

    __slots__ = ("_parents", "_backward", "grad", "dtype")

    def __init__(self, parents: tuple, backward: Callable[[np.ndarray], None], dtype):
        self._parents = parents
        self._backward = backward
        self.grad: np.ndarray | None = None
        self.dtype = dtype


class Tensor:
    """Dense nd-array with optional gradient tracking.

    ``data`` is always a numpy float array. A tensor that a recorded op made
    points to that op's `_Node` in ``_node``, which holds its pending
    gradient, and its ``grad`` stays None. A leaf has no node: with
    ``requires_grad`` it is itself an input of its consumers' nodes, and
    ``backward()`` leaves its gradient in ``grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

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

        Only leaves with ``requires_grad`` keep their gradient, in ``grad``.
        A `_Node`'s gradient is complete when the reverse walk reaches it,
        and the node drops that gradient and its rule, with the arrays the
        rule saved, as soon as the rule has run (or when the walk reaches it
        with no gradient). So the pass reuses the memory it frees for the
        gradients it allocates, and a graph can be backpropagated once: a
        second ``backward()`` through it raises RuntimeError before any
        gradient is touched. After the pass the graph holds only small nodes,
        so a training loop that rebinds ``loss`` after the next forward keeps
        the previous graph alive for free: it costs neither memory nor the
        page faults of giving arrays back to the OS and taking them again.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        root = self if self._node is None else self._node
        topo: list[_Node] = []
        seen = set()
        stack: list[tuple] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if type(node) is not _Node or id(node) in seen:  # a leaf keeps its gradient
                continue
            if node._backward is None:
                raise RuntimeError("backward() through a graph that has already been backpropagated")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.grad is not None:
                node._backward(node.grad)
                node.grad = None
            node._backward = None

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


def _node_of(t: Tensor):
    """The node that gradients of ``t`` go to: the op that made it, ``t``
    itself for a leaf with ``requires_grad``, or None when none is needed."""
    node = t._node
    return t if node is None and t.requires_grad else node


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether ``_make`` puts a node with these parents on the tape."""
    return _GRAD_ENABLED and any(_node_of(p) is not None for p in parents)


def _make(data: np.ndarray, nodes: Sequence, backward: Callable[[np.ndarray], None]) -> Tensor:
    """The output Tensor of an op, given its inputs' `_node_of` (None for an
    input that needs no gradient) and its backward rule.

    With gradients enabled and some input node present, the output points to
    a new `_Node` holding those input nodes and the rule; otherwise no node
    is made. The rule accumulates into the input nodes it closes over and
    must close over nothing else but the arrays it reads (never the input or
    output tensors), so that everything else of the forward can be freed.
    ``backward()`` drops the rule once it has run, and the arrays with it.
    """
    out = Tensor(data)
    if _GRAD_ENABLED:
        parents = tuple(n for n in nodes if n is not None)
        if parents:
            out._node = _Node(parents, backward, data.dtype)
    return out


def _accumulate(node, g: np.ndarray) -> None:
    if node is not None:
        if node.grad is None:
            # own copy: `g` may be a view of the consumer's gradient, or the
            # same array `add` hands both operands; `+=` must not write there
            node.grad = np.array(g, dtype=node.dtype, copy=True)
        else:
            node.grad += g


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
    na, nb = _node_of(a), _node_of(b)
    sa, sb = a.data.shape, b.data.shape

    def _bw(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g, sa))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, sb))

    return _make(a.data + b.data, (na, nb), _bw)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    na, nb = _node_of(a), _node_of(b)
    sa, sb = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand only
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def _bw(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g * b_data, sa))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g * a_data, sb))

    return _make(a.data * b.data, (na, nb), _bw)


def reduce_sum(t: Tensor, axis=None, keepdims=False) -> Tensor:
    nt, shape = _node_of(t), t.data.shape

    def _bw(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        _accumulate(nt, np.broadcast_to(gg, shape))

    return _make(t.data.sum(axis=axis, keepdims=keepdims), (nt,), _bw)


def reduce_mean(t: Tensor, axis=None, keepdims=False) -> Tensor:
    nt, shape = _node_of(t), t.data.shape
    denom = t.data.size if axis is None else math.prod(shape[a] for a in np.atleast_1d(axis))

    def _bw(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        _accumulate(nt, np.broadcast_to(gg / denom, shape))

    return _make(t.data.mean(axis=axis, keepdims=keepdims), (nt,), _bw)


def relu(t: Tensor) -> Tensor:
    """max(x, 0). The node keeps the output, whose sign is the input's, and
    no other array; its consumer in the bias MLP keeps that output anyway."""
    nt = _node_of(t)
    out = np.maximum(t.data, 0.0)

    def _bw(g):
        _accumulate(nt, g * (out > 0).astype(out.dtype))

    return _make(out, (nt,), _bw)


def _phi(x: np.ndarray, phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a flat chunk ``x`` into ``phi``, ``u`` being
    scratch of the same size; returns the indices of ``x``'s infinite entries.
    Near zero each dtype has its own approximant, computed in place: float32
    0.5 + x·P(x²) for |x| ≤ _PHI_POLY_MAX, float64 cephes' 0.5 + 0.5·erf(x/√2)
    for |x| < √2, which is scipy's float64 ndtr bitwise. Beyond, both take
    `_ndtr_tail`, which gives scipy's float32 ndtr bitwise and its float64
    ndtr within 4 ulp wherever that is a normal float."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge |x| overflow the approximants; the tail overwrites those
        if x.dtype == np.float32:
            np.multiply(x, x, out=u)
            _polevl(u, _PHI_POLY, out=phi)
            phi *= x
            phi += 0.5
            far_sq = _PHI_POLY_MAX * _PHI_POLY_MAX
        else:
            np.multiply(x, _INV_SQRT2, out=phi)
            np.multiply(phi, phi, out=u)
            t = _polevl(u, _ERF_T)
            phi *= t
            phi /= _polevl(u, _ERF_U, out=t)
            phi *= 0.5
            phi += 0.5
            far_sq = _ERF_FAR
        if u.max() <= far_sq:  # False also when a NaN makes the max NaN
            return np.empty(0, np.intp)
        far = np.flatnonzero(u > far_sq)
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
    """scipy's ndtr of the float32 or float64 values ``a``, each |a| ≥ √2, in
    float64: cephes' erfc branch, y = 0.5·erfc(z) with z = |a|/√2, and 1 - y
    where a > 0. Rounded to float32 it is scipy's float32 ndtr bit for bit."""
    z = np.abs(a, dtype=np.float64)
    z *= _INV_SQRT2
    np.minimum(z, 1e39, out=z)  # ±inf and huge |a|: y is 0 there, and Φ 0 or 1
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
            # x·x overflows at huge |x|, where φ is 0; ±inf·0 at ±inf, where the slope is Φ
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(x, -0.5, out=uc)  # φ(x) = exp(-x·x/2)/√(2π), in the order of -0.5·x·x
                uc *= x
                np.exp(uc, out=uc)
                uc *= _INV_SQRT_2PI
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
    and no other array. Φ is computed in numpy (see `_phi`). float32 takes a
    polynomial for |x| ≤ 1.5 and a port of scipy's ndtr beyond; against f64
    x·ndtr(x) its output is within 3.9e-7 absolute everywhere and 14 ulp for
    |x| ≤ 3. float64 takes cephes' erf for |x| < √2 and the same port beyond;
    its output is within 4.4e-16 of x·ndtr(x). At ±inf the value and the
    slope are their limits, -0 and 0 at -inf, inf and 1 at +inf.
    """
    x, nt = t.data, _node_of(t)
    out = np.empty(x.shape, x.dtype)
    slope = np.empty(x.shape, x.dtype) if _records((t,)) else None
    _gelu_rows(x.reshape(-1, 1), out.reshape(-1, 1), None if slope is None else slope.reshape(-1, 1))

    def _bw(g):
        _accumulate(nt, g * slope)

    return _make(out, (nt,), _bw)


# -- shape ops -----------------------------------------------------------------


def reshape(t: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if math.prod(new_shape) != t.data.size:
        raise ShapeError(f"cannot reshape {t.shape} (size {t.data.size}) to {new_shape}")
    nt, shape = _node_of(t), t.data.shape

    def _bw(g):
        _accumulate(nt, g.reshape(shape))

    return _make(t.data.reshape(new_shape), (nt,), _bw)


def permute(t: Tensor, order) -> Tensor:
    order = tuple(int(a) for a in order)
    if sorted(order) != list(range(t.data.ndim)):
        raise ShapeError(f"{order} is not a permutation of axes of rank-{t.data.ndim} tensor")
    nt, inverse = _node_of(t), np.argsort(order)

    def _bw(g):
        _accumulate(nt, np.transpose(g, inverse))

    return _make(np.transpose(t.data, order), (nt,), _bw)


def pad_hw(t: Tensor, pad_h: int, pad_w: int) -> Tensor:
    """Zero-pad the trailing rows/cols of the H and W axes of a (..., H, W, C) tensor."""
    if pad_h == 0 and pad_w == 0:
        return t
    widths = [(0, 0)] * (t.data.ndim - 3) + [(0, pad_h), (0, pad_w), (0, 0)]
    nt, (h, w) = _node_of(t), t.data.shape[-3:-1]

    def _bw(g):
        _accumulate(nt, g[..., :h, :w, :])

    return _make(np.pad(t.data, widths), (nt,), _bw)


def crop_hw(t: Tensor, height: int, width: int) -> Tensor:
    """Keep the leading height×width block of the H and W axes."""
    nt, shape, dtype = _node_of(t), t.data.shape, t.data.dtype

    def _bw(g):
        full = np.zeros(shape, dtype)
        full[..., :height, :width, :] = g
        _accumulate(nt, full)

    return _make(t.data[..., :height, :width, :], (nt,), _bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    nodes = [_node_of(t) for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def _bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(n, g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), nodes, _bw)


def index_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of ``t`` along axis 0 with an arbitrary integer index array."""
    idx = np.asarray(idx)
    nt, shape, dtype = _node_of(t), t.data.shape, t.data.dtype

    def _bw(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, idx, g)
        _accumulate(nt, full)

    return _make(t.data[idx], (nt,), _bw)


# -- contractions ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the trailing two axes; the leading axes
    broadcast as ``np.matmul``'s do. Token-wise weights go through ``linear``
    and ``mlp``, which fold the rows into one GEMM."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires rank >= 2 operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    ad, bd, na, nb = a.data, b.data, _node_of(a), _node_of(b)
    out = np.matmul(ad, bd)
    _record_macs(out.size * ad.shape[-1])

    def _bw(g):
        if na is not None:
            _accumulate(na, _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape))

    return _make(out, (na, nb), _bw)


def _folded(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a`` (..., K) times a 2-D ``w`` (K, N) as one (M, K) @ (K, N) GEMM, M
    being the product of ``a``'s leading extents; returns the (M, N) product
    and records its MACs. ``np.matmul`` would treat an (N, H, W, K) ``a`` as
    N·H products of W rows, each reading all of ``w`` again; on the 7-wide
    grid of the last stage that ran at a quarter of one GEMM's speed."""
    out = _rows(a) @ w
    _record_macs(out.size * w.shape[0])
    return out


def _folded_grads(g2: np.ndarray, a: np.ndarray, na, w: np.ndarray, nw) -> None:
    """Accumulate into the nodes ``na`` and ``nw`` the gradients of
    ``_folded(a, w)`` given the (M, N) gradient ``g2``: one GEMM each. The
    ``a`` rows are folded again here rather than kept on the tape."""
    if na is not None:
        _accumulate(na, (g2 @ w.T).reshape(a.shape))
    if nw is not None:
        _accumulate(nw, _rows(a).T @ g2)


def _check_affine(name: str, shape: tuple[int, ...], w: Tensor, b: Tensor) -> None:
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:] or shape[-1:] != w.data.shape[:1]:
        raise ShapeError(f"{name} wants (..., K) @ (K, N) + (N,), got {shape} @ {w.data.shape} + {b.data.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Token-wise affine map ``x @ w + b`` of (..., K) ``x`` as one tape node.

    The output is the folded GEMM, then the bias added in place: bitwise
    ``matmul(x.reshape(M, K), w).reshape(lead + (N,)) + b``. The node keeps
    only its inputs. The gradients are those of that composition too; the
    bias gradient is ``add``'s reduction.
    """
    _check_affine("linear", x.data.shape, w, b)
    xd, wd, nx, nw, nb = x.data, w.data, _node_of(x), _node_of(w), _node_of(b)
    out = _folded(xd, wd)
    out += b.data
    out = out.reshape(xd.shape[:-1] + b.data.shape)

    def _bw(g):
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, wd.shape[1:]))  # b's shape, as _check_affine checked
        _folded_grads(_rows(g), xd, nx, wd, nw)

    return _make(out, (nx, nw, nb), _bw)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Token-wise ``gelu(x @ w1 + b1) @ w2 + b2`` as one tape node.

    Outputs and gradients equal bitwise those of ``linear`` → ``gelu`` →
    ``linear``. The hidden pre-activations h get ``b1`` and GELU chunk by
    chunk in cache (`_gelu_rows`). On the tape the node keeps its inputs and
    two hidden-sized arrays, the GELU output and its slope, which overwrites
    h; without a tape GELU runs in place in h.
    """
    _check_affine("mlp", x.data.shape, w1, b1)
    _check_affine("mlp", w1.data.shape, w2, b2)
    xd, w1d, w2d = x.data, w1.data, w2.data
    nodes = nx, nw1, nb1, nw2, nb2 = tuple(_node_of(p) for p in (x, w1, b1, w2, b2))
    lead, hidden = xd.shape[:-1], w1d.shape[1]
    h = _folded(xd, w1d)
    keep = _records((x, w1, b1, w2, b2))
    act = np.empty_like(h) if keep else h
    _gelu_rows(h, act, h if keep else None, b1.data)
    out = _folded(act, w2d)
    out += b2.data
    out = out.reshape(lead + b2.data.shape)
    slope = h

    def _bw(g):
        g2 = _rows(g)
        if nb2 is not None:
            _accumulate(nb2, _unbroadcast(g, w2d.shape[1:]))
        if nw2 is not None:
            _accumulate(nw2, act.T @ g2)
        ga = g2 @ w2d.T
        ga *= slope
        if nb1 is not None:
            _accumulate(nb1, _unbroadcast(ga.reshape(lead + (hidden,)), (hidden,)))
        _folded_grads(ga, xd, nx, w1d, nw1)

    return _make(out, nodes, _bw)


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

    kq = np.pad(kernel.data, ((0, q * s - kh), (0, r * s - kw), (0, 0), (0, 0)))
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
    nt, nk, nbias = _node_of(t), _node_of(kernel), None if bias is None else _node_of(bias)

    def _bw(g):
        dy = np.zeros((n, hq, wq, q, r, cout), dtype=g.dtype)
        for a in range(q):
            for b in range(r):
                dy[:, a : a + oh, b : b + ow, a, b] = g
        dy = dy.reshape(-1, q * r * cout)
        if nk is not None:
            dk = (blocks().T @ dy).reshape(s, s, cin, q, r, cout).transpose(3, 0, 4, 1, 2, 5)
            _accumulate(nk, dk.reshape(q * s, r * s, cin, cout)[:kh, :kw])
        if nt is not None:
            dx = (dy @ kmat.T).reshape(n, hq, wq, s, s, cin).transpose(0, 1, 3, 2, 4, 5)
            dx = dx.reshape(n, hq * s, wq * s, cin)
            if not tiles:
                dxq, dx = dx, np.zeros_like(x)
                dx[:, : hq * s - padding, : wq * s - padding] = dxq[:, padding : padding + h, padding : padding + w]
            _accumulate(nt, dx)
        if nbias is not None:
            _accumulate(nbias, _col_sum(g))

    return _make(out, (nt, nk, nbias), _bw)


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
    nt = _node_of(t)

    def _bw(g):
        dx = g - _row_sum(g, p)
        dx *= p
        _accumulate(nt, dx)

    return _make(p, (nt,), _bw)


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
    gd = gamma.data
    nodes = nt, ngamma, nbeta = _node_of(t), _node_of(gamma), _node_of(beta)
    out_data = xhat * gd
    out_data += beta.data

    def _bw(g):
        _accumulate(nbeta, _col_sum(g))
        _accumulate(ngamma, _col_sum(g, xhat))
        dxhat = g * gd
        m1 = _row_sum(dxhat) / d
        m2 = _row_sum(dxhat, xhat) / d
        dxhat -= m1
        dxhat -= xhat * m2
        dxhat *= inv_std
        _accumulate(nt, dxhat)

    return _make(out_data, nodes, _bw)


def _log_softmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log of ``softmax_lastdim`` and the (..., 1) mask of fully masked rows:
    a row whose logits are all -inf gives -inf, the log of softmax's zero
    row; a NaN row gives NaN."""
    m = _row_max(x)
    masked = m == -np.inf
    shift = np.where(np.isfinite(m), m, 0.0)
    z = x - shift
    s = _row_sum(np.exp(z))
    s[masked] = 1.0  # log 1 = 0 leaves the row at -inf
    return z - np.log(s), masked


def _log_softmax_grad(logp: np.ndarray, masked: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``_log_softmax`` given its output, its mask and the
    output's gradient ``g``; zero on fully masked rows."""
    dx = g - np.exp(logp) * _row_sum(g)
    dx[masked[..., 0]] = 0.0
    return dx


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under (N, C) logits.

    One tape node that keeps the log-probabilities. The loss and the logits
    gradient take log-softmax, the label pick, the mean and ×(−1) in that
    order.
    """
    rows, labels = np.arange(logits.data.shape[0]), np.asarray(labels)
    logp, masked = _log_softmax(logits.data)
    minus_one = np.asarray(-1.0, logp.dtype)
    out_data = logp[rows, labels].mean() * minus_one
    nl = _node_of(logits)

    def _bw(g):
        full = np.zeros_like(logp)
        full[rows, labels] = (g * minus_one) / rows.size
        _accumulate(nl, _log_softmax_grad(logp, masked, full))

    return _make(out_data, (nl,), _bw)
