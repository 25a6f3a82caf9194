"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain loops and the
definitional formulas, not with the library's reshape/permute machinery,
so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np

from xfmr import Tensor, no_grad
from xfmr import tensor as T


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product for 2-D operands."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.result_type(a, b))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conv2d_loops(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None,
                 stride: int, padding: int) -> np.ndarray:
    """Direct-summation cross-correlation for a single (H, W, Cin) image."""
    h, w, cin = x.shape
    kh, kw, _, cout = kernel.shape
    xp = np.zeros((h + 2 * padding, w + 2 * padding, cin), dtype=x.dtype)
    xp[padding : padding + h, padding : padding + w] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((oh, ow, cout), dtype=x.dtype)
    for r in range(oh):
        for c in range(ow):
            for co in range(cout):
                acc = 0.0
                for i in range(kh):
                    for j in range(kw):
                        for ci in range(cin):
                            acc += xp[r * stride + i, c * stride + j, ci] * kernel[i, j, ci, co]
                out[r, c, co] = acc + (bias[co] if bias is not None else 0.0)
    return out


def group_slot_of(mode: str, r: int, c: int, size: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Definitional (group, slot) coordinates of one grid position."""
    if mode == "sda":
        return (r // size, c // size), (r % size, c % size)
    return (r % size, c % size), (r // size, c // size)


def walk_layout(mode: str, height: int, width: int, size: int):
    """Enumerate every position's (group id, slot id) by brute force."""
    hp = math.ceil(height / size) * size
    wp = math.ceil(width / size) * size
    if mode == "sda":
        groups_w, slots_w = wp // size, size
    else:
        groups_w, slots_w = size, wp // size
    mapping = {}
    for r in range(height):
        for c in range(width):
            (gr, gc), (sr, sc) = group_slot_of(mode, r, c, size)
            mapping[(r, c)] = (gr * groups_w + gc, sr * slots_w + sc)
    return mapping


def masked_full_attention(
    x: np.ndarray,
    attn,
    mode: str,
    size: int,
    bias_provider=None,
) -> np.ndarray:
    """Full-grid attention with cross-group logits forced to -inf.

    Loops over every (query, key) token pair per head, using the grouped
    attention layer's weight values directly; group membership and slot
    offsets come from the definitional formulas above. The bias comes from
    ``dpb_offset_row`` of each distinct slot offset, evaluated once per call.
    """
    n, height, width, dim = x.shape
    heads = attn.heads
    d = dim // heads
    flat = x.reshape(n, height * width, dim)
    q = flat @ attn.q_proj.w.data + attn.q_proj.b.data
    k = flat @ attn.k_proj.w.data + attn.k_proj.b.data
    v = flat @ attn.v_proj.w.data + attn.v_proj.b.data
    out = np.zeros_like(x)
    bias_of = {}
    for b in range(n):
        for i in range(height * width):
            ri, ci = divmod(i, width)
            gi, si = group_slot_of(mode, ri, ci, size)
            mixed = np.zeros(dim, dtype=x.dtype)
            for head in range(heads):
                sl = slice(head * d, (head + 1) * d)
                logits = np.full(height * width, -np.inf)
                for j in range(height * width):
                    rj, cj = divmod(j, width)
                    gj, sj = group_slot_of(mode, rj, cj, size)
                    if gj != gi:
                        continue
                    bias = 0.0
                    if bias_provider is not None:
                        offset = (si[0] - sj[0], si[1] - sj[1])
                        if offset not in bias_of:
                            with no_grad():
                                bias_of[offset] = dpb_offset_row(bias_provider, *offset).data[0]
                        bias = float(bias_of[offset][head])
                    logits[j] = float(q[b, i, sl] @ k[b, j, sl]) / math.sqrt(d) + bias
                m = logits.max()
                p = np.exp(logits - m)
                p /= p.sum()
                mixed[sl] = (p[:, None] * v[b, :, sl]).sum(axis=0)
            out[b, ri, ci, :] = mixed @ attn.out_proj.w.data + attn.out_proj.b.data
    return out


def pooled_full_attention(x: np.ndarray, attn, reduction: int) -> np.ndarray:
    """Full-grid attention whose keys and values come from the grid
    zero-padded to a multiple of ``reduction`` and averaged over each
    reduction x reduction window.

    Pools by looping over every window cell (a padded cell adds zero but
    still counts in the mean), then loops over every query token and head
    with a softmax over all pooled keys, using the layer's projection
    weight values directly.
    """
    n, height, width, dim = x.shape
    r = reduction
    ph, pw = math.ceil(height / r), math.ceil(width / r)
    pooled = np.zeros((n, ph, pw, dim), dtype=x.dtype)
    for b in range(n):
        for i in range(ph):
            for j in range(pw):
                for di in range(r):
                    for dj in range(r):
                        if i * r + di < height and j * r + dj < width:
                            pooled[b, i, j] += x[b, i * r + di, j * r + dj]
                pooled[b, i, j] /= r * r
    heads = attn.heads
    d = dim // heads
    q = x.reshape(n, height * width, dim) @ attn.q_proj.w.data + attn.q_proj.b.data
    kv = pooled.reshape(n, ph * pw, dim)
    k = kv @ attn.k_proj.w.data + attn.k_proj.b.data
    v = kv @ attn.v_proj.w.data + attn.v_proj.b.data
    out = np.zeros_like(x)
    for b in range(n):
        for i in range(height * width):
            mixed = np.zeros(dim, dtype=x.dtype)
            for head in range(heads):
                sl = slice(head * d, (head + 1) * d)
                logits = k[b, :, sl] @ q[b, i, sl] / math.sqrt(d)
                p = np.exp(logits - logits.max())
                p /= p.sum()
                mixed[sl] = p @ v[b, :, sl]
            out[b, i // width, i % width, :] = mixed @ attn.out_proj.w.data + attn.out_proj.b.data
    return out


def dpb_offset_row(dpb, dx: float, dy: float):
    """Dynamic-position-bias row (1, heads) of one raw signed offset.

    Runs the provider's MLP on the tape from the module's own parameter
    tensors, with one ``matmul + b`` per layer, never through the provider's
    batched evaluation code.
    """

    def linear(fc, x):
        return T.matmul(x, fc.w) + fc.b

    def norm(ln, x):
        return T.layer_norm(x, ln.gamma, ln.beta, ln.eps)

    x = linear(dpb.fc_in, Tensor(np.array([[dx, dy]], dtype=dpb.dtype)))
    for ln, fc in ((dpb.norm1, dpb.fc1), (dpb.norm2, dpb.fc2)):
        y = linear(fc, T.relu(norm(ln, x)))
        x = x + y if dpb.residual else y
    return linear(dpb.fc_out, T.relu(norm(dpb.norm3, x)))


def dpb_table_per_offset(dpb, slots_h: int, slots_w: int):
    """Dynamic-position-bias table built one offset at a time.

    Stacks ``dpb_offset_row`` of every (dx, dy) offset with ``concat``: the
    per-offset path the batched table must match bitwise, values and
    parameter gradients alike.
    """
    rows = [dpb_offset_row(dpb, dx, dy)
            for dx in range(1 - slots_h, slots_h) for dy in range(1 - slots_w, slots_w)]
    return T.concat(rows, axis=0).reshape(2 * slots_h - 1, 2 * slots_w - 1, dpb.heads)


def dpb_bias_matrix_per_offset(dpb, slots_h: int, slots_w: int):
    """Slot-pair bias (n, n, heads) gathered from ``dpb_table_per_offset``;
    pair (i, j) reads offset (xi - xj, yi - yj) by the definitional formula."""
    n = slots_h * slots_w
    tw = 2 * slots_w - 1
    idx = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            (xi, yi), (xj, yj) = divmod(i, slots_w), divmod(j, slots_w)
            idx[i, j] = (xi - xj + slots_h - 1) * tw + (yi - yj + slots_w - 1)
    table = dpb_table_per_offset(dpb, slots_h, slots_w)
    return T.index_rows(table.reshape((2 * slots_h - 1) * tw, dpb.heads), idx)


def trunc_normal_rescan(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    """Truncated normal by whole-tensor rescans: every round re-masks the
    full tensor and redraws each entry outside +/- 2 std, in flat order."""
    out = rng.standard_normal(shape) * std
    bound = 2.0 * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > bound
    return out.astype(dtype)


def scaled_backward(op, factor: float = 1.05):
    """``op`` with a deliberately wrong derivative: each output node's backward
    rule receives ``factor`` times its upstream gradient. Installed with
    ``monkeypatch``, it is the live negative control for gradient checking."""

    def wrapped(*args, **kwargs):
        out = op(*args, **kwargs)
        node = out._node
        if node is not None:
            rule = node._backward
            node._backward = lambda g: rule(g * factor)
        return out

    return wrapped


def param_total(module) -> int:
    """Number of parameter entries of ``module``, summed over its registry."""
    return sum(p.size for _, p in module.named_parameters())


def linear_probe_accuracy(train_x, train_y, test_x, test_y, ridge: float = 1e-2) -> float:
    """Held-out accuracy of a ridge-regression probe on raw pixels.

    Solved in the dual so the pixel dimension never materializes as a
    Gram matrix: alpha = (X X^T + ridge I)^-1 Y, predictions X* X^T alpha.
    """
    x = train_x.reshape(len(train_x), -1).astype(np.float64)
    xt = test_x.reshape(len(test_x), -1).astype(np.float64)
    mu = x.mean(axis=0)
    x = x - mu
    xt = xt - mu
    onehot = np.eye(int(train_y.max()) + 1)[train_y]
    gram = x @ x.T + ridge * len(x) * np.eye(len(x))
    alpha = np.linalg.solve(gram, onehot)
    scores = xt @ x.T @ alpha
    return float((scores.argmax(axis=1) == test_y).mean())
