"""Minimal dense-tensor engine with tape-based reverse-mode autodiff.

Everything is float64. Forward ops are plain numpy; each op that sees a
grad-requiring input appends a backward closure to the active tape.
``backward`` replays the tape in exact reverse order of recording.

Gradients accumulate: repeated backward calls without ``zero_grad`` /
``reset_tape`` add up. Training code resets the tape once per step.

Importing this module sets two process-wide glibc malloc thresholds (see
``_keep_freed_heap_pages``): a training step frees its whole tape at once,
and with glibc's defaults the next step would fault the same pages in again.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf


# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Blocks up to 32 MB (the largest glibc accepts) come from the heap, not
# from mmap, so freeing one does not hand its pages back to the kernel.
_MMAP_THRESHOLD_BYTES = 32 << 20
# Above the heap a training step uses (about 150 MB at desk shape), so
# freeing the tape does not trim the heap top.
_TRIM_THRESHOLD_BYTES = 512 << 20


def _keep_freed_heap_pages():
    """Keep freed heap memory in the process for the next step's arrays.

    Both thresholds are set: fixing only the trim threshold also turns off
    glibc's dynamic mmap threshold, and large arrays then fault more, not
    less. A no-op where the C library has no ``mallopt`` (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no handle (Windows), no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_heap_pages()


class ShapeError(ValueError):
    """Dimension / rank mismatch between operands."""


class ConfigError(ValueError):
    """Invalid configuration value (e.g. even conv kernel)."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def accum_grad(self, g, fresh=False):
        """Add g to .grad. `fresh` says g is a new array of this shape that
        nothing else holds, so the first gradient keeps it without a copy."""
        if self.grad is not None:
            self.grad += g
        elif fresh and g.shape == self.data.shape:
            self.grad = g
        else:
            self.grad = np.array(np.broadcast_to(g, self.data.shape))

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ComputationTape:
    """Ordered record of executed ops; replayed backward for gradients."""

    def __init__(self):
        self.ops = []  # list of (output Tensor, backward closure)

    def append(self, out, fn):
        self.ops.append((out, fn))

    def clear(self):
        self.ops.clear()

    def __len__(self):
        return len(self.ops)


_TAPE = ComputationTape()
_grad_enabled = True


def active_tape():
    return _TAPE


def reset_tape():
    _TAPE.clear()


@contextmanager
def no_grad():
    """Disable tape recording (evaluation / oracle passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(*inputs):
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _make(data, *inputs):
    return Tensor(data, requires_grad=_needs_grad(*inputs))


def _record(out, fn):
    if out.requires_grad:
        _TAPE.append(out, fn)


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def backward(out):
    """Populate .grad of every reachable requires_grad leaf of a scalar."""
    if out.size != 1:
        raise ShapeError(f"backward requires a scalar output, got shape {out.shape}")
    out.accum_grad(np.ones_like(out.data), fresh=True)
    for node, fn in reversed(_TAPE.ops):
        if node.grad is not None:
            fn(node.grad)


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data + b.data, a, b)

    def bwd(g):
        if a.requires_grad:
            a.accum_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accum_grad(_unbroadcast(g, b.data.shape))

    _record(out, bwd)
    return out


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data * b.data, a, b)

    def bwd(g):
        if a.requires_grad:
            a.accum_grad(_unbroadcast(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            b.accum_grad(_unbroadcast(g * a.data, b.data.shape), fresh=True)

    _record(out, bwd)
    return out


def scale(a, c):
    c = float(c)
    out = _make(a.data * c, a)

    def bwd(g):
        a.accum_grad(g * c, fresh=True)

    _record(out, bwd)
    return out


def mul_const(a, c):
    """Elementwise multiply by a constant array (dropout masks)."""
    c = np.asarray(c, dtype=np.float64)
    out = _make(a.data * c, a)

    def bwd(g):
        a.accum_grad(g * c, fresh=True)

    _record(out, bwd)
    return out


def reshape(a, shape):
    out = _make(a.data.reshape(shape).copy(), a)

    def bwd(g):
        a.accum_grad(g.reshape(a.data.shape))

    _record(out, bwd)
    return out


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), *tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accum_grad(g[tuple(idx)])

    _record(out, bwd)
    return out


def slice_axis(a, axis, start, stop):
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = _make(a.data[idx].copy(), a)

    def bwd(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        a.accum_grad(buf, fresh=True)

    _record(out, bwd)
    return out


def log_softmax_rows(x):
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax_rows expects a matrix, got shape {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    y = z - lse
    out = _make(y, x)
    sm = np.exp(y)

    def bwd(g):
        x.accum_grad(g - sm * g.sum(axis=1, keepdims=True), fresh=True)

    _record(out, bwd)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then affine. Leading axes are batch."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    xd = x.data.reshape(-1, x.shape[-1])
    n = xd.shape[1]
    # one centring pass for the variance and xhat, in np.mean / np.var's
    # order: sum, then divide by the count
    xc = xd - xd.sum(axis=1, keepdims=True) / n
    var = np.square(xc).sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, inv, out=xc)
    y = gamma.data * xhat + beta.data
    out = _make(y.reshape(x.data.shape), x, gamma, beta)

    def bwd(g):
        gg = g.reshape(xd.shape)
        if gamma.requires_grad:
            gamma.accum_grad((gg * xhat).sum(axis=0), fresh=True)
        if beta.requires_grad:
            beta.accum_grad(gg.sum(axis=0), fresh=True)
        if x.requires_grad:
            dxhat = gg * gamma.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
            )
            x.accum_grad(dx.reshape(x.data.shape), fresh=True)

    _record(out, bwd)
    return out


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x):
    """Exact-CDF GeLU: x * Phi(x) with the Gaussian CDF, not the tanh form."""
    phi = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out = _make(x.data * phi, x)

    def bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        x.accum_grad(g * (phi + x.data * pdf), fresh=True)

    _record(out, bwd)
    return out


def _logistic(x):
    # exp overflows to inf below x = -709, where 1 / (1 + inf) is exactly 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(x):
    s = _logistic(x.data)
    out = _make(s, x)

    def bwd(g):
        x.accum_grad(g * s * (1.0 - s), fresh=True)

    _record(out, bwd)
    return out


def swish(x):
    s = _logistic(x.data)
    out = _make(x.data * s, x)

    def bwd(g):
        x.accum_grad(g * (s + x.data * s * (1.0 - s)), fresh=True)

    _record(out, bwd)
    return out


def depthwise_conv1d(x, kernel):
    """Per-channel 1-D convolution with zero 'same' padding.

    x: (..., T, D), kernel: (K, D), K odd; output matches x.
    """
    if x.data.ndim < 2 or kernel.data.ndim != 2:
        raise ShapeError(
            f"depthwise_conv1d expects matrices, got {x.shape} and {kernel.shape}"
        )
    K, D = kernel.data.shape
    if K % 2 == 0:
        raise ConfigError(f"depthwise conv kernel size must be odd, got {K}")
    if x.shape[-1] != D:
        raise ShapeError(f"channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    T = x.shape[-2]
    lead = x.data.shape[:-2]
    pad = K // 2
    xp = np.zeros(lead + (T + K - 1, D))
    xp[..., pad : pad + T, :] = x.data
    y = np.zeros(x.data.shape)
    for k in range(K):
        y += xp[..., k : k + T, :] * kernel.data[k]
    out = _make(y, x, kernel)

    def bwd(g):
        if x.requires_grad:
            gp = np.zeros(lead + (T + K - 1, D))
            for k in range(K):
                gp[..., k : k + T, :] += g * kernel.data[k]
            x.accum_grad(gp[..., pad : pad + T, :], fresh=True)
        if kernel.requires_grad:
            axes = tuple(range(g.ndim - 1))
            dk = np.empty((K, D))
            for k in range(K):
                dk[k] = (g * xp[..., k : k + T, :]).sum(axis=axes)
            kernel.accum_grad(dk, fresh=True)

    _record(out, bwd)
    return out


def mean_over_time(x):
    """Arithmetic mean along the token (second-to-last) axis."""
    if x.data.ndim < 2:
        raise ShapeError(f"mean_over_time expects a matrix, got shape {x.shape}")
    n = x.shape[-2]
    if n == 0:
        raise ShapeError("mean_over_time on an empty token axis")
    out = _make(x.data.mean(axis=-2), x)

    def bwd(g):
        x.accum_grad(np.expand_dims(g, -2) / n)

    _record(out, bwd)
    return out


def sum_all(x):
    out = _make(np.asarray(x.data.sum()), x)

    def bwd(g):
        x.accum_grad(g)

    _record(out, bwd)
    return out


def affine(x, w, b):
    """Fused x @ w + b with b broadcast over rows; one tape node.

    x may carry leading batch axes: (..., N, Din) @ (Din, Dout).
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape} and {w.shape}")
    din, dout = w.shape
    out = _make(x.data @ w.data + b.data, x, w, b)

    def bwd(g):
        if x.requires_grad:
            x.accum_grad(g @ w.data.T, fresh=True)
        if w.requires_grad:
            w.accum_grad(x.data.reshape(-1, din).T @ g.reshape(-1, dout), fresh=True)
        if b.requires_grad:
            b.accum_grad(g.reshape(-1, dout).sum(axis=0), fresh=True)

    _record(out, bwd)
    return out


def expand(a, shape):
    """Materialize a broadcast of `a` to `shape`; gradient sums back."""
    out = _make(np.broadcast_to(a.data, shape).copy(), a)

    def bwd(g):
        a.accum_grad(_unbroadcast(g, a.data.shape))

    _record(out, bwd)
    return out


# Attention is computed for blocks of (leading index, head) pairs whose
# S x S scores take up to about this many bytes, so each block stays in a
# core's L2 cache from the score matmul to the weights times V.
_ATTN_BLOCK_BYTES = 1 << 20


def mhsa_core(q, k, v, heads, trace=None):
    """Fused scaled-dot-product attention over H contiguous head slices.

    q, k, v: (..., S, D) with D divisible by `heads`; returns the same-shape
    concatenation of softmax(Qi Ki^T / sqrt(d)) Vi. One tape node for the
    whole head loop; `trace` collects the row-stochastic S x S weights,
    one entry per (leading index, head) in row-major order. Only a graph
    that needs gradients keeps every head's weights for backward.
    """
    if q.data.ndim < 2:
        raise ShapeError(f"mhsa_core expects (..., S, D), got shape {q.shape}")
    S, D = q.shape[-2], q.shape[-1]
    if D % heads != 0:
        raise ShapeError(f"attention width {D} not divisible by {heads} heads")
    d = D // heads
    inv_sqrt_d = 1.0 / np.sqrt(d)
    lead = q.data.shape[:-2]
    n = math.prod(lead) * heads
    step = max(1, _ATTN_BLOCK_BYTES // (8 * S * S))
    blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def by_head(arr):  # (..., S, H*d) -> (N, S, d), N = leading size * H
        split = arr.reshape(lead + (S, heads, d)).swapaxes(-3, -2)
        return np.ascontiguousarray(split).reshape(n, S, d)

    def from_head(arr):  # (N, S, d) -> (..., S, H*d)
        return arr.reshape(lead + (heads, S, d)).swapaxes(-3, -2).reshape(q.shape)

    q3, k3, v3 = by_head(q.data), by_head(k.data), by_head(v.data)
    keep = _needs_grad(q, k, v)
    a = np.empty((n if keep else min(step, n), S, S))
    o3 = np.empty((n, S, d))
    for blk in blocks:
        ab = a[blk] if keep else a[: blk.stop - blk.start]
        np.matmul(q3[blk], k3[blk].swapaxes(-1, -2), out=ab)
        ab *= inv_sqrt_d
        ab -= ab.max(axis=-1, keepdims=True)
        np.exp(ab, out=ab)
        ab /= ab.sum(axis=-1, keepdims=True)
        if trace is not None:
            trace.extend({"attn_len": S, "weights": w.copy()} for w in ab)
        np.matmul(ab, v3[blk], out=o3[blk])
    out = _make(from_head(o3), q, k, v)

    def bwd(g):
        go3 = by_head(g)
        dq3, dk3, dv3 = (np.empty((n, S, d)) for _ in range(3))
        da = np.empty((min(step, n), S, S))
        rows = np.empty_like(da)
        for blk in blocks:
            ab, m = a[blk], blk.stop - blk.start
            ds = da[:m]
            np.matmul(go3[blk], v3[blk].swapaxes(-1, -2), out=ds)
            ds -= np.multiply(ds, ab, out=rows[:m]).sum(axis=-1, keepdims=True)
            ds *= ab
            np.matmul(ds, k3[blk], out=dq3[blk])
            np.matmul(ds.swapaxes(-1, -2), q3[blk], out=dk3[blk])
            np.matmul(ab.swapaxes(-1, -2), go3[blk], out=dv3[blk])
        dq3 *= inv_sqrt_d
        dk3 *= inv_sqrt_d
        for t, dt in ((q, dq3), (k, dk3), (v, dv3)):
            if t.requires_grad:
                t.accum_grad(from_head(dt), fresh=True)

    _record(out, bwd)
    return out
