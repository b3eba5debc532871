"""Minimal dense-tensor engine with tape-based reverse-mode autodiff.

Everything is float64. Forward ops are plain numpy; each op that sees a
grad-requiring input appends a backward closure to the active tape.
``backward`` replays the tape in exact reverse order of recording.

Gradients accumulate: repeated backward calls without ``zero_grad`` /
``reset_tape`` add up. Training code resets the tape once per step.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf


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

    def accum_grad(self, g):
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape))
        else:
            self.grad += g

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


def _make(data, *inputs):
    rg = _grad_enabled and any(t.requires_grad for t in inputs)
    return Tensor(data, requires_grad=rg)


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
    out.accum_grad(np.ones_like(out.data))
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
            a.accum_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accum_grad(_unbroadcast(g * a.data, b.data.shape))

    _record(out, bwd)
    return out


def scale(a, c):
    c = float(c)
    out = _make(a.data * c, a)

    def bwd(g):
        a.accum_grad(g * c)

    _record(out, bwd)
    return out


def mul_const(a, c):
    """Elementwise multiply by a constant array (dropout masks)."""
    c = np.asarray(c, dtype=np.float64)
    out = _make(a.data * c, a)

    def bwd(g):
        a.accum_grad(g * c)

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
        a.accum_grad(buf)

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
        x.accum_grad(g - sm * g.sum(axis=1, keepdims=True))

    _record(out, bwd)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then affine. Leading axes are batch."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    xd = x.data.reshape(-1, x.shape[-1])
    mu = xd.mean(axis=1, keepdims=True)
    var = xd.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    y = gamma.data * xhat + beta.data
    out = _make(y.reshape(x.data.shape), x, gamma, beta)

    def bwd(g):
        gg = g.reshape(xd.shape)
        if gamma.requires_grad:
            gamma.accum_grad((gg * xhat).sum(axis=0))
        if beta.requires_grad:
            beta.accum_grad(gg.sum(axis=0))
        if x.requires_grad:
            dxhat = gg * gamma.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
            )
            x.accum_grad(dx.reshape(x.data.shape))

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
        x.accum_grad(g * (phi + x.data * pdf))

    _record(out, bwd)
    return out


def sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = _make(s, x)

    def bwd(g):
        x.accum_grad(g * s * (1.0 - s))

    _record(out, bwd)
    return out


def swish(x):
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = _make(x.data * s, x)

    def bwd(g):
        x.accum_grad(g * (s + x.data * s * (1.0 - s)))

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
            x.accum_grad(gp[..., pad : pad + T, :])
        if kernel.requires_grad:
            axes = tuple(range(g.ndim - 1))
            dk = np.empty((K, D))
            for k in range(K):
                dk[k] = (g * xp[..., k : k + T, :]).sum(axis=axes)
            kernel.accum_grad(dk)

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
        gx = np.expand_dims(g, -2) / n
        x.accum_grad(np.broadcast_to(gx, x.data.shape).copy())

    _record(out, bwd)
    return out


def sum_all(x):
    out = _make(np.asarray(x.data.sum()), x)

    def bwd(g):
        x.accum_grad(np.broadcast_to(g, x.data.shape).copy())

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
            x.accum_grad(g @ w.data.T)
        if w.requires_grad:
            w.accum_grad(x.data.reshape(-1, din).T @ g.reshape(-1, dout))
        if b.requires_grad:
            b.accum_grad(g.reshape(-1, dout).sum(axis=0))

    _record(out, bwd)
    return out


def expand(a, shape):
    """Materialize a broadcast of `a` to `shape`; gradient sums back."""
    out = _make(np.broadcast_to(a.data, shape).copy(), a)

    def bwd(g):
        a.accum_grad(_unbroadcast(g, a.data.shape))

    _record(out, bwd)
    return out


def mhsa_core(q, k, v, heads, trace=None):
    """Fused scaled-dot-product attention over H contiguous head slices.

    q, k, v: (..., S, D) with D divisible by `heads`; returns the same-shape
    concatenation of softmax(Qi Ki^T / sqrt(d)) Vi. One tape node for the
    whole head loop; `trace` collects the row-stochastic S x S weights,
    one entry per (leading index, head) in row-major order.
    """
    if q.data.ndim < 2:
        raise ShapeError(f"mhsa_core expects (..., S, D), got shape {q.shape}")
    S, D = q.shape[-2], q.shape[-1]
    if D % heads != 0:
        raise ShapeError(f"attention width {D} not divisible by {heads} heads")
    d = D // heads
    inv_sqrt_d = 1.0 / np.sqrt(d)
    split = q.data.shape[:-1] + (heads, d)

    def by_head(arr):  # (..., S, H, d) -> (..., H, S, d)
        return np.ascontiguousarray(arr.reshape(split).swapaxes(-3, -2))

    q3, k3, v3 = by_head(q.data), by_head(k.data), by_head(v.data)
    s = q3 @ k3.swapaxes(-1, -2) * inv_sqrt_d
    s -= s.max(axis=-1, keepdims=True)
    a = np.exp(s)
    a /= a.sum(axis=-1, keepdims=True)
    if trace is not None:
        for w in a.reshape(-1, S, S):
            trace.append({"attn_len": S, "weights": w.copy()})
    out = _make((a @ v3).swapaxes(-3, -2).reshape(q.data.shape), q, k, v)

    def bwd(g):
        go3 = by_head(g)
        da = go3 @ v3.swapaxes(-1, -2)
        ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a
        if q.requires_grad:
            q.accum_grad((ds @ k3 * inv_sqrt_d).swapaxes(-3, -2).reshape(g.shape))
        if k.requires_grad:
            k.accum_grad(
                (ds.swapaxes(-1, -2) @ q3 * inv_sqrt_d)
                .swapaxes(-3, -2).reshape(g.shape)
            )
        if v.requires_grad:
            v.accum_grad((a.swapaxes(-1, -2) @ go3).swapaxes(-3, -2).reshape(g.shape))

    _record(out, bwd)
    return out
