"""Minimal dense-tensor engine with tape-based reverse-mode autodiff.

Everything is float64. Forward ops are plain numpy; each op that sees a
grad-requiring input appends a backward closure to the active tape.
``backward`` replays the tape in exact reverse order of recording.

Leaf gradients accumulate: repeated backward calls add up until the caller
zeros ``.grad`` in place (``Model.zero_grads``). An intermediate gradient is
taken off its node just before that node's backward runs, so it lives only
until its consumers have used it; a second ``backward`` on the same tape
recomputes them. Training code resets
the tape once per step.

The tape and the grad flag are per thread. One pool of worker threads,
one per CPU usable at import or fork, runs all parallel work through
``map_workers``. ``shard_rows`` cuts a batch into ``MICRO_BATCHES`` fixed
contiguous micro-batches, each with a tape of its own; the caller gives each
its own parameters, so no op's backward knows about micro-batches, and
results do not depend on the CPU count.

Importing this module sets process-wide glibc malloc options (see
``_keep_freed_heap_pages``): a training step frees its whole tape at once,
and with glibc's defaults the next step would fault the same pages in again.
It also pins numpy's OpenBLAS to one thread (``_pin_blas_to_one_thread``).
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf


# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# Blocks up to 32 MB (the largest glibc accepts) come from the heap, not
# from mmap, so freeing one does not hand its pages back to the kernel.
_MMAP_THRESHOLD_BYTES = 32 << 20
# Never trim the heap top: a step frees its whole tape, and a trimmed top
# faults back in at the next step (140k pages per step at D=144, L=4, B=20,
# T=200 with a 512 MB threshold).
_TRIM_THRESHOLD_BYTES = -1


def _keep_freed_heap_pages():
    """Keep freed heap memory in the process for the next step's arrays.

    Both thresholds are set: fixing only the trim threshold also turns off
    glibc's dynamic mmap threshold, and large arrays then fault more, not
    less. One arena serves every thread, so pool workers reuse the pages
    the main thread freed instead of growing arenas of their own. A no-op
    where the C library has no ``mallopt`` (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no handle (Windows), no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_heap_pages()


def _pin_blas_to_one_thread():
    """Micro-batches and scoring chunks already use every core, and BLAS
    threads on top of them only contend. Pinned at import, not at the
    first parallel call: some products (q k^T at S=255, d=8) differ in the
    last bit between one and two OpenBLAS threads, so a B=1 score computed
    before the first parallel call would not match the same score computed
    after it. A no-op where numpy does not bundle scipy-openblas."""
    try:
        from numpy._core import _multiarray_umath
        set_threads = ctypes.CDLL(_multiarray_umath.__file__) \
            .scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = None
    set_threads(1)


_pin_blas_to_one_thread()


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


class _ThreadState(threading.local):
    """Per-thread autodiff state: the tape ops record to, the grad flag,
    and whether this thread is a pool worker (`in_worker`)."""

    def __init__(self):
        self.tape = ComputationTape()
        self.grad_enabled = True
        self.in_worker = False


_state = _ThreadState()


def active_tape():
    return _state.tape


def reset_tape():
    _state.tape.clear()


@contextmanager
def no_grad():
    """Disable tape recording in this thread (evaluation / oracle passes)."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(*inputs):
    return _state.grad_enabled and any(t.requires_grad for t in inputs)


def _make(data, *inputs):
    return Tensor(data, requires_grad=_needs_grad(*inputs))


def _record(out, fn):
    if out.requires_grad:
        _state.tape.append(out, fn)


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _accum_unbroadcast(t, g, fresh=False):
    """Add g, summed back to t's shape after numpy broadcasting, to t.grad."""
    t.accum_grad(_unbroadcast(g, t.data.shape), fresh=fresh)


def _replay(tape):
    for node, fn in reversed(tape.ops):
        g, node.grad = node.grad, None
        if g is not None:
            fn(g)


def backward(out):
    """Populate .grad of every reachable requires_grad leaf of a scalar."""
    if out.size != 1:
        raise ShapeError(f"backward requires a scalar output, got shape {out.shape}")
    out.accum_grad(np.ones_like(out.data), fresh=True)
    _replay(_state.tape)


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data + b.data, a, b)

    def bwd(g):
        if a.requires_grad:
            _accum_unbroadcast(a, g)
        if b.requires_grad:
            _accum_unbroadcast(b, g)

    _record(out, bwd)
    return out


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data * b.data, a, b)

    def bwd(g):
        if a.requires_grad:
            _accum_unbroadcast(a, g * b.data, fresh=True)
        if b.requires_grad:
            _accum_unbroadcast(b, g * a.data, fresh=True)

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
    sq = np.square(xc)
    var = sq.sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, inv, out=xc)
    y = np.multiply(gamma.data, xhat, out=sq)
    y += beta.data
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


def _one_plus_exp_neg(x):
    # exp overflows to inf below x = -709, where 1 / (1 + inf) is exactly 0
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return s


def _logistic(x):
    s = _one_plus_exp_neg(x)
    return np.divide(1.0, s, out=s)


def sigmoid(x):
    s = _logistic(x.data)
    out = _make(s, x)

    def bwd(g):
        x.accum_grad(g * s * (1.0 - s), fresh=True)

    _record(out, bwd)
    return out


def swish(x):
    """x / (1 + e^-x); the logistic is built only for the tape."""
    s = _one_plus_exp_neg(x.data)
    out = _make(x.data / s, x)
    if not out.requires_grad:
        return out
    np.divide(1.0, s, out=s)

    def bwd(g):
        x.accum_grad(g * (s + x.data * s * (1.0 - s)), fresh=True)

    _record(out, bwd)
    return out


def _pad_rows(arr, K):
    """(..., T, D) -> (..., T + K - 1, D), with K // 2 zero rows each side."""
    T = arr.shape[-2]
    padded = np.zeros(arr.shape[:-2] + (T + K - 1, arr.shape[-1]))
    padded[..., K // 2 : K // 2 + T, :] = arr
    return padded


def _conv_taps(padded, kernel, mirror=False):
    """out_t = sum_k padded_{t+k} kernel_k (mirrored: padded_{t+K-1-k}),
    over a (..., T, D, K) window view; the K taps are summed in kernel
    order, as a loop over them would."""
    windows = sliding_window_view(padded, len(kernel), axis=-2)
    return np.einsum("...tdk,kd->...td", windows[..., ::-1] if mirror else windows, kernel)


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
    xp = _pad_rows(x.data, K)
    out = _make(_conv_taps(xp, kernel.data), x, kernel)

    def bwd(g):
        if x.requires_grad:  # dx_t = sum_k g_{t+K//2-k} w_k
            x.accum_grad(_conv_taps(_pad_rows(g, K), kernel.data, mirror=True), fresh=True)
        if kernel.requires_grad:
            axes = tuple(range(g.ndim - 1))
            dk = np.empty((K, D))
            tap = np.empty(g.shape)  # one product buffer for every tap
            for k in range(K):
                dk[k] = np.multiply(g, xp[..., k : k + T, :], out=tap).sum(axis=axes)
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
    y = x.data @ w.data
    y += b.data
    out = _make(y, x, w, b)

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
        _accum_unbroadcast(a, g)

    _record(out, bwd)
    return out


# Attention is computed for blocks of (leading index, head) pairs whose
# S x S scores take up to about this many bytes, so each block stays in a
# core's L2 cache from the score matmul to the weights times V.
_ATTN_BLOCK_BYTES = 1 << 20
# A (leading index, head) pair whose scaled logits are at most this in
# magnitude takes exp without the softmax max shift: e^300 times any row
# length stays far below overflow, and e^-300 far above the smallest
# normal double, so no row sum overflows or flushes to zero.
_ATTN_NO_SHIFT_LOGIT = 300.0


def _max_sq_norm(a):
    """(N, S, d) -> (N,): the largest squared row norm of each slice."""
    return np.einsum("nsd,nsd->ns", a, a).max(axis=-1)


def mhsa_core(q, k, v, heads, trace=None):
    """Fused scaled-dot-product attention over H contiguous head slices.

    q: (..., Sq, D) and k, v: (..., S, D), with D divisible by `heads`;
    returns the (..., Sq, D) concatenation of softmax(Qi Ki^T / sqrt(d)) Vi.
    Sq < S computes only the leading query rows a caller reads. One tape
    node for the whole head loop; `trace` collects the row-stochastic
    Sq x S weights, one entry per (leading index, head) in row-major order.

    Scores are held keys-major, E = K (Q / sqrt(d))^T. The softmax max, a
    reduction across rows, is subtracted only in a (leading index, head)
    slice where it could matter: by Cauchy-Schwarz every logit of a slice
    is at most max |q_i / sqrt(d)| max |k_j| in magnitude, and below
    _ATTN_NO_SHIFT_LOGIT exp is safe unshifted. The choice is per slice, so
    a result never depends on the other slices of its batch. After exp, one
    matmul E^T [V | 1] gives the unnormalised outputs and their row sums,
    and only the Sq x d outputs are divided (deferred normalisation, as in
    FlashAttention). The normalised weights are built only for backward,
    which keeps every head's, or for `trace`; both modes compute the
    outputs the same way, bit for bit. Backward takes the softmax row term
    sum_j dP_ij P_ij as dO_i . O_i, FlashAttention's identity.
    """
    if q.data.ndim < 2:
        raise ShapeError(f"mhsa_core expects (..., S, D), got shape {q.shape}")
    Sq, D = q.shape[-2], q.shape[-1]
    S = k.shape[-2]
    if k.shape != v.shape or k.shape[:-2] != q.shape[:-2] or k.shape[-1] != D:
        raise ShapeError(f"mhsa_core: queries {q.shape} do not fit keys {k.shape} "
                         f"and values {v.shape}")
    if D % heads != 0:
        raise ShapeError(f"attention width {D} not divisible by {heads} heads")
    d = D // heads
    inv_sqrt_d = 1.0 / np.sqrt(d)
    lead = q.data.shape[:-2]
    n = math.prod(lead) * heads
    step = max(1, _ATTN_BLOCK_BYTES // (8 * S * Sq))
    blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def by_head(arr):  # (..., R, H*d) -> (N, R, d), N = leading size * H
        R = arr.shape[-2]
        split = arr.reshape(lead + (R, heads, d)).swapaxes(-3, -2)
        return np.ascontiguousarray(split).reshape(n, R, d)

    def from_head(arr):  # (N, R, d) -> (..., R, H*d)
        R = arr.shape[-2]
        return arr.reshape(lead + (heads, R, d)).swapaxes(-3, -2).reshape(lead + (R, D))

    qs, k3 = by_head(q.data) * inv_sqrt_d, by_head(k.data)
    # squared norms, so no sqrt; a NaN bound keeps the shift
    shift = ~(_max_sq_norm(qs) * _max_sq_norm(k3) <= _ATTN_NO_SHIFT_LOGIT ** 2)
    v1 = np.empty((n, S, d + 1))  # [V | 1]
    v1[..., :d] = by_head(v.data)
    v1[..., d] = 1.0
    keep = _needs_grad(q, k, v)
    e = np.empty((n if keep else min(step, n), S, Sq))  # e[i, key, query]
    acc = np.empty((n, Sq, d + 1))  # [unnormalised outputs | row sums]
    for blk in blocks:
        eb = e[blk] if keep else e[: blk.stop - blk.start]
        np.matmul(k3[blk], qs[blk].swapaxes(-1, -2), out=eb)
        for i in np.flatnonzero(shift[blk]):
            eb[i] -= eb[i].max(axis=0)
        np.exp(eb, out=eb)
        np.matmul(eb.swapaxes(-1, -2), v1[blk], out=acc[blk])
        if keep or trace is not None:
            eb /= acc[blk, :, d:].swapaxes(-1, -2)  # the weights, keys-major
        if trace is not None:
            trace.extend({"attn_len": S, "weights": w.T.copy()} for w in eb)
    o3 = acc[..., :d]
    o3 /= acc[..., d:]
    out = _make(from_head(o3), q, k, v)

    def bwd(g):
        go3, v3 = by_head(g), v1[..., :d]
        row_term = np.einsum("nsd,nsd->ns", go3, o3)  # D_i = dO_i . O_i
        dq3, dk3, dv3 = np.empty((n, Sq, d)), np.empty((n, S, d)), np.empty((n, S, d))
        da = np.empty((min(step, n), S, Sq))
        for blk in blocks:
            at, m = e[blk], blk.stop - blk.start
            ds = da[:m]  # keys-major, as e
            np.matmul(v3[blk], go3[blk].swapaxes(-1, -2), out=ds)
            ds -= row_term[blk, None, :]
            ds *= at
            np.matmul(ds.swapaxes(-1, -2), k3[blk], out=dq3[blk])
            np.matmul(ds, qs[blk], out=dk3[blk])
            np.matmul(at, go3[blk], out=dv3[blk])
        dq3 *= inv_sqrt_d
        for t, dt in ((q, dq3), (k, dk3), (v, dv3)):
            if t.requires_grad:
                t.accum_grad(from_head(dt), fresh=True)

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# worker threads and micro-batches

# Micro-batches per training batch: a constant, not the CPU count, so that
# gradients are the same sums on any machine.
MICRO_BATCHES = 2


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


def _mark_worker():
    _state.in_worker = True


def _start_pool():
    """One worker thread per CPU usable now, started on first use. Every
    worker is marked, so `map_workers` called on one runs inline: pool
    tasks never wait on each other, and more tasks than threads only queue. A forked child inherits the pool but none of its
    threads, so it starts its own."""
    global _POOL
    _POOL = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="tcmnet-worker",
                               initializer=_mark_worker)


_start_pool()
if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_start_pool)


def _on_tape(tape, grad, fn, *args):
    """fn(*args) recording to `tape` with grad mode `grad`; the thread's
    own tape and mode are restored after."""
    st = _state
    saved = st.tape, st.grad_enabled
    st.tape, st.grad_enabled = tape, grad
    try:
        return fn(*args)
    finally:
        st.tape, st.grad_enabled = saved


def shard_rows(fn, rows, after_backward=None):
    """fn(i, lo, hi) -> Tensor whose leading axis holds rows lo:hi of a
    batch, computed from micro-batch i's own parameters.

    The batch is cut into min(MICRO_BATCHES, rows) contiguous micro-batches,
    and each one's fn, and later its backward, runs through `map_workers`
    on a tape of its own: in parallel on several CPUs, in turn on one or on
    a worker. Returns the results concatenated along axis 0: one node on the
    caller's tape, whose backward hands each micro-batch its rows of the
    gradient, replays its tape, then calls `after_backward()` on the
    calling thread. Only that node holds the micro-batch tapes, so
    resetting the caller's tape frees them.
    """
    n = max(1, min(MICRO_BATCHES, rows))
    bounds = [rows * i // n for i in range(n + 1)]
    spans = list(zip(range(n), bounds[:-1], bounds[1:]))
    tapes = [ComputationTape() for _ in spans]
    grad = _state.grad_enabled
    outs = map_workers(lambda span: _on_tape(tapes[span[0]], grad, fn, *span), spans)
    out = _make(np.concatenate([o.data for o in outs]), *outs)
    if not out.requires_grad:
        return out

    def bwd(g):
        def replay(span):
            i, lo, hi = span
            outs[i].accum_grad(g[lo:hi])
            _replay(tapes[i])

        map_workers(replay, spans)
        if after_backward is not None:
            after_backward()

    _record(out, bwd)
    return out


def map_workers(fn, items):
    """[fn(item) for item in items], each call on a worker thread.

    For work that is already cut into whole pieces (scoring chunks): one
    piece per worker, and a `map_workers` or `shard_rows` inside fn runs
    inline on its worker. Results are in input order; the first error is
    raised only after every call has finished. With one usable CPU, or
    from a worker, the calls run on the calling thread.
    """
    if min(_usable_cpus(), len(items)) < 2 or _state.in_worker:
        return [fn(item) for item in items]
    futures = [_POOL.submit(fn, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]
