"""Minimal dense-tensor engine with tape-based reverse-mode autodiff.

Everything is float64. Forward ops are plain numpy; each op that sees a
grad-requiring input appends a backward closure to the active tape.
``backward`` replays the tape in exact reverse order of recording.

Gradients accumulate: repeated backward calls without ``zero_grad`` /
``reset_tape`` add up. Training code resets the tape once per step.

The tape and the grad flag are per thread. ``shard_rows`` splits a batch
into contiguous row shards and runs each on a worker thread with its own
tape; gradients that sum across the batch are deferred and reduced once
over the whole batch, so results match the one-thread path bit for bit.

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
from scipy.special import erf


# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
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
    less. One arena serves every thread, so shard workers reuse the pages
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
    """Row shards already use every core, and BLAS threads on top of them
    only contend. Pinned at import, not at the first sharded call: some
    products (q k^T at S=255, d=8) differ in the last bit between one and
    two OpenBLAS threads, so a B=1 score computed before the first
    sharded call would not match the same score computed after it. A
    no-op where numpy does not bundle scipy-openblas."""
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


_TAPE = ComputationTape()  # the main thread's tape


class _ThreadState(threading.local):
    """Per-thread autodiff state: the tape ops record to, the grad flag,
    and, in a shard's backward, the list its batch reductions go to."""

    def __init__(self):
        main = threading.current_thread() is threading.main_thread()
        self.tape = _TAPE if main else ComputationTape()
        self.grad_enabled = True
        self.pending = None
        self.in_shard = False
        self.scratch = np.empty(0)  # shard workers' concatenation buffer


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


def _batch_reduce(fn, *rows):
    """Accumulate a gradient that sums over the batch: `fn(*rows)` returns
    (tensor, gradient) pairs, and every array in `rows` has the batch on
    its leading axis. In a shard's backward the call is recorded instead;
    `shard_rows` runs it once over the rows of every shard."""
    if _state.pending is None:
        for t, g in fn(*rows):
            t.accum_grad(g, fresh=True)
    else:
        _state.pending.append((fn, rows))


def _accum_unbroadcast(t, g, fresh=False):
    """Add g, summed back to t's shape after numpy broadcasting, to t.grad."""
    shape = t.data.shape
    if g.ndim > len(shape):  # t has no batch axis: the sum crosses the batch
        _batch_reduce(lambda g: ((t, _unbroadcast(g, shape)),), g)
    else:
        t.accum_grad(_unbroadcast(g, shape), fresh=fresh)


def _replay(tape):
    for node, fn in reversed(tape.ops):
        if node.grad is not None:
            fn(node.grad)


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
    var = np.square(xc).sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, inv, out=xc)
    y = gamma.data * xhat + beta.data
    out = _make(y.reshape(x.data.shape), x, gamma, beta)

    def reduce(gg, xhat):
        if gamma.requires_grad:
            yield gamma, (gg * xhat).sum(axis=0)
        if beta.requires_grad:
            yield beta, gg.sum(axis=0)

    def bwd(g):
        gg = g.reshape(xd.shape)
        if gamma.requires_grad or beta.requires_grad:
            _batch_reduce(reduce, gg, xhat)
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

    def reduce(g, xp):
        axes = tuple(range(g.ndim - 1))
        dk = np.empty((K, D))
        for k in range(K):
            dk[k] = (g * xp[..., k : k + T, :]).sum(axis=axes)
        return ((kernel, dk),)

    def bwd(g):
        if x.requires_grad:
            gp = np.zeros(lead + (T + K - 1, D))
            for k in range(K):
                gp[..., k : k + T, :] += g * kernel.data[k]
            x.accum_grad(gp[..., pad : pad + T, :], fresh=True)
        if kernel.requires_grad:
            _batch_reduce(reduce, g, xp)

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

    def reduce(xd, g):
        if w.requires_grad:
            yield w, xd.reshape(-1, din).T @ g.reshape(-1, dout)
        if b.requires_grad:
            yield b, g.reshape(-1, dout).sum(axis=0)

    def bwd(g):
        if x.requires_grad:
            x.accum_grad(g @ w.data.T, fresh=True)
        if w.requires_grad or b.requires_grad:
            _batch_reduce(reduce, x.data, g)

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


# ---------------------------------------------------------------------------
# row shards


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


class _Workers:
    """Thread pool for shards, started on first use and grown on demand."""

    def __init__(self):
        self.pool, self.size = None, 0
        self.lock = threading.Lock()

    def get(self, n):
        with self.lock:
            if self.size < n:
                if self.pool is not None:
                    self.pool.shutdown(wait=False)
                self.pool = ThreadPoolExecutor(n, thread_name_prefix="tcmnet-shard")
                self.size = n
            return self.pool


_WORKERS = _Workers()


def _gather(futures):
    """Results of every future, in order; the first error is raised only
    after every future has finished."""
    errors = [f.exception() for f in futures]
    for err in errors:
        if err is not None:
            raise err
    return [f.result() for f in futures]


class _Shard:
    __slots__ = ("lo", "hi", "tape", "pending", "out")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        self.tape = ComputationTape()
        self.pending = None
        self.out = None


def _shard_forward(shard, fn, grad):
    st = _state
    saved = st.tape, st.grad_enabled
    st.tape, st.grad_enabled, st.in_shard = shard.tape, grad, True
    try:
        shard.out = fn(shard.lo, shard.hi)
    finally:
        st.tape, st.grad_enabled = saved
        st.in_shard = False


def _shard_backward(shard, g):
    st = _state
    shard.pending = st.pending = []
    try:
        shard.out.accum_grad(g)
        _replay(shard.tape)
    finally:
        st.pending = None


def _reduce_rows(entry):
    """One deferred batch reduction over the rows of every shard. Each
    operand's rows are concatenated, in shard order, into this worker's
    scratch buffer: fresh arrays here, with the whole step's graph alive,
    would land above the heap's high-water mark and fault new pages."""
    fn = entry[0][0]
    operands = list(zip(*(rows for _, rows in entry)))
    shapes = [(sum(len(p) for p in parts),) + parts[0].shape[1:] for parts in operands]
    sizes = [math.prod(shape) for shape in shapes]
    if _state.scratch.size < sum(sizes):
        _state.scratch = np.empty(sum(sizes))
    cats, off = [], 0
    for parts, shape, size in zip(operands, shapes, sizes):
        cats.append(np.concatenate(parts, out=_state.scratch[off : off + size].reshape(shape)))
        off += size
    return list(fn(*cats))


def shard_rows(fn, rows):
    """fn(lo, hi) -> Tensor whose leading axis holds rows lo:hi of a batch.

    The batch is cut into contiguous row shards, one per usable CPU, and
    each shard's fn, and later its backward, runs on a worker thread with
    its own tape. Returns the shard results concatenated along axis 0: one
    node on the caller's tape, whose backward hands each shard its rows of
    the gradient, then runs every deferred batch reduction once over the
    whole batch, in tape order, so gradients equal the one-thread ones bit
    for bit. Only that node holds the shards' tapes, so resetting the
    caller's tape frees them. A batch of one, or a call from inside a
    shard, runs fn(0, rows) on the calling thread.
    """
    n = min(_usable_cpus(), rows)
    if n < 2 or _state.in_shard:
        return fn(0, rows)
    bounds = [rows * i // n for i in range(n + 1)]
    shards = [_Shard(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    pool = _WORKERS.get(n)
    grad = _state.grad_enabled
    _gather([pool.submit(_shard_forward, s, fn, grad) for s in shards])
    outs = [s.out for s in shards]
    out = _make(np.concatenate([o.data for o in outs]), *outs)
    if not out.requires_grad:
        return out

    def bwd(g):
        pool = _WORKERS.get(n)
        _gather([pool.submit(_shard_backward, s, g[s.lo : s.hi]) for s in shards])
        if len({len(s.pending) for s in shards}) != 1:
            raise ShapeError("shards recorded different batch reductions")
        entries = zip(*(s.pending for s in shards))
        for pairs in _gather([pool.submit(_reduce_rows, e) for e in entries]):
            for t, tg in pairs:
                t.accum_grad(tg, fresh=True)

    _record(out, bwd)
    return out
