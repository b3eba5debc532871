import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles as oc
from helpers import assert_grads_close, finite_diff
from tcmnet import tensor as tt
from tcmnet.tensor import ConfigError, ShapeError, Tensor


@pytest.fixture(autouse=True)
def _fresh_tape():
    tt.reset_tape()
    yield
    tt.reset_tape()


finite_rows = arrays(
    np.float64, (3, 5),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


def gradcheck(build, arrays_dict, rtol=1e-4, atol=1e-6, label=""):
    """build() must rebuild the graph from arrays_dict and return a scalar
    Tensor; leaves are re-wrapped each call."""
    tt.reset_tape()
    leaves = {k: Tensor(v, requires_grad=True) for k, v in arrays_dict.items()}
    out = build(leaves)
    tt.backward(out)
    analytic = {k: leaves[k].grad for k in arrays_dict}

    def f():
        with tt.no_grad():
            fresh = {k: Tensor(v) for k, v in arrays_dict.items()}
            return float(build(fresh).data)

    numeric = finite_diff(f, arrays_dict)
    assert_grads_close(analytic, numeric, rtol=rtol, atol=atol, label=label)


# ---------------------------------------------------------------------------
# matrix product (affine is the engine's only matmul)


def _matmul(a, b):
    return tt.affine(a, b, Tensor(np.zeros(b.shape[1])))


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(_matmul(a, b).data, b.data)


def test_matmul_hand_product():
    out = tt.affine(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]), Tensor([0.5]))
    assert out.data.tolist() == [[11.5]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        _matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# attention softmax (inside mhsa_core, read through its trace)


def _softmax_rows(scores):
    """One-head attention weights for m x n `scores`: with S = D = n and
    k = I, the scaled scores q k^T / sqrt(n) are the rows of q / sqrt(n)."""
    s = np.asarray(scores, dtype=float)
    m, n = s.shape
    q = np.zeros((n, n))
    q[:m] = s * np.sqrt(n)
    trace = []
    tt.mhsa_core(Tensor(q), Tensor(np.eye(n)), Tensor(np.zeros((n, n))), 1,
                 trace=trace)
    return trace[0]["weights"][:m]


def test_softmax_uniform_row():
    out = _softmax_rows([[0.0, 0.0, 0.0]])
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_large_logits_stable():
    # exp(1000) overflows unless the row maximum is subtracted first
    out = _softmax_rows([[1000.0, 0.0]])
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_hand_values():
    out = _softmax_rows([[1.0, 2.0, 3.0]])
    assert np.allclose(out, [[0.09003, 0.24473, 0.66524]], atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(finite_rows)
def test_softmax_rows_sum_to_one(x):
    out = _softmax_rows(x)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(out >= 0)


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row_maps_to_zero():
    g, b = Tensor(np.ones(4)), Tensor(np.zeros(4))
    out = tt.layer_norm(Tensor([2.0, 2.0, 2.0, 2.0]), g, b)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_symmetric_pair():
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = tt.layer_norm(Tensor([1.0, -1.0]), g, b)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-4)


@settings(max_examples=50, deadline=None)
@given(finite_rows)
def test_layer_norm_standardizes(x):
    rows_spread = x.std(axis=1) > 1e-2
    g, b = Tensor(np.ones(5)), Tensor(np.zeros(5))
    out = tt.layer_norm(Tensor(x), g, b, eps=1e-12).data
    assert np.all(np.abs(out[rows_spread].mean(axis=1)) < 1e-9)
    assert np.all(np.abs(out[rows_spread].var(axis=1) - 1.0) < 1e-6)


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(3)
    arrs = {
        "x": rng.standard_normal((5, 8)),
        "g": rng.standard_normal(8),
        "b": rng.standard_normal(8),
        "w": rng.standard_normal((5, 8)),
    }
    gradcheck(
        lambda lv: tt.sum_all(
            tt.mul(tt.layer_norm(lv["x"], lv["g"], lv["b"]), lv["w"])
        ),
        arrs, rtol=1e-5, atol=1e-7,
    )


def test_layer_norm_bad_eps():
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    with pytest.raises(ConfigError):
        tt.layer_norm(Tensor([1.0, 2.0]), g, b, eps=0.0)


# ---------------------------------------------------------------------------
# activations


def test_gelu_values():
    assert tt.gelu(Tensor([0.0])).data[0] == 0.0
    assert tt.gelu(Tensor([2.0])).data[0] == pytest.approx(1.9545, abs=1e-4)
    assert abs(tt.gelu(Tensor([-10.0])).data[0]) < 1e-8


def test_activation_gradchecks():
    x = np.random.default_rng(4).standard_normal(7)
    for op in (tt.gelu, tt.swish, tt.sigmoid):
        gradcheck(lambda lv, op=op: tt.sum_all(tt.mul(op(lv["x"]), lv["x"])),
                  {"x": x.copy()})


@pytest.mark.parametrize("op", [tt.sigmoid, tt.swish])
def test_logistic_far_negative_is_zero_without_warning(op):
    # exp(1000) overflows to inf, so the logistic is exactly 0 there
    x = Tensor([-1000.0], requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = op(x)
        tt.backward(tt.sum_all(y))
    assert y.data[0] == 0.0
    assert x.grad[0] == 0.0


# ---------------------------------------------------------------------------
# depthwise conv


def test_depthwise_identity_kernel():
    x = np.random.default_rng(5).standard_normal((6, 3))
    kernel = np.zeros((3, 3))
    kernel[1] = 1.0
    out = tt.depthwise_conv1d(Tensor(x), Tensor(kernel))
    assert np.allclose(out.data, x)


def test_depthwise_averaging_constant_interior():
    x = np.full((7, 2), 3.0)
    kernel = np.full((3, 2), 1.0 / 3.0)
    out = tt.depthwise_conv1d(Tensor(x), Tensor(kernel))
    assert np.allclose(out.data[1:-1], 3.0)


def test_depthwise_even_kernel_rejected():
    with pytest.raises(ConfigError):
        tt.depthwise_conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2))))


def test_depthwise_gradcheck():
    rng = np.random.default_rng(6)
    arrs = {"x": rng.standard_normal((7, 3)), "k": rng.standard_normal((3, 3))}
    gradcheck(
        lambda lv: tt.sum_all(
            tt.mul(tt.depthwise_conv1d(lv["x"], lv["k"]),
                   tt.depthwise_conv1d(lv["x"], lv["k"]))
        ),
        arrs, rtol=1e-5, atol=1e-7,
    )


# ---------------------------------------------------------------------------
# mean over time


def test_mean_over_time_single_token():
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(tt.mean_over_time(Tensor(x)).data, x[0])


def test_mean_over_time_hand_mean():
    out = tt.mean_over_time(Tensor([[1.0, 3.0], [3.0, 1.0]]))
    assert out.data.tolist() == [2.0, 2.0]


def test_mean_over_time_empty_errors():
    with pytest.raises(ShapeError):
        tt.mean_over_time(Tensor(np.zeros((0, 3))))


@settings(max_examples=50, deadline=None)
@given(finite_rows, st.randoms(use_true_random=False))
def test_mean_over_time_permutation_invariant(x, rnd):
    perm = list(range(x.shape[0]))
    rnd.shuffle(perm)
    a = tt.mean_over_time(Tensor(x)).data
    b = tt.mean_over_time(Tensor(x[perm])).data
    assert np.all(np.abs(a - b) < 1e-12)


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    tt.backward(tt.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tt.backward(tt.sum_all(tt.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = tt.mul(x, x)
    with pytest.raises(ShapeError):
        tt.backward(y)


def test_backward_accumulates_without_reset():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = tt.sum_all(x)
    tt.backward(y)
    first = x.grad.copy()
    y.zero_grad()
    tt.backward(y)
    assert np.array_equal(x.grad, 2 * first)


# ---------------------------------------------------------------------------
# remaining primitives


def test_structural_ops_gradcheck():
    rng = np.random.default_rng(7)
    arrs = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2, 4))}

    def build(lv):
        cat = tt.concat([lv["a"], lv["b"]], axis=0)  # 5x4
        sl = tt.slice_axis(cat, 0, 1, 4)  # 3x4
        rs = tt.reshape(sl, (4, 3))
        mt = tt.mean_over_time(cat)  # 4
        return tt.add(tt.sum_all(tt.mul(rs, rs)), tt.sum_all(tt.mul(mt, mt)))

    gradcheck(build, arrs, rtol=1e-6, atol=1e-8)


def test_elementwise_and_broadcast_gradcheck():
    rng = np.random.default_rng(8)
    arrs = {
        "x": rng.standard_normal((4, 3)),
        "y": rng.standard_normal((4, 3)),
        "bias": rng.standard_normal(3),
    }
    mask = rng.standard_normal((4, 3))

    def build(lv):
        s = tt.add(lv["x"], lv["bias"])
        t = tt.add(s, tt.scale(lv["y"], -1.0))
        u = tt.scale(tt.mul(t, lv["x"]), 0.5)
        return tt.sum_all(tt.mul_const(u, mask))

    gradcheck(build, arrs, rtol=1e-6, atol=1e-8)


def test_log_softmax_gradcheck_and_values():
    x = np.array([[0.0, 0.0]])
    out = tt.log_softmax_rows(Tensor(x))
    assert np.allclose(out.data, np.log(0.5))
    rng = np.random.default_rng(9)
    gradcheck(
        lambda lv: tt.sum_all(tt.mul(tt.log_softmax_rows(lv["x"]), lv["w"])),
        {"x": rng.standard_normal((3, 5)), "w": rng.standard_normal((3, 5))},
    )


def test_forward_ops_deterministic():
    x = np.random.default_rng(10).standard_normal((4, 6))
    a = tt.mhsa_core(Tensor(x), Tensor(x), Tensor(x), 2).data
    y = x.copy()
    b = tt.mhsa_core(Tensor(y), Tensor(y), Tensor(y), 2).data
    assert a.tobytes() == b.tobytes()


def test_affine_gradcheck():
    rng = np.random.default_rng(11)
    arrs = {
        "x": rng.standard_normal((4, 3)),
        "w": rng.standard_normal((3, 5)),
        "b": rng.standard_normal(5),
        "m": rng.standard_normal((4, 5)),
    }
    gradcheck(
        lambda lv: tt.sum_all(tt.mul(tt.affine(lv["x"], lv["w"], lv["b"]), lv["m"])),
        arrs, rtol=1e-6, atol=1e-8,
    )


def test_mhsa_core_gradcheck():
    rng = np.random.default_rng(12)
    arrs = {
        "q": rng.standard_normal((5, 6)),
        "k": rng.standard_normal((5, 6)),
        "v": rng.standard_normal((5, 6)),
        "m": rng.standard_normal((5, 6)),
    }
    gradcheck(
        lambda lv: tt.sum_all(
            tt.mul(tt.mhsa_core(lv["q"], lv["k"], lv["v"], 2), lv["m"])
        ),
        arrs,
    )


@pytest.mark.parametrize("S", [1, 2, 37, 255])
def test_mhsa_core_matches_softmax_attention_oracle(S):
    rng = np.random.default_rng(S)
    q, k, v = (rng.standard_normal((2, S, 6)) for _ in range(3))
    with tt.no_grad():
        got = tt.mhsa_core(Tensor(q), Tensor(k), Tensor(v), 2).data
    for i in range(2):
        want = oc.attention_np(q[i], k[i], v[i], 2)
        assert np.allclose(got[i], want, rtol=0, atol=1e-13), i


def test_mhsa_core_output_stable_at_logits_near_1000():
    # d = 4: 1 / sqrt(d) is a power of two, and small-integer entries make
    # every logit exact, so kernel and oracle see the same logits. Keys share
    # a constant first column: query row r adds +-1000 to all its logits.
    rng = np.random.default_rng(41)
    S = 9
    k = rng.integers(-3, 4, (S, 4)).astype(float)
    k[:, 0] = 1.0
    q = rng.integers(-3, 4, (S, 4)).astype(float)
    q[:, 0] = np.where(np.arange(S) % 2, -2000.0, 2000.0)
    v = rng.standard_normal((S, 4))
    for grad in (False, True):
        leaves = [Tensor(a, requires_grad=grad) for a in (q, k, v)]
        got = tt.mhsa_core(*leaves, 1).data
        assert np.allclose(got, oc.attention_np(q, k, v, 1), rtol=0, atol=1e-13), grad


def test_mhsa_core_gradcheck_one_token():
    # S = 1: every weight is exactly 1, so q and k get zero gradients
    rng = np.random.default_rng(42)
    arrs = {name: rng.standard_normal((2, 1, 6)) for name in ("q", "k", "v", "m")}
    gradcheck(
        lambda lv: tt.sum_all(
            tt.mul(tt.mhsa_core(lv["q"], lv["k"], lv["v"], 3), lv["m"])
        ),
        arrs,
    )


def test_mhsa_core_rows_stochastic_trace():
    rng = np.random.default_rng(13)
    trace = []
    tt.mhsa_core(Tensor(rng.standard_normal((7, 6))),
                 Tensor(rng.standard_normal((7, 6))),
                 Tensor(rng.standard_normal((7, 6))), 3, trace=trace)
    assert len(trace) == 3
    for t in trace:
        assert t["attn_len"] == 7
        assert np.all(np.abs(t["weights"].sum(axis=1) - 1.0) < 1e-9)

    # batched input: one entry per (batch, head), batch-major
    xb = rng.standard_normal((2, 7, 6))
    batched = []
    tt.mhsa_core(Tensor(xb), Tensor(xb), Tensor(xb), 3, trace=batched)
    assert len(batched) == 2 * 3
    for i in range(2):
        single = []
        tt.mhsa_core(Tensor(xb[i]), Tensor(xb[i]), Tensor(xb[i]), 3, trace=single)
        for h in range(3):
            assert batched[3 * i + h]["attn_len"] == 7
            assert np.allclose(batched[3 * i + h]["weights"], single[h]["weights"],
                               rtol=0, atol=1e-13)


def test_mhsa_core_blocks_match_per_utterance(monkeypatch):
    B, S, D, H = 5, 7, 6, 2
    # three (utterance, head) pairs per block: blocks of 3, 3, 3 and 1
    monkeypatch.setattr(tt, "_ATTN_BLOCK_BYTES", 3 * 8 * S * S + 8)
    rng = np.random.default_rng(17)
    q, k, v, m = (rng.standard_normal((B, S, D)) for _ in range(4))
    # (utterance 1, head 0), in the first block with both heads of
    # utterance 0, is the only slice whose logits may pass the no-shift bound
    d = D // H
    q[1, :, :d] *= 1000.0
    bound = [np.sqrt(np.max(np.sum((q[i, :, h * d : (h + 1) * d] / np.sqrt(d)) ** 2, -1))
                     * np.max(np.sum(k[i, :, h * d : (h + 1) * d] ** 2, -1)))
             for i in range(B) for h in range(H)]
    assert [j for j, b in enumerate(bound) if b > tt._ATTN_NO_SHIFT_LOGIT] == [2]

    def run(qd, kd, vd, md):
        tt.reset_tape()
        leaves = [Tensor(a, requires_grad=True) for a in (qd, kd, vd)]
        trace = []
        out = tt.mhsa_core(*leaves, H, trace=trace)
        tt.backward(tt.sum_all(tt.mul(out, Tensor(md))))
        with tt.no_grad():
            plain_trace = []
            plain = tt.mhsa_core(*(Tensor(a) for a in (qd, kd, vd)), H,
                                 trace=plain_trace)
            untraced = tt.mhsa_core(*(Tensor(a) for a in (qd, kd, vd)), H)
        assert plain.data.tobytes() == untraced.data.tobytes() == out.data.tobytes()
        assert [w["weights"].tobytes() for w in plain_trace] == \
            [w["weights"].tobytes() for w in trace]
        return out.data, trace, [t.grad for t in leaves]

    out, trace, grads = run(q, k, v, m)
    assert len(trace) == B * H
    for i in range(B):
        out_i, trace_i, grads_i = run(q[i], k[i], v[i], m[i])
        assert out[i].tobytes() == out_i.tobytes()
        for h in range(H):
            assert trace[i * H + h]["attn_len"] == trace_i[h]["attn_len"] == S
            assert trace[i * H + h]["weights"].tobytes() == \
                trace_i[h]["weights"].tobytes()
        for g, g_i in zip(grads, grads_i):
            assert g[i].tobytes() == g_i.tobytes()


def _attention_and_grads(q, k, v, m, heads):
    tt.reset_tape()
    leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = tt.mhsa_core(*leaves, heads)
    tt.backward(tt.sum_all(tt.mul(out, Tensor(m))))
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("S", [1, 37, 255])
def test_mhsa_core_softmax_paths_agree(monkeypatch, S):
    # bound 0: every slice subtracts the max; bound inf: none does
    rng = np.random.default_rng(60 + S)
    q, k, v, m = (rng.standard_normal((2, S, 6)) for _ in range(4))
    got = {}
    for bound in (0.0, np.inf):
        monkeypatch.setattr(tt, "_ATTN_NO_SHIFT_LOGIT", bound)
        got[bound] = _attention_and_grads(q, k, v, m, 2)
    for name, shifted, unshifted in zip("oqkv", got[0.0], got[np.inf]):
        assert np.max(np.abs(shifted - unshifted)) < 1e-12, name


@pytest.mark.parametrize("logit, shifted", [(300, False), (301, True), (800, True)])
def test_mhsa_core_softmax_at_the_no_shift_bound(monkeypatch, logit, shifted):
    # d = 4: 1 / sqrt(d) = 0.5, so with entries in multiples of 1/2 every
    # logit is exact. Keys have norm 1 and queries norm 2 * logit: the
    # bound is `logit`, and rows +-2 logit e0 reach it.
    k = np.array([[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0],
                  [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5]])
    q = 2.0 * logit * np.array([[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0],
                                [0, -1, 0, 0], [0.5, 0.5, 0.5, 0.5]])
    S = len(k)
    q = np.vstack([q, np.zeros((S - len(q), 4))])
    v = np.random.default_rng(logit).standard_normal((S, 4))
    m = np.random.default_rng(logit + 1).standard_normal((S, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _attention_and_grads(q, k, v, m, 1)
        monkeypatch.setattr(tt, "_ATTN_NO_SHIFT_LOGIT", 0.0 if shifted else np.inf)
        path = _attention_and_grads(q, k, v, m, 1)
    assert np.allclose(got[0], oc.attention_np(q, k, v, 1), rtol=0, atol=1e-13)
    for name, g, want in zip("oqkv", got, path):
        assert np.all(np.isfinite(g)) and g.tobytes() == want.tobytes(), name


def test_mhsa_core_leading_query_rows():
    # fewer query rows than keys: the leading rows of the full attention
    rng = np.random.default_rng(61)
    q, k, v = (rng.standard_normal((2, 9, 6)) for _ in range(3))
    with tt.no_grad():
        got = tt.mhsa_core(Tensor(q[:, :3]), Tensor(k), Tensor(v), 2).data
    assert got.shape == (2, 3, 6)
    for i in range(2):
        want = oc.attention_np(q[i], k[i], v[i], 2)[:3]
        assert np.allclose(got[i], want, rtol=0, atol=1e-13), i
    arrs = {"q": q[:, :3].copy(), "k": k, "v": v, "m": rng.standard_normal((2, 3, 6))}
    gradcheck(
        lambda lv: tt.sum_all(
            tt.mul(tt.mhsa_core(lv["q"], lv["k"], lv["v"], 2), lv["m"])
        ),
        arrs,
    )
    with pytest.raises(ShapeError, match="do not fit"):
        tt.mhsa_core(Tensor(q), Tensor(k), Tensor(v[:, :8]), 2)


def test_mhsa_core_indivisible_heads():
    x = Tensor(np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        tt.mhsa_core(x, x, x, 2)


def test_expand_gradcheck():
    rng = np.random.default_rng(14)
    arrs = {"a": rng.standard_normal((1, 4)), "m": rng.standard_normal((3, 2, 4))}
    gradcheck(
        lambda lv: tt.sum_all(tt.mul(tt.expand(lv["a"], (3, 2, 4)), lv["m"])),
        arrs,
    )


def test_batched_ops_match_per_sample():
    rng = np.random.default_rng(15)
    xb = rng.standard_normal((3, 5, 6))
    g, b = rng.standard_normal(6), rng.standard_normal(6)
    w, bias = rng.standard_normal((6, 4)), rng.standard_normal(4)
    kern = rng.standard_normal((3, 6))

    ln =  tt.layer_norm(Tensor(xb), Tensor(g), Tensor(b)).data
    aff = tt.affine(Tensor(xb), Tensor(w), Tensor(bias)).data
    dw = tt.depthwise_conv1d(Tensor(xb), Tensor(kern)).data
    mt = tt.mean_over_time(Tensor(xb)).data
    at = tt.mhsa_core(Tensor(xb), Tensor(xb), Tensor(xb), 2).data
    for i in range(3):
        x = Tensor(xb[i])
        assert np.array_equal(ln[i], tt.layer_norm(x, Tensor(g), Tensor(b)).data)
        assert np.array_equal(aff[i], tt.affine(x, Tensor(w), Tensor(bias)).data)
        assert np.array_equal(dw[i], tt.depthwise_conv1d(x, Tensor(kern)).data)
        assert np.array_equal(mt[i], tt.mean_over_time(x).data)
        assert np.allclose(at[i], tt.mhsa_core(x, x, x, 2).data, atol=1e-13)


def test_batched_gradchecks():
    rng = np.random.default_rng(16)
    arrs = {
        "x": rng.standard_normal((2, 4, 6)),
        "w": rng.standard_normal((6, 3)),
        "b": rng.standard_normal(3),
        "g": rng.standard_normal(6),
        "be": rng.standard_normal(6),
        "kern": rng.standard_normal((3, 6)),
        "m": rng.standard_normal((2, 4, 6)),
        "ma": rng.standard_normal((2, 4, 3)),
    }

    def sub(*keys):
        return {k: arrs[k] for k in keys}

    gradcheck(
        lambda lv: tt.sum_all(tt.mul(tt.affine(lv["x"], lv["w"], lv["b"]), lv["ma"])),
        sub("x", "w", "b", "ma"), rtol=1e-6, atol=1e-8,
    )
    gradcheck(
        lambda lv: tt.sum_all(
            tt.mul(tt.layer_norm(lv["x"], lv["g"], lv["be"]), lv["m"])),
        sub("x", "g", "be", "m"),
    )
    gradcheck(
        lambda lv: tt.sum_all(
            tt.mul(tt.depthwise_conv1d(lv["x"], lv["kern"]), lv["m"])),
        sub("x", "kern", "m"), rtol=1e-6, atol=1e-8,
    )
    gradcheck(
        lambda lv: tt.sum_all(
            tt.mul(tt.mhsa_core(lv["x"], lv["x"], lv["x"], 2), lv["m"])),
        sub("x", "m"),
    )
