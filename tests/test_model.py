import numpy as np
import pytest

import oracles as oc
from helpers import assert_grads_close, finite_diff
from tcmnet import tensor as tt
from tcmnet.data import Utterance
from tcmnet.experiments import VARIANTS
from tcmnet.metrics import score_split
from tcmnet.model import (
    DropoutCtx,
    Model,
    ModelConfig,
    TcmToggles,
    TokenSequence,
    param_count,
    tcm_param_delta,
    with_toggles,
)
from tcmnet.tensor import ConfigError, Tensor


@pytest.fixture(autouse=True)
def _fresh_tape():
    tt.reset_tape()
    yield
    tt.reset_tape()


def small_config(**kw):
    defaults = dict(
        feature_dim=6, dim=8, heads=2, blocks=1, block_kind="conformer",
        conv_kernel=3, dropout=0.0, positional_encoding="none",
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def zero_params(model, keep_ln=True):
    for name, t in model.params.items():
        if keep_ln and (name.endswith("gamma")):
            continue
        t.data[...] = 0.0


def share_params(dst: Model, src: Model):
    for name, t in dst.params.items():
        t.data[...] = src.params[name].data


# ---------------------------------------------------------------------------
# config


def test_config_rejects_indivisible_heads():
    for kw in (dict(dim=10, heads=4), dict(heads=0)):
        with pytest.raises(ConfigError):
            small_config(**kw)


def test_config_rejects_even_kernel():
    with pytest.raises(ConfigError):
        small_config(conv_kernel=4)


# ---------------------------------------------------------------------------
# projection and CLS


def test_project_features_zero_weights():
    m = Model(small_config(), seed=0)
    m.p("proj.weight").data[:] = 0.0
    out = m.project_features(np.random.default_rng(0).standard_normal((4, 6)))
    assert np.array_equal(out.data, np.zeros((4, 8)))


def test_project_features_identity():
    m = Model(small_config(feature_dim=8), seed=0)
    m.p("proj.weight").data[...] = np.eye(8)
    x = np.random.default_rng(1).standard_normal((5, 8))
    assert np.array_equal(m.project_features(x).data, x)


def test_project_features_oracle():
    m = Model(small_config(positional_encoding="sinusoidal"), seed=2)
    x = np.random.default_rng(2).standard_normal((7, 6))
    expect = x @ m.p("proj.weight").data + m.p("proj.bias").data
    expect = expect + oc.sinusoidal_np(7, 8)
    assert np.array_equal(m.project_features(x).data, expect)


def test_project_features_dim_mismatch():
    m = Model(small_config(), seed=0)
    with pytest.raises(ConfigError):
        m.project_features(np.zeros((3, 5)))


def test_prepend_cls():
    m = Model(small_config(), seed=0)
    x = np.random.default_rng(3).standard_normal((3, 8))
    seq = m.prepend_cls(Tensor(x))
    assert seq.T == 3
    assert seq.tokens.shape == (4, 8)
    assert np.array_equal(seq.tokens.data[0], m.p("cls").data)
    assert np.array_equal(seq.tokens.data[1:], x)
    empty = m.prepend_cls(Tensor(np.zeros((0, 8))))
    assert empty.T == 0 and empty.tokens.shape == (1, 8)


# ---------------------------------------------------------------------------
# head token generation


def test_head_tokens_zero_projection_equals_embedding():
    m = Model(small_config(), seed=4)
    m.p("block0.tcm.head_proj.weight").data[:] = 0.0
    m.p("block0.tcm.head_proj.bias").data[:] = 0.0
    seq = m.prepend_cls(Tensor(np.random.default_rng(4).standard_normal((5, 8))))
    ht = m.generate_head_tokens(seq, "block0.")
    assert np.array_equal(ht.data, m.p("block0.tcm.head_token_embedding").data)


def test_head_tokens_permutation_invariant():
    m = Model(small_config(), seed=5)
    x = np.random.default_rng(5).standard_normal((6, 8))
    seq = m.prepend_cls(Tensor(x))
    ht1 = m.generate_head_tokens(seq, "block0.").data
    perm = np.random.default_rng(6).permutation(6)
    ht2 = m.generate_head_tokens(m.prepend_cls(Tensor(x[perm])), "block0.").data
    assert np.all(np.abs(ht1 - ht2) < 1e-12)


def test_head_tokens_hand_case():
    cfg = small_config(feature_dim=4, dim=4, heads=2)
    m = Model(cfg, seed=7)
    token = np.array([1.0, 2.0, 3.0, 4.0])
    seq = TokenSequence(Tensor(np.stack([token, token])), T=1)
    w = m.p("block0.tcm.head_proj.weight").data
    b = m.p("block0.tcm.head_proj.bias").data
    emb = m.p("block0.tcm.head_token_embedding").data
    pooled = np.array([[1.0, 2.0], [3.0, 4.0]])  # contiguous d=2 segments
    expect = oc.gelu_np(pooled @ w + b) + emb
    got = m.generate_head_tokens(seq, "block0.").data
    assert np.all(np.abs(got - expect) < 1e-10)


# ---------------------------------------------------------------------------
# attention


def test_uniform_attention_outputs_row_mean():
    m = Model(small_config(), seed=8)
    for n in ("wq", "wk"):
        m.p(f"block0.attn.{n}.weight").data[:] = 0.0
    for n in ("wv", "wo"):
        m.p(f"block0.attn.{n}.weight").data[...] = np.eye(8)
    x = np.random.default_rng(8).standard_normal((5, 8))
    ht = np.random.default_rng(9).standard_normal((2, 8))
    seq = TokenSequence(Tensor(x), T=4)
    temporal, head_out = m.tcm_attention(seq, Tensor(ht), "block0.")
    mean = np.concatenate([x, ht], axis=0).mean(axis=0)
    joint = np.concatenate([temporal.data, head_out.data], axis=0)
    assert np.all(np.abs(joint - mean) < 1e-12)


def test_attention_rows_stochastic_and_length():
    cfg = small_config(heads=1, dim=8)
    m = Model(cfg, seed=10)
    seq = TokenSequence(Tensor(np.random.default_rng(10).standard_normal((1, 8))), T=0)
    ht = m.generate_head_tokens(seq, "block0.")
    trace = []
    m.tcm_attention(seq, ht, "block0.", trace=trace)
    assert all(t["attn_len"] == 2 for t in trace)  # T + H + 1 = 0 + 1 + 1
    for t in trace:
        assert np.all(np.abs(t["weights"].sum(axis=1) - 1.0) < 1e-9)


def test_tcm_attention_matches_oracle():
    m = Model(small_config(), seed=11)
    x = np.random.default_rng(11).standard_normal((5, 8))  # T=4 plus CLS
    seq = TokenSequence(Tensor(x), T=4)
    ht = m.generate_head_tokens(seq, "block0.")
    temporal, head_out = m.tcm_attention(seq, ht, "block0.")
    p = oc.numpy_params(m)
    ht_np = oc.head_tokens_np(x, p, "block0.", 2)
    t_np, h_np = oc.tcm_attention_np(x, ht_np, p, "block0.", 2)
    assert np.max(np.abs(temporal.data - t_np)) < 1e-10
    assert np.max(np.abs(head_out.data - h_np)) < 1e-10


# ---------------------------------------------------------------------------
# CLS enrichment


def test_enrich_cls_pass_through_when_off():
    cfg = with_toggles(small_config(), add_mean_ht_to_cls=False,
                       add_mean_tt_to_cls=False)
    m = Model(cfg, seed=12)
    temporal = np.random.default_rng(12).standard_normal((6, 8))
    head = np.random.default_rng(13).standard_normal((2, 8))
    out = m.enrich_cls(Tensor(temporal), Tensor(head))
    assert np.array_equal(out.data, temporal)


def test_enrich_cls_constant_rows():
    m = Model(small_config(), seed=14)
    h = np.full((2, 8), 1.5)
    t_rows = np.full((6, 8), -0.5)
    cls = np.arange(8.0)
    temporal = np.concatenate([cls[None, :], t_rows], axis=0)
    out = m.enrich_cls(Tensor(temporal), Tensor(h))
    assert np.all(np.abs(out.data[0] - (cls + 1.5 - 0.5)) < 1e-12)
    assert np.array_equal(out.data[1:], t_rows)


def test_enrich_cls_random_vs_hand_means():
    m = Model(small_config(heads=4, dim=8), seed=15)
    rng = np.random.default_rng(15)
    temporal = rng.standard_normal((6, 8))  # T=5
    head = rng.standard_normal((3, 8))
    out = m.enrich_cls(Tensor(temporal), Tensor(head))
    expect = temporal[0] + head.mean(axis=0) + temporal[1:].mean(axis=0)
    assert np.max(np.abs(out.data[0] - expect)) < 1e-12


# ---------------------------------------------------------------------------
# composed attention module


@pytest.mark.parametrize("T", [0, 1, 7])
def test_tcm_forward_shape_contract(T):
    m = Model(small_config(), seed=16)
    x = np.random.default_rng(T).standard_normal((T + 1, 8))
    out = m.tcm_forward(TokenSequence(Tensor(x), T=T), "block0.")
    assert out.tokens.shape == (T + 1, 8)
    assert np.all(np.isfinite(out.tokens.data))


def test_use_tcm_false_is_plain_mhsa():
    tcm_model = Model(small_config(), seed=17)
    plain_model = Model(
        small_config(toggles=TcmToggles(use_tcm=False)), seed=17
    )
    for name in plain_model.params:
        plain_model.params[name].data[...] = tcm_model.params[name].data
    x = np.random.default_rng(17).standard_normal((6, 8))
    a = plain_model.tcm_forward(TokenSequence(Tensor(x), T=5), "block0.").tokens.data
    b = tcm_model._mhsa(Tensor(x), "block0.").data
    assert a.tobytes() == b.tobytes()


def test_all_toggles_off_equals_plain_mhsa():
    cfg = with_toggles(
        small_config(), ht_embedding=False, ht_in_mhsa=False,
        add_mean_ht_to_cls=False, add_mean_tt_to_cls=False,
    )
    m = Model(cfg, seed=18)
    x = np.random.default_rng(18).standard_normal((6, 8))
    out = m.tcm_forward(TokenSequence(Tensor(x), T=5), "block0.").tokens.data
    plain = m._mhsa(Tensor(x), "block0.").data
    assert np.max(np.abs(out - plain)) < 1e-12


# ---------------------------------------------------------------------------
# blocks


def test_conformer_block_shape_and_finiteness_with_zero_weights():
    m = Model(small_config(), seed=19)
    zero_params(m)
    x = np.random.default_rng(19).standard_normal((6, 8))
    out = m.block_forward(TokenSequence(Tensor(x), T=5), 0)
    assert out.tokens.shape == (6, 8)
    assert np.all(np.isfinite(out.tokens.data))


def test_conformer_block_matches_oracle():
    m = Model(small_config(), seed=20)
    x = np.random.default_rng(20).standard_normal((6, 8))  # T=5
    out = m.block_forward(TokenSequence(Tensor(x), T=5), 0)
    expect = oc.conformer_block_np(x, oc.numpy_params(m), "block0.", 2,
                                   m.config.toggles)
    assert np.max(np.abs(out.tokens.data - expect)) < 1e-9


@pytest.mark.parametrize("T", [1, 9])
def test_transformer_block_shape(T):
    m = Model(small_config(block_kind="transformer"), seed=21)
    x = np.random.default_rng(T).standard_normal((T + 1, 8))
    out = m.block_forward(TokenSequence(Tensor(x), T=T), 0)
    assert out.tokens.shape == (T + 1, 8)


def test_transformer_block_plain_matches_prenorm_oracle():
    cfg = small_config(block_kind="transformer", toggles=TcmToggles(use_tcm=False))
    m = Model(cfg, seed=22)
    x = np.random.default_rng(22).standard_normal((5, 8))
    out = m.block_forward(TokenSequence(Tensor(x), T=4), 0)
    expect = oc.transformer_block_np(x, oc.numpy_params(m), "block0.", 2,
                                     cfg.toggles)
    assert np.max(np.abs(out.tokens.data - expect)) < 1e-10


def test_transformer_block_zero_ffn_keeps_attention_output():
    cfg = small_config(block_kind="transformer")
    m = Model(cfg, seed=23)
    for n in ("lin1", "lin2"):
        m.p(f"block0.ffn.{n}.weight").data[:] = 0.0
    x = np.random.default_rng(23).standard_normal((5, 8))
    seq = TokenSequence(Tensor(x), T=4)
    out = m.block_forward(seq, 0).tokens.data
    h = tt.layer_norm(Tensor(x), m.p("block0.ln_attn.gamma"),
                      m.p("block0.ln_attn.beta"))
    attn_resid = x + m.tcm_forward(TokenSequence(h, 4), "block0.").tokens.data
    assert np.max(np.abs(out - attn_resid)) < 1e-12


# ---------------------------------------------------------------------------
# end to end


def test_model_forward_deterministic():
    m = Model(small_config(blocks=2), seed=24)
    x = np.random.default_rng(24).standard_normal((6, 6))
    s1, _ = m.forward(x)
    s2, _ = m.forward(x.copy())
    assert s1 == s2


def test_model_forward_zero_head_scores_zero():
    m = Model(small_config(), seed=25)
    m.p("head.weight").data[:] = 0.0
    s, logits = m.forward(np.random.default_rng(25).standard_normal((4, 6)))
    assert s == 0.0
    assert np.array_equal(logits.data, np.zeros(2))


def test_model_forward_matches_oracle():
    m = Model(small_config(blocks=2, positional_encoding="sinusoidal"), seed=26)
    x = np.random.default_rng(26).standard_normal((6, 6))
    s, logits = m.forward(x)
    s_np, logits_np = oc.model_forward_np(x, oc.numpy_params(m), m.config)
    assert abs(s - s_np) < 1e-9
    assert np.max(np.abs(logits.data - logits_np)) < 1e-9


def test_model_forward_rejects_empty():
    m = Model(small_config(), seed=27)
    with pytest.raises(ConfigError):
        m.forward(np.zeros((0, 6)))


def test_attention_length_instrumentation():
    m = Model(small_config(), seed=28)
    trace = []
    m.forward(np.random.default_rng(28).standard_normal((5, 6)), trace=trace)
    assert all(t["attn_len"] == 5 + 2 + 1 for t in trace)  # T + H + 1


# ---------------------------------------------------------------------------
# parameter accounting


def test_param_delta_formula_cases():
    cfg = ModelConfig(feature_dim=10, dim=144, heads=4, blocks=4, conv_kernel=15)
    assert tcm_param_delta(cfg) == 23616
    cfg_small = small_config()  # D=8, H=2, L=1
    assert tcm_param_delta(cfg_small) == 4 * 8 + 8 + 2 * 8


def test_param_delta_embedding_toggle():
    cfg = small_config(blocks=2)
    _, full = param_count(Model(cfg, seed=0))
    _, reduced = param_count(Model(with_toggles(cfg, ht_embedding=False), seed=0))
    assert full - reduced == cfg.blocks * cfg.heads * cfg.dim


def test_param_count_matches_actual_difference():
    cfg = small_config(blocks=2)
    tcm_total, delta = param_count(Model(cfg, seed=0))
    plain_total, _ = param_count(Model(with_toggles(cfg, use_tcm=False), seed=0))
    assert tcm_total - plain_total == delta == tcm_param_delta(cfg)


# ---------------------------------------------------------------------------
# gradients through the whole block


def test_end_to_end_gradients_match_finite_differences():
    cfg = small_config()
    m = Model(cfg, seed=29)
    x = np.random.default_rng(29).standard_normal((5, 6))
    w = np.random.default_rng(30).standard_normal(2)

    tt.reset_tape()
    m.zero_grads()
    _, logits = m.forward(x)
    tt.backward(tt.sum_all(tt.mul(logits, Tensor(w))))
    analytic = {k: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for k, t in m.params.items()}

    arrays = {k: t.data for k, t in m.params.items()}

    def f():
        with tt.no_grad():
            _, lg = m.forward(x)
            return float(lg.data @ w)

    numeric = finite_diff(f, arrays)
    assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_second_backward_doubles_every_parameter_gradient():
    # Ops hand freshly computed gradient arrays to their inputs without a
    # copy. If one of those arrays were shared with another gradient or with
    # forward data, refilling the tape's gradients for a second backward
    # would change what the parameters receive.
    cfg = ModelConfig(feature_dim=6, dim=8, heads=2, blocks=2, conv_kernel=3,
                      dropout=0.2)
    m = Model(cfg, seed=34)
    feats = np.random.default_rng(34).standard_normal((3, 7, 6))
    tt.reset_tape()
    m.zero_grads()
    loss = tt.sum_all(tt.mul(m.forward_batch(feats, drop=DropoutCtx(0.2, 34)),
                             Tensor([[1.0, -2.0]])))
    tt.backward(loss)
    once = {k: t.grad.copy() for k, t in m.params.items()}
    for node, _ in tt.active_tape().ops:
        if node.grad is not None:
            node.grad[...] = 0.0
    tt.backward(loss)
    for k, t in m.params.items():
        assert np.array_equal(t.grad, 2.0 * once[k]), k


def test_forward_batch_matches_per_utterance():
    cfg = ModelConfig(feature_dim=6, dim=8, heads=2, blocks=2, conv_kernel=3,
                      dropout=0.0)
    m = Model(cfg, seed=31)
    feats = np.random.default_rng(31).standard_normal((4, 9, 6))
    batched = m.forward_batch(feats).data
    for i in range(4):
        _, logits = m.forward(feats[i])
        assert np.allclose(batched[i], logits.data, atol=1e-12)


def test_forward_batch_trace_matches_per_utterance():
    cfg = small_config(blocks=2)
    m = Model(cfg, seed=33)
    B, T, H = 3, 5, cfg.heads
    feats = np.random.default_rng(33).standard_normal((B, T, 6))
    trace = []
    m.forward_batch(feats, trace=trace)
    assert len(trace) == cfg.blocks * B * H
    for i in range(B):
        single = []
        m.forward(feats[i], trace=single)
        assert len(single) == cfg.blocks * H
        for blk in range(cfg.blocks):
            for h in range(H):
                got = trace[(blk * B + i) * H + h]
                want = single[blk * H + h]
                assert got["attn_len"] == want["attn_len"] == T + H + 1
                assert np.all(np.abs(got["weights"].sum(axis=1) - 1.0) < 1e-9)
                assert np.allclose(got["weights"], want["weights"],
                                   rtol=0, atol=1e-12)


def test_forward_batch_gradients_match_summed_per_utterance():
    cfg = ModelConfig(feature_dim=5, dim=8, heads=2, blocks=1, conv_kernel=3,
                      dropout=0.0, positional_encoding="none")
    m = Model(cfg, seed=32)
    feats = np.random.default_rng(32).standard_normal((3, 6, 5))

    tt.reset_tape()
    m.zero_grads()
    tt.backward(tt.sum_all(m.forward_batch(feats)))
    batched = {k: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
               for k, t in m.params.items()}

    tt.reset_tape()
    m.zero_grads()
    for i in range(3):
        _, logits = m.forward(feats[i])
        tt.backward(tt.sum_all(logits))
        tt.reset_tape()
    for k, t in m.params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert np.allclose(batched[k], g, atol=1e-10), k


# ---------------------------------------------------------------------------
# the last block computes only the CLS row after attention


@pytest.mark.parametrize("lo", [0, 7, 10, 13])
def test_dropout_leading_rows_equal_a_slice_of_the_full_draw(lo):
    # (rows, r, D): a conv window, the CLS row, every row, and runs of
    # values that start inside one Philox counter block
    for rows, r, D in ((101, 8, 37), (101, 1, 37), (101, 101, 37), (2, 1, 1), (5, 3, 2)):
        full = DropoutCtx(0.3, 4, 2, 9)
        shard = full.rows(lo)
        shard.tokens = rows
        for _ in range(2):  # the second mask of each context, too
            want = full.mask((20, rows, D))[lo:, :r]
            got = shard.mask((20 - lo, r, D))
            assert np.array_equal(got, want), (rows, r, D)


def _pruning_lengths(K):
    """T around the conv window K//2 + 1 that the pruned last block keeps."""
    return sorted({T for T in (1, K // 2 - 1, K // 2, K // 2 + 1, 3 * K) if T >= 1})


@pytest.mark.parametrize("K", [3, 15])
@pytest.mark.parametrize("kind", ["conformer", "transformer"])
def test_pruned_forward_batch_matches_full_row_oracle(kind, K):
    rng = np.random.default_rng(K)
    for name, toggles in VARIANTS:
        m = Model(small_config(blocks=2, block_kind=kind, conv_kernel=K,
                               positional_encoding="sinusoidal", toggles=toggles),
                  seed=K)
        p = oc.numpy_params(m)
        for T in _pruning_lengths(K):
            for B in (1, 3):
                feats = rng.standard_normal((B, T, 6))
                got = m.forward_batch(feats).data
                for i in range(B):
                    _, want = oc.model_forward_np(feats[i], p, m.config)
                    assert np.max(np.abs(got[i] - want)) < 1e-12, (name, T, B, i)


@pytest.mark.parametrize("kind, rows", [("conformer", 3), ("transformer", 1)])
def test_last_block_attends_for_the_read_query_rows_only(monkeypatch, kind, rows):
    # rows: the conv window K//2 + 1 at K = 5, or the CLS row alone
    seen = []
    core = tt.mhsa_core

    def spy(q, k, v, heads, trace=None):
        seen.append((q.shape[-2], k.shape[-2]))
        return core(q, k, v, heads, trace=trace)

    monkeypatch.setattr(tt, "mhsa_core", spy)
    feats = np.random.default_rng(39).standard_normal((2, 9, 6))
    for name, tg in VARIANTS:
        m = Model(small_config(blocks=2, block_kind=kind, conv_kernel=5, toggles=tg),
                  seed=39)
        pruned = not tg.use_tcm or not (tg.add_mean_ht_to_cls or tg.add_mean_tt_to_cls)
        for trace in (None, []):
            seen.clear()
            m.forward_batch(feats, trace=trace)
            S = seen[0][1]
            last = (rows, S) if pruned and trace is None else (S, S)
            assert seen == [(S, S), last], (name, trace)


@pytest.mark.parametrize("kind", ["conformer", "transformer"])
def test_pruned_forward_draws_the_full_row_dropout_masks(kind):
    m = Model(small_config(blocks=2, block_kind=kind, conv_kernel=5, dropout=0.3), seed=38)
    feats = np.random.default_rng(38).standard_normal((3, 6, 6))
    got = m.forward_batch(feats, drop=DropoutCtx(0.3, 38)).data
    drop = DropoutCtx(0.3, 38)
    seq = m.prepend_cls(m.project_features(feats))
    for b in range(2):
        seq = m.block_forward(seq, b, drop=drop)  # every row
    want = seq.tokens.data[:, 0] @ m.p("head.weight").data + m.p("head.bias").data
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("kind", ["conformer", "transformer"])
def test_pruned_forward_gradients_match_finite_differences_when_T_is_short(kind):
    # T < K//2: the pruned conv window is longer than the sequence
    m = Model(small_config(blocks=2, block_kind=kind, conv_kernel=7, ffn_expansion=2),
              seed=35)
    feats = np.random.default_rng(35).standard_normal((2, 2, 6))
    w = Tensor(np.random.default_rng(36).standard_normal((2, 2)))
    m.zero_grads()
    tt.backward(tt.sum_all(tt.mul(m.forward_batch(feats), w)))
    analytic = {k: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for k, t in m.params.items()}

    def f():
        with tt.no_grad():
            return float((m.forward_batch(feats).data * w.data).sum())

    numeric = finite_diff(f, {k: t.data for k, t in m.params.items()})
    assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7, label=f"{kind}: ")


@pytest.mark.parametrize("kind", ["conformer", "transformer"])
def test_variable_mode_score_equals_forward_bit_for_bit(kind):
    m = Model(small_config(blocks=2, block_kind=kind, conv_kernel=15), seed=37)
    rng = np.random.default_rng(37)
    utts = [Utterance(f"u{i:02d}", rng.standard_normal((T, 6)), "spoof")
            for i, T in enumerate(_pruning_lengths(15) * 3)]
    want = [m.forward(u.features)[0] for u in utts]
    tt.reset_tape()
    assert [r.score for r in score_split(m, utts, mode="variable")] == want
