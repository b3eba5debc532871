"""Straight-line numpy re-implementations used as duplicate oracles.

Everything here is plain forward numpy with no autodiff and no shared
code with the package's model module, so a silent bug in one side shows
up as a mismatch.
"""

import numpy as np
from scipy.signal import lfilter
from scipy.special import erf


def gelu_np(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def swish_np(x):
    return x / (1.0 + np.exp(-x))


def layer_norm_np(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def softmax_np(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention_np(q, k, v, H):
    """softmax(Qi Ki^T / sqrt(d)) Vi per head, concatenated; (S, H*d) each."""
    d = q.shape[1] // H
    outs = []
    for i in range(H):
        qi, ki, vi = (m[:, i * d : (i + 1) * d] for m in (q, k, v))
        outs.append(softmax_np(qi @ ki.T / np.sqrt(d)) @ vi)
    return np.concatenate(outs, axis=1)


def mhsa_np(x, p, prefix, H):
    q = x @ p[prefix + "attn.wq.weight"] + p[prefix + "attn.wq.bias"]
    k = x @ p[prefix + "attn.wk.weight"] + p[prefix + "attn.wk.bias"]
    v = x @ p[prefix + "attn.wv.weight"] + p[prefix + "attn.wv.bias"]
    return attention_np(q, k, v, H) @ p[prefix + "attn.wo.weight"] + p[
        prefix + "attn.wo.bias"
    ]


def head_tokens_np(x, p, prefix, H, use_embedding=True):
    D = x.shape[1]
    d = D // H
    pooled = x.mean(axis=0).reshape(H, d)  # CLS and T rows
    ht = gelu_np(pooled @ p[prefix + "tcm.head_proj.weight"] + p[prefix + "tcm.head_proj.bias"])
    if use_embedding:
        ht = ht + p[prefix + "tcm.head_token_embedding"]
    return ht


def tcm_attention_np(x, ht, p, prefix, H, ht_in_mhsa=True):
    n = x.shape[0]
    if ht_in_mhsa:
        joint = np.concatenate([x, ht], axis=0)
        out = mhsa_np(joint, p, prefix, H)
        return out[:n], out[n:]
    return mhsa_np(x, p, prefix, H), ht


def enrich_cls_np(temporal, head_out, add_ht=True, add_tt=True):
    cls_row = temporal[0].copy()
    if add_ht:
        cls_row = cls_row + head_out.mean(axis=0)
    if add_tt and temporal.shape[0] > 1:
        cls_row = cls_row + temporal[1:].mean(axis=0)
    return np.concatenate([cls_row[None, :], temporal[1:]], axis=0)


def tcm_forward_np(x, p, prefix, H, toggles):
    if not toggles.use_tcm:
        return mhsa_np(x, p, prefix, H)
    ht = head_tokens_np(x, p, prefix, H, use_embedding=toggles.ht_embedding)
    temporal, head_out = tcm_attention_np(
        x, ht, p, prefix, H, ht_in_mhsa=toggles.ht_in_mhsa
    )
    return enrich_cls_np(
        temporal, head_out,
        add_ht=toggles.add_mean_ht_to_cls, add_tt=toggles.add_mean_tt_to_cls,
    )


def ffn_np(x, p, prefix, half, activation):
    h = layer_norm_np(x, p[prefix + "ln.gamma"], p[prefix + "ln.beta"])
    h = activation(h @ p[prefix + "lin1.weight"] + p[prefix + "lin1.bias"])
    h = h @ p[prefix + "lin2.weight"] + p[prefix + "lin2.bias"]
    return x + (0.5 * h if half else h)


def depthwise_np(x, kernel):
    K, D = kernel.shape
    T = x.shape[0]
    pad = K // 2
    xp = np.zeros((T + K - 1, D))
    xp[pad : pad + T] = x
    return sum(xp[k : k + T] * kernel[k] for k in range(K))


def conv_module_np(x, p, prefix):
    D = x.shape[1]
    h = layer_norm_np(x, p[prefix + "ln_conv.gamma"], p[prefix + "ln_conv.beta"])
    h = h @ p[prefix + "conv.pw1.weight"] + p[prefix + "conv.pw1.bias"]
    a, b = h[:, :D], h[:, D:]
    h = a / (1.0 + np.exp(-b))
    h = swish_np(depthwise_np(h, p[prefix + "conv.dw.kernel"]))
    h = h @ p[prefix + "conv.pw2.weight"] + p[prefix + "conv.pw2.bias"]
    return x + h


def conformer_block_np(x, p, prefix, H, toggles):
    x = ffn_np(x, p, prefix + "ffn1.", half=True, activation=swish_np)
    h = layer_norm_np(x, p[prefix + "ln_attn.gamma"], p[prefix + "ln_attn.beta"])
    x = x + tcm_forward_np(h, p, prefix, H, toggles)
    x = conv_module_np(x, p, prefix)
    x = ffn_np(x, p, prefix + "ffn2.", half=True, activation=swish_np)
    return layer_norm_np(x, p[prefix + "ln_final.gamma"], p[prefix + "ln_final.beta"])


def transformer_block_np(x, p, prefix, H, toggles):
    h = layer_norm_np(x, p[prefix + "ln_attn.gamma"], p[prefix + "ln_attn.beta"])
    x = x + tcm_forward_np(h, p, prefix, H, toggles)
    return ffn_np(x, p, prefix + "ffn.", half=False, activation=gelu_np)


def sinusoidal_np(T, D):
    pe = np.zeros((T, D))
    pos = np.arange(T)[:, None]
    i = np.arange(D // 2)[None, :]
    angle = pos / 10000.0 ** (2.0 * i / D)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def model_forward_np(features, p, config):
    x = features @ p["proj.weight"] + p["proj.bias"]
    if config.positional_encoding == "sinusoidal":
        x = x + sinusoidal_np(x.shape[0], config.dim)
    x = np.concatenate([p["cls"][None, :], x], axis=0)
    for b in range(config.blocks):
        prefix = f"block{b}."
        if config.block_kind == "conformer":
            x = conformer_block_np(x, p, prefix, config.heads, config.toggles)
        else:
            x = transformer_block_np(x, p, prefix, config.heads, config.toggles)
    logits = x[0] @ p["head.weight"] + p["head.bias"]
    return float(logits[0] - logits[1]), logits


def numpy_params(model):
    return {k: t.data.copy() for k, t in model.params.items()}


def adam_per_parameter(params, grads, state, lr, weight_decay=0.0,
                       beta1=0.9, beta2=0.999, eps=1e-8):
    """Classic Adam with L2 decay folded into the gradient, one parameter
    array at a time: `params` and `grads` map names to arrays, `state` is
    {"m": {}, "v": {}, "step": 0}. Updates `params` and `state` in place."""
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if weight_decay:
            g = g + weight_decay * p
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(p)
            state["v"][name] = np.zeros_like(p)
        state["m"][name] = beta1 * state["m"][name] + (1.0 - beta1) * g
        state["v"][name] = beta2 * state["v"][name] + (1.0 - beta2) * g * g
        mhat = state["m"][name] / bc1
        vhat = state["v"][name] / bc2
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def read_scores_lines(text):
    """(id, score) pairs of an "id score" text read one line at a time, or
    the 1-based number of its first non-empty line that is not one space
    between an id and a float."""
    pairs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split(" ")
        try:
            if len(parts) != 2:
                raise ValueError("expected two fields")
            pairs.append((parts[0], float(parts[1])))
        except ValueError:
            return lineno
    return pairs


def generate_corpus_np(spec):
    """{split: [(id, label, features, meta)]}: the synthetic corpus drawn one
    utterance at a time, each filtered by scipy.signal.lfilter."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([spec.pattern_seed])))
    signs = np.where(rng.random(spec.feature_dim) < 0.5, -1.0, 1.0)
    starts = list(range(spec.feature_dim - spec.band_width + 1))
    pools = (starts, starts) if len(starts) == 1 else (starts[0::2], starts[1::2])
    corpus = {}
    for si, (split, n) in enumerate(
            [("train", spec.n_train), ("dev", spec.n_dev), ("eval", spec.n_eval)]):
        n_spoof = int(round(n * spec.spoof_fraction))
        labels = np.array([1] * n_spoof + [0] * (n - n_spoof))
        np.random.default_rng([spec.seed, si, 0xFACE]).shuffle(labels)
        pool = pools[1] if split == "eval" else pools[0]
        utts = []
        for i in range(n):
            rng = np.random.default_rng([spec.seed, si, i])
            T = int(rng.integers(spec.t_min, spec.t_max + 1))
            e = rng.standard_normal((T, spec.feature_dim))
            mixed = 0.5 * e + 0.25 * np.roll(e, 1, axis=1) + 0.25 * np.roll(e, -1, axis=1)
            x = lfilter([1.0], [1.0, -spec.ar_coeff], spec.noise_scale * mixed, axis=0)
            band_start = int(pool[rng.integers(len(pool))])
            seg_start = int(rng.integers(T - spec.seg_len + 1))
            label = ("bonafide", "spoof")[labels[i]]
            if label == "spoof":
                x[seg_start : seg_start + spec.seg_len,
                  band_start : band_start + spec.band_width] += spec.amplitude * signs[
                      band_start : band_start + spec.band_width]
            utts.append((f"{split}_{i:05d}", label, x,
                         {"band_start": band_start, "seg_start": seg_start}))
        corpus[split] = utts
    return corpus
