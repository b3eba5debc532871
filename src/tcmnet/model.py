"""Temporal-channel attention classifier.

The attention module augments plain multi-head self-attention with H
"head tokens", each summarizing one d = D/H channel segment by temporal
average pooling; head tokens are appended to the token sequence (length
T+H+1) for attention, and the classification token is enriched with the
mean head token and mean temporal token afterwards. Five toggles switch
the individual pieces off for ablations.

Blocks come in two kinds: a macaron Conformer block (half-step FFNs, a
pointwise/GLU/depthwise/swish conv module, final layer norm) and a
pre-norm Transformer encoder block. Dropout follows each FFN and the
attention; the conv module applies none, where Gulati et al.'s Conformer
ends it in a dropout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .tensor import ConfigError, Tensor


@dataclass
class TcmToggles:
    use_tcm: bool = True
    ht_embedding: bool = True
    ht_in_mhsa: bool = True
    add_mean_ht_to_cls: bool = True
    add_mean_tt_to_cls: bool = True


@dataclass
class ModelConfig:
    feature_dim: int
    dim: int = 32
    heads: int = 4
    blocks: int = 2
    block_kind: str = "conformer"  # conformer | transformer
    conv_kernel: int = 15
    ffn_expansion: int = 4
    dropout: float = 0.1
    positional_encoding: str = "sinusoidal"  # none | sinusoidal
    toggles: TcmToggles = field(default_factory=TcmToggles)

    def __post_init__(self):
        for name in ("feature_dim", "dim", "heads", "blocks", "conv_kernel",
                     "ffn_expansion"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ConfigError(
                f"model dim {self.dim} not divisible by head count {self.heads}"
            )
        if self.conv_kernel % 2 == 0:
            raise ConfigError(f"conv_kernel must be odd, got {self.conv_kernel}")
        if self.block_kind not in ("conformer", "transformer"):
            raise ConfigError(f"unknown block_kind {self.block_kind!r}")
        if self.positional_encoding not in ("none", "sinusoidal"):
            raise ConfigError(
                f"unknown positional_encoding {self.positional_encoding!r}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self):
        return self.dim // self.heads


def sinusoidal_encoding(T, D):
    pos = np.arange(T)[:, None]
    i = np.arange(D // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / D)
    pe = np.zeros((T, D))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : D - D // 2])
    return pe


class DropoutCtx:
    """Counter-based deterministic dropout masks keyed by (seed, epoch, batch).

    Each mask draw bumps a layer counter, so reruns of the same step see
    the same mask sequence regardless of platform. A micro-batch's context
    (`rows`) draws only its rows of each full-batch mask: Philox is a
    counter-based generator, so it jumps straight to their first value.
    """

    def __init__(self, p, seed, epoch=0, batch=0, lo=0):
        self.p = float(p)
        self.key = (int(seed), int(epoch), int(batch))
        self.counter = 0
        self.lo = lo  # batch row at which this context's masks start
        self.tokens = None  # rows per utterance of every mask (forward_batch sets it)

    def mask(self, shape):
        """Batch rows lo:lo+B of the next mask of the whole batch, for a
        B x r x D `shape`: the leading r of each utterance's `tokens` rows
        (all r rows when `tokens` is unset)."""
        self.counter += 1
        bits = np.random.Philox(np.random.SeedSequence(list(self.key) + [self.counter]))
        B, r, D = shape
        rows = self.tokens or r
        start = self.lo * rows * D  # one counter step yields four values
        bits.advance(start // 4)
        bits.random_raw(start % 4)
        u = np.random.Generator(bits).random((B, rows, D))[:, :r]
        return (u >= self.p) / (1.0 - self.p)

    def rows(self, lo):
        """The masks of a micro-batch whose rows start at batch row `lo`."""
        return DropoutCtx(self.p, *self.key, lo=lo)


def _dropout(x, ctx):
    """x times the next mask. A pruned x, holding the leading rows of each
    utterance, takes those rows of the mask it would get without pruning."""
    if ctx is None or ctx.p == 0.0:
        return x
    return tt.mul_const(x, ctx.mask(x.shape))


def unflatten(flat, inventory):
    """Views of the vector `flat`, cut in order into the shapes of the
    (name, shape) entries of `inventory`."""
    cuts = np.cumsum([math.prod(shape) for _, shape in inventory])[:-1]
    return [part.reshape(shape) for part, (_, shape) in zip(np.split(flat, cuts), inventory)]


def _layout(c: ModelConfig):
    """Every parameter's (name, shape), in `Model.flat` order: the order
    checkpoints store them in. A linear layer `name` holds `name.weight`
    (in x out) and `name.bias`, a layer norm `name.gamma` and `name.beta`."""
    D, E = c.dim, c.ffn_expansion * c.dim

    def linear(name, fan_in, fan_out):
        return [(name + ".weight", (fan_in, fan_out)), (name + ".bias", (fan_out,))]

    def norm(name):
        return [(name + ".gamma", (D,)), (name + ".beta", (D,))]

    def ffn(p):
        return norm(p + "ln") + linear(p + "lin1", D, E) + linear(p + "lin2", E, D)

    def attention(p):
        out = [e for w in ("wq", "wk", "wv", "wo") for e in linear(f"{p}attn.{w}", D, D)]
        if c.toggles.use_tcm:
            out += linear(p + "tcm.head_proj", c.head_dim, D)
            if c.toggles.ht_embedding:
                out.append((p + "tcm.head_token_embedding", (c.heads, D)))
        return out

    layout = linear("proj", c.feature_dim, D) + [("cls", (D,))]
    for b in range(c.blocks):
        p = f"block{b}."
        if c.block_kind == "conformer":
            layout += (ffn(p + "ffn1.") + norm(p + "ln_attn") + attention(p)
                       + norm(p + "ln_conv") + linear(p + "conv.pw1", D, 2 * D)
                       + [(p + "conv.dw.kernel", (c.conv_kernel, D))]
                       + linear(p + "conv.pw2", D, D) + ffn(p + "ffn2.") + norm(p + "ln_final"))
        else:
            layout += norm(p + "ln_attn") + attention(p) + ffn(p + "ffn.")
    return layout + linear("head", D, 2)


def _initial_value(rng, name, shape):
    """Zeros for biases and betas, ones for gammas, N(0, 0.02) for the
    classification and head token embeddings, and Xavier-uniform for every
    matrix (the conv kernel's fans are its K and D)."""
    if name.endswith((".bias", ".beta")):
        return np.zeros(shape)
    if name.endswith(".gamma"):
        return np.ones(shape)
    if name == "cls" or name.endswith("head_token_embedding"):
        return rng.normal(0.0, 0.02, size=shape)
    limit = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-limit, limit, size=shape)


class Model:
    """Parameter container plus forward pass. `inventory` holds each
    parameter's (name, shape) in `_layout` order, and `params` maps each name
    to its Tensor in that order. Their values and gradients are views, in
    that order, into the vectors `flat` and `grad` (`unflatten`): write
    parameters in place (`data[...] = x`), never rebind `.data`.

    `micro[i]` is the model that micro-batch i of a training step runs
    (train.batch_logits): its own parameter Tensors, whose values are the
    same views into `flat` and whose gradients are views into row i of
    `micro_grad`, so micro-batches never write to one array."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        self.inventory = tuple(_layout(config))
        rng = np.random.default_rng(seed)
        self.flat = np.concatenate([_initial_value(rng, name, shape).ravel()
                                    for name, shape in self.inventory])
        self._bind(np.zeros_like(self.flat))
        self.micro_grad = np.zeros((tt.MICRO_BATCHES, self.flat.size))
        self.micro = [self._replica(grad) for grad in self.micro_grad]

    def _bind(self, grad):
        """New parameter Tensors, each one's value a view into `flat` and its
        gradient a view into `grad`."""
        self.grad, self.params = grad, {}
        for (name, _), data, g in zip(self.inventory, unflatten(self.flat, self.inventory),
                                      unflatten(grad, self.inventory)):
            self.params[name] = t = Tensor(data, requires_grad=True)
            t.grad = g

    def _replica(self, grad):
        """A model on the same values whose gradients land in `grad`."""
        replica = Model.__new__(Model)
        replica.config, replica.inventory, replica.flat = self.config, self.inventory, self.flat
        replica._bind(grad)
        return replica

    def _linear(self, x, name):
        return tt.affine(x, self.params[name + ".weight"], self.params[name + ".bias"])

    def _norm(self, x, name):
        return tt.layer_norm(x, self.params[name + ".gamma"], self.params[name + ".beta"])

    def zero_grads(self):
        self.grad.fill(0.0)

    def add_micro_grads(self):
        """grad += each micro-batch's gradient, in micro-batch order; the
        micro-batch gradients are then zeroed."""
        for grad in self.micro_grad:
            self.grad += grad
        self.micro_grad.fill(0.0)

    # -- forward ------------------------------------------------------------

    def project_features(self, features):
        """(..., T, F) -> (..., T, D) affine map, plus optional sinusoidal
        positions."""
        c = self.config
        x = Tensor(features)
        if x.shape[-1] != c.feature_dim:
            raise ConfigError(f"feature dim {x.shape[-1]} does not match config {c.feature_dim}")
        out = self._linear(x, "proj")
        if c.positional_encoding == "sinusoidal":
            out = tt.add(out, Tensor(sinusoidal_encoding(out.shape[-2], c.dim)))
        return out

    def prepend_cls(self, x):
        """(..., T, D) -> (..., T+1, D) tokens with the classification token
        at row 0."""
        cls_rows = tt.expand(self.params["cls"], x.shape[:-2] + (1, self.config.dim))
        return tt.concat([cls_rows, x], axis=-2)

    def _mhsa(self, x, prefix, trace=None, rows=None):
        """Standard multi-head attention over an S x D sequence; with `rows`,
        for its leading query rows only."""
        q = self._linear(x if rows is None else tt.slice_axis(x, -2, 0, rows), prefix + "attn.wq")
        k, v = self._linear(x, prefix + "attn.wk"), self._linear(x, prefix + "attn.wv")
        cat = tt.mhsa_core(q, k, v, self.config.heads, trace=trace)
        return self._linear(cat, prefix + "attn.wo")

    def generate_head_tokens(self, tokens, prefix):
        """Pool each channel segment over the CLS and T rows, project d->D,
        GeLU, embed."""
        c = self.config
        pooled = tt.mean_over_time(tokens)  # (..., D)
        segments = tt.reshape(pooled, pooled.shape[:-1] + (c.heads, c.head_dim))
        ht = tt.gelu(self._linear(segments, prefix + "tcm.head_proj"))
        if c.toggles.ht_embedding:
            ht = tt.add(ht, self.params[prefix + "tcm.head_token_embedding"])
        return ht

    def tcm_attention(self, tokens, head_tokens, prefix, trace=None, rows=None):
        """Attend over T+H+1 tokens (head tokens appended) and split back.
        `rows` (at most T+1) computes only the leading temporal query rows,
        and no head token outputs."""
        c = self.config
        n_temporal = tokens.shape[-2]
        if not c.toggles.ht_in_mhsa:
            return self._mhsa(tokens, prefix, trace=trace, rows=rows), head_tokens
        joint = tt.concat([tokens, head_tokens], axis=-2)
        out = self._mhsa(joint, prefix, trace=trace, rows=rows)
        if rows is not None:
            return out, None
        temporal = tt.slice_axis(out, -2, 0, n_temporal)
        head_out = tt.slice_axis(out, -2, n_temporal, n_temporal + c.heads)
        return temporal, head_out

    def enrich_cls(self, temporal, head_out):
        """CLS' = CLS + mean head token + mean temporal token, per toggles."""
        c = self.config
        tg = c.toggles
        if not (tg.add_mean_ht_to_cls or tg.add_mean_tt_to_cls):
            return temporal
        T = temporal.shape[-2] - 1
        cls_row = tt.slice_axis(temporal, -2, 0, 1)
        rest = tt.slice_axis(temporal, -2, 1, T + 1)
        if tg.add_mean_ht_to_cls:
            mean_ht = tt.mean_over_time(head_out)
            cls_row = tt.add(
                cls_row, tt.reshape(mean_ht, mean_ht.shape[:-1] + (1, c.dim)))
        if tg.add_mean_tt_to_cls and T > 0:  # mean over the T rows only
            mean_tt = tt.mean_over_time(rest)
            cls_row = tt.add(
                cls_row, tt.reshape(mean_tt, mean_tt.shape[:-1] + (1, c.dim)))
        return tt.concat([cls_row, rest], axis=-2)

    def tcm_forward(self, tokens, prefix, trace=None, rows=None):
        """Attention sub-module: plain MHSA or the temporal-channel variant.
        `rows` computes only the leading query rows; the CLS enrichments
        read every row, so they must be off."""
        if not self.config.toggles.use_tcm:
            return self._mhsa(tokens, prefix, trace=trace, rows=rows)
        ht = self.generate_head_tokens(tokens, prefix)
        temporal, head_out = self.tcm_attention(tokens, ht, prefix, trace=trace, rows=rows)
        return self.enrich_cls(temporal, head_out)

    def _ffn(self, x, prefix, drop):
        conformer = self.config.block_kind == "conformer"
        h = self._linear(self._norm(x, prefix + "ln"), prefix + "lin1")
        h = tt.swish(h) if conformer else tt.gelu(h)
        h = _dropout(self._linear(h, prefix + "lin2"), drop)
        return tt.add(x, tt.scale(h, 0.5) if conformer else h)

    def _conv_module(self, x, prefix):
        c = self.config
        h = self._linear(self._norm(x, prefix + "ln_conv"), prefix + "conv.pw1")
        a = tt.slice_axis(h, -1, 0, c.dim)
        b = tt.slice_axis(h, -1, c.dim, 2 * c.dim)
        h = tt.mul(a, tt.sigmoid(b))  # GLU
        h = tt.swish(tt.depthwise_conv1d(h, self.params[prefix + "conv.dw.kernel"]))
        return tt.add(x, self._linear(h, prefix + "conv.pw2"))

    def _attention_residual(self, x, prefix, drop, trace, rows=None):
        """x + dropout(attention(layer_norm(x))), at x's leading `rows` rows
        only when `rows` is given. The attention then computes only those
        query rows too, unless a CLS enrichment reads the others or a trace
        asks for every row's weights."""
        tg = self.config.toggles
        enriched = tg.use_tcm and (tg.add_mean_ht_to_cls or tg.add_mean_tt_to_cls)
        query_rows = None if enriched or trace is not None else rows
        h = self._norm(x, prefix + "ln_attn")
        attn = self.tcm_forward(h, prefix, trace=trace, rows=query_rows)
        if rows is not None:
            x = tt.slice_axis(x, -2, 0, rows)
            if query_rows is None:
                attn = tt.slice_axis(attn, -2, 0, rows)
        return tt.add(x, _dropout(attn, drop))

    def block_forward(self, tokens, b, drop=None, trace=None, cls_only=False):
        """One block over (..., T+1, D) tokens; `cls_only` computes only the
        CLS row after attention, and returns (..., 1, D): a Transformer's FFN
        runs on that row alone, a Conformer's conv output row 0 reads input
        rows 0..K//2."""
        p = f"block{b}."
        if self.config.block_kind == "transformer":
            x = self._attention_residual(tokens, p, drop, trace, 1 if cls_only else None)
            return self._ffn(x, p + "ffn.", drop)
        x = self._ffn(tokens, p + "ffn1.", drop)
        rows = min(self.config.conv_kernel // 2 + 1, tokens.shape[-2]) if cls_only else None
        x = self._attention_residual(x, p, drop, trace, rows)
        x = self._conv_module(x, p)
        if cls_only:
            x = tt.slice_axis(x, -2, 0, 1)
        x = self._ffn(x, p + "ffn2.", drop)
        return self._norm(x, p + "ln_final")

    def forward_batch(self, features, drop=None, trace=None):
        """(B, T, F) stacked same-length features -> (B, 2) logits."""
        feats = np.asarray(features)
        if feats.ndim != 3 or feats.shape[1] == 0:
            raise ConfigError(f"expected B x T x F features, got {feats.shape}")
        x = self.project_features(feats)
        if drop is not None:  # the pruned last block's masks keep the full rows
            drop.tokens = feats.shape[1] + 1
        x = self.prepend_cls(x)
        last = self.config.blocks - 1
        for b in range(self.config.blocks):  # the head reads only the CLS row
            x = self.block_forward(x, b, drop=drop, trace=trace, cls_only=b == last)
        return tt.reshape(self._linear(x, "head"), (feats.shape[0], 2))

    def score(self, features):
        """T x F features -> score; B x T x F -> list of B scores. Runs
        without a tape, on the calling thread: no-grad work is spread over
        the workers a whole chunk at a time (metrics.score_split)."""
        feats = np.asarray(features)
        if feats.ndim not in (2, 3):
            raise ConfigError(f"expected T x F or B x T x F features, got {feats.shape}")
        with tt.no_grad():
            logits = self.forward_batch(feats if feats.ndim == 3 else feats[None]).data
        scores = (logits[:, 0] - logits[:, 1]).tolist()
        return scores if feats.ndim == 3 else scores[0]


def tcm_param_delta(config: ModelConfig):
    """Parameter count the full temporal-channel module adds over plain MHSA:
    blocks * (head_dim*dim + dim + heads*dim) — the shared d->D projection
    with bias plus the (H x D) head token embedding."""
    c = config
    return c.blocks * (c.head_dim * c.dim + c.dim + c.heads * c.dim)


def param_count(model: Model):
    """(total learnable scalars, those of the TCM as toggled: its `.tcm.`
    parameters)."""
    return model.flat.size, sum(t.size for name, t in model.params.items() if ".tcm." in name)
