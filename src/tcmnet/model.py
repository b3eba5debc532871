"""Temporal-channel attention classifier.

The attention module augments plain multi-head self-attention with H
"head tokens", each summarizing one d = D/H channel segment by temporal
average pooling; head tokens are appended to the token sequence (length
T+H+1) for attention, and the classification token is enriched with the
mean head token and mean temporal token afterwards. Five toggles switch
the individual pieces off for ablations.

Blocks come in two kinds: a macaron Conformer block (half-step FFNs, a
pointwise/GLU/depthwise/swish conv module, final layer norm) and a
pre-norm Transformer encoder block.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

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
        if self.blocks < 1 or self.heads < 1:
            raise ConfigError("blocks and heads must be >= 1")
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


@dataclass
class TokenSequence:
    """(..., T+1, D) activations with the classification token at row 0."""

    tokens: Tensor
    T: int


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
    the same mask sequence regardless of platform.
    """

    def __init__(self, p, seed, epoch=0, batch=0):
        self.p = float(p)
        self.key = (int(seed), int(epoch), int(batch))
        self.counter = 0
        self.drawn = []  # full-batch masks shared by row views, in draw order
        self.lock = threading.Lock()

    def mask(self, shape):
        self.counter += 1
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(list(self.key) + [self.counter]))
        )
        keep = rng.random(shape) >= self.p
        return keep / (1.0 - self.p)

    def rows(self, lo, hi, batch_size):
        """Masks for rows lo:hi of a batch of `batch_size`, for one shard."""
        return DropoutRows(self, lo, hi, batch_size)


class DropoutRows:
    """A shard's view of a DropoutCtx: its i-th mask is rows lo:hi of the
    context's i-th mask, drawn once at full-batch shape by whichever shard
    needs it first, so every shard slices the one-thread mask sequence."""

    def __init__(self, ctx, lo, hi, batch_size):
        self.ctx, self.p = ctx, ctx.p
        self.lo, self.hi, self.batch_size = lo, hi, batch_size
        self.counter = 0

    def mask(self, shape):
        ctx = self.ctx
        with ctx.lock:
            if self.counter == len(ctx.drawn):
                ctx.drawn.append(ctx.mask((self.batch_size,) + tuple(shape[1:])))
            full = ctx.drawn[self.counter]
        self.counter += 1
        return full[self.lo : self.hi]


def _dropout(x, ctx):
    if ctx is None or ctx.p == 0.0:
        return x
    return tt.mul_const(x, ctx.mask(x.shape))


class Model:
    """Parameter container plus forward pass. Parameters live in an ordered
    name -> Tensor dict so checkpoints have a complete unique inventory."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))

    # -- construction -------------------------------------------------------

    def _param(self, name, value):
        t = Tensor(value, requires_grad=True)
        self.params[name] = t
        return t

    def _xavier(self, rng, fan_in, fan_out, shape=None):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))

    def _init_params(self, rng):
        c = self.config
        D, H, d, e = c.dim, c.heads, c.head_dim, c.ffn_expansion
        self._param("proj.weight", self._xavier(rng, c.feature_dim, D))
        self._param("proj.bias", np.zeros(D))
        self._param("cls", rng.normal(0.0, 0.02, size=D))
        for b in range(c.blocks):
            p = f"block{b}."
            if c.block_kind == "conformer":
                self._ffn_params(rng, p + "ffn1.", D, e)
                self._ln_params(p + "ln_attn.", D)
                self._attn_params(rng, p)
                self._ln_params(p + "ln_conv.", D)
                self._param(p + "conv.pw1.weight", self._xavier(rng, D, 2 * D))
                self._param(p + "conv.pw1.bias", np.zeros(2 * D))
                self._param(
                    p + "conv.dw.kernel",
                    self._xavier(rng, c.conv_kernel, D, (c.conv_kernel, D)),
                )
                self._param(p + "conv.pw2.weight", self._xavier(rng, D, D))
                self._param(p + "conv.pw2.bias", np.zeros(D))
                self._ffn_params(rng, p + "ffn2.", D, e)
                self._ln_params(p + "ln_final.", D)
            else:
                self._ln_params(p + "ln_attn.", D)
                self._attn_params(rng, p)
                self._ffn_params(rng, p + "ffn.", D, e)
        self._param("head.weight", self._xavier(rng, D, 2))
        self._param("head.bias", np.zeros(2))

    def _ln_params(self, prefix, D):
        self._param(prefix + "gamma", np.ones(D))
        self._param(prefix + "beta", np.zeros(D))

    def _ffn_params(self, rng, prefix, D, e):
        self._ln_params(prefix + "ln.", D)
        self._param(prefix + "lin1.weight", self._xavier(rng, D, e * D))
        self._param(prefix + "lin1.bias", np.zeros(e * D))
        self._param(prefix + "lin2.weight", self._xavier(rng, e * D, D))
        self._param(prefix + "lin2.bias", np.zeros(D))

    def _attn_params(self, rng, prefix):
        c = self.config
        D = c.dim
        for name in ("wq", "wk", "wv", "wo"):
            self._param(prefix + f"attn.{name}.weight", self._xavier(rng, D, D))
            self._param(prefix + f"attn.{name}.bias", np.zeros(D))
        if c.toggles.use_tcm:
            self._param(
                prefix + "tcm.head_proj.weight", self._xavier(rng, c.head_dim, D)
            )
            self._param(prefix + "tcm.head_proj.bias", np.zeros(D))
            if c.toggles.ht_embedding:
                self._param(
                    prefix + "tcm.head_token_embedding",
                    rng.normal(0.0, 0.02, size=(c.heads, D)),
                )

    def p(self, name):
        return self.params[name]

    def zero_grads(self):
        for t in self.params.values():
            t.zero_grad()

    # -- forward ------------------------------------------------------------

    def project_features(self, features):
        """(..., T, F) -> (..., T, D) affine map, plus optional sinusoidal
        positions."""
        c = self.config
        if isinstance(features, Tensor):
            x = features
        else:
            x = Tensor(features)
        if x.shape[-1] != c.feature_dim:
            raise ConfigError(
                f"feature dim {x.shape[-1]} does not match config {c.feature_dim}"
            )
        out = tt.affine(x, self.p("proj.weight"), self.p("proj.bias"))
        if c.positional_encoding == "sinusoidal":
            out = tt.add(out, Tensor(sinusoidal_encoding(out.shape[-2], c.dim)))
        return out

    def prepend_cls(self, x):
        cls_rows = tt.expand(self.p("cls"), x.shape[:-2] + (1, self.config.dim))
        return TokenSequence(tt.concat([cls_rows, x], axis=-2), T=x.shape[-2])

    def _mhsa(self, x, prefix, trace=None):
        """Standard multi-head attention over an S x D sequence."""
        c = self.config
        q = tt.affine(x, self.p(prefix + "attn.wq.weight"), self.p(prefix + "attn.wq.bias"))
        k = tt.affine(x, self.p(prefix + "attn.wk.weight"), self.p(prefix + "attn.wk.bias"))
        v = tt.affine(x, self.p(prefix + "attn.wv.weight"), self.p(prefix + "attn.wv.bias"))
        cat = tt.mhsa_core(q, k, v, c.heads, trace=trace)
        return tt.affine(cat, self.p(prefix + "attn.wo.weight"), self.p(prefix + "attn.wo.bias"))

    def generate_head_tokens(self, seq: TokenSequence, prefix):
        """Pool each channel segment over the CLS and T rows, project d->D,
        GeLU, embed."""
        c = self.config
        pooled = tt.mean_over_time(seq.tokens)  # (..., D)
        segments = tt.reshape(pooled, pooled.shape[:-1] + (c.heads, c.head_dim))
        ht = tt.gelu(
            tt.affine(
                segments,
                self.p(prefix + "tcm.head_proj.weight"),
                self.p(prefix + "tcm.head_proj.bias"),
            )
        )
        if c.toggles.ht_embedding:
            ht = tt.add(ht, self.p(prefix + "tcm.head_token_embedding"))
        return ht

    def tcm_attention(self, seq: TokenSequence, head_tokens, prefix, trace=None):
        """Attend over T+H+1 tokens (head tokens appended) and split back."""
        c = self.config
        n_temporal = seq.T + 1
        if c.toggles.ht_in_mhsa:
            joint = tt.concat([seq.tokens, head_tokens], axis=-2)
            out = self._mhsa(joint, prefix, trace=trace)
            temporal = tt.slice_axis(out, -2, 0, n_temporal)
            head_out = tt.slice_axis(out, -2, n_temporal, n_temporal + c.heads)
        else:
            temporal = self._mhsa(seq.tokens, prefix, trace=trace)
            head_out = head_tokens
        return temporal, head_out

    def enrich_cls(self, temporal, head_out, T):
        """CLS' = CLS + mean head token + mean temporal token, per toggles."""
        c = self.config
        tg = c.toggles
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

    def tcm_forward(self, seq: TokenSequence, prefix, trace=None):
        """Attention sub-module: plain MHSA or the temporal-channel variant."""
        if not self.config.toggles.use_tcm:
            return TokenSequence(self._mhsa(seq.tokens, prefix, trace=trace), seq.T)
        ht = self.generate_head_tokens(seq, prefix)
        temporal, head_out = self.tcm_attention(seq, ht, prefix, trace=trace)
        return TokenSequence(self.enrich_cls(temporal, head_out, seq.T), seq.T)

    def _ffn(self, x, prefix, half, drop):
        c = self.config
        h = tt.layer_norm(x, self.p(prefix + "ln.gamma"), self.p(prefix + "ln.beta"))
        h = tt.affine(h, self.p(prefix + "lin1.weight"), self.p(prefix + "lin1.bias"))
        h = tt.swish(h) if c.block_kind == "conformer" else tt.gelu(h)
        h = tt.affine(h, self.p(prefix + "lin2.weight"), self.p(prefix + "lin2.bias"))
        h = _dropout(h, drop)
        return tt.add(x, tt.scale(h, 0.5) if half else h)

    def _conv_module(self, x, prefix, drop):
        c = self.config
        h = tt.layer_norm(
            x, self.p(prefix + "ln_conv.gamma"), self.p(prefix + "ln_conv.beta")
        )
        h = tt.affine(
            h, self.p(prefix + "conv.pw1.weight"), self.p(prefix + "conv.pw1.bias")
        )
        a = tt.slice_axis(h, -1, 0, c.dim)
        b = tt.slice_axis(h, -1, c.dim, 2 * c.dim)
        h = tt.mul(a, tt.sigmoid(b))  # GLU
        h = tt.depthwise_conv1d(h, self.p(prefix + "conv.dw.kernel"))
        h = tt.swish(h)
        h = tt.affine(
            h, self.p(prefix + "conv.pw2.weight"), self.p(prefix + "conv.pw2.bias")
        )
        return tt.add(x, h)

    def conformer_block_forward(self, seq: TokenSequence, b, drop=None, trace=None):
        p = f"block{b}."
        x = self._ffn(seq.tokens, p + "ffn1.", half=True, drop=drop)
        h = tt.layer_norm(x, self.p(p + "ln_attn.gamma"), self.p(p + "ln_attn.beta"))
        attn = self.tcm_forward(TokenSequence(h, seq.T), p, trace=trace)
        x = tt.add(x, _dropout(attn.tokens, drop))
        x = self._conv_module(x, p, drop)
        x = self._ffn(x, p + "ffn2.", half=True, drop=drop)
        x = tt.layer_norm(x, self.p(p + "ln_final.gamma"), self.p(p + "ln_final.beta"))
        return TokenSequence(x, seq.T)

    def transformer_block_forward(self, seq: TokenSequence, b, drop=None, trace=None):
        p = f"block{b}."
        h = tt.layer_norm(
            seq.tokens, self.p(p + "ln_attn.gamma"), self.p(p + "ln_attn.beta")
        )
        attn = self.tcm_forward(TokenSequence(h, seq.T), p, trace=trace)
        x = tt.add(seq.tokens, _dropout(attn.tokens, drop))
        x = self._ffn(x, p + "ffn.", half=False, drop=drop)
        return TokenSequence(x, seq.T)

    def block_forward(self, seq, b, drop=None, trace=None):
        if self.config.block_kind == "conformer":
            return self.conformer_block_forward(seq, b, drop=drop, trace=trace)
        return self.transformer_block_forward(seq, b, drop=drop, trace=trace)

    def forward_batch(self, features, drop=None, trace=None):
        """(B, T, F) stacked same-length features -> (B, 2) logits."""
        feats = features.data if isinstance(features, Tensor) else np.asarray(features)
        if feats.ndim != 3 or feats.shape[1] == 0:
            raise ConfigError(f"expected B x T x F features, got {feats.shape}")
        x = self.project_features(features if isinstance(features, Tensor)
                                  else Tensor(feats))
        seq = self.prepend_cls(x)
        for b in range(self.config.blocks):
            seq = self.block_forward(seq, b, drop=drop, trace=trace)
        cls_row = tt.slice_axis(seq.tokens, -2, 0, 1)
        out = tt.affine(cls_row, self.p("head.weight"), self.p("head.bias"))
        return tt.reshape(out, (feats.shape[0], 2))

    def forward_sharded(self, features, drop=None):
        """forward_batch over row shards on worker threads (see
        tensor.shard_rows): the same (B, 2) logits and gradients, bit for bit."""
        feats = np.asarray(features)
        B = len(feats)

        def rows(lo, hi):
            shard_drop = None if drop is None else drop.rows(lo, hi, B)
            return self.forward_batch(feats[lo:hi], drop=shard_drop)

        return tt.shard_rows(rows, B)

    def forward(self, features, drop=None, trace=None):
        """T x F features -> (score, logits), as a batch of one.
        Score = bonafide - spoof logit."""
        feats = np.asarray(features)
        if feats.ndim != 2:
            raise ConfigError(f"expected T x F features, got {feats.shape}")
        batch = self.forward_batch(feats[None], drop=drop, trace=trace)
        logits = tt.reshape(batch, (2,))
        return float(logits.data[0] - logits.data[1]), logits

    def score(self, features):
        with tt.no_grad():
            s, _ = self.forward(features)
        return s


def tcm_param_delta(config: ModelConfig, respect_toggles=False):
    """Parameter count added by the temporal-channel module over plain MHSA.

    Full module: blocks * (head_dim*dim + dim + heads*dim) — the shared
    d->D projection with bias plus the (H x D) head token embedding.
    """
    c = config
    if respect_toggles and not c.toggles.use_tcm:
        return 0
    delta = c.head_dim * c.dim + c.dim
    if not respect_toggles or c.toggles.ht_embedding:
        delta += c.heads * c.dim
    return c.blocks * delta


def param_count(model: Model):
    """(total learnable scalars, parameter delta of the current TCM toggles)."""
    total = sum(t.size for t in model.params.values())
    return total, tcm_param_delta(model.config, respect_toggles=True)


def with_toggles(config: ModelConfig, **kw):
    return replace(config, toggles=replace(config.toggles, **kw))
