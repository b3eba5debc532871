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
    the same mask sequence regardless of platform. A micro-batch's context
    (`rows`) draws only its rows of each full-batch mask, and a pruned
    block's mask only the leading rows of each utterance: Philox is a
    counter-based generator, so it jumps straight to each run of values.
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
        gen = np.random.Generator(bits)
        B, r, D = shape
        rows = self.tokens or r
        u = np.empty(shape)
        runs = u.reshape(1, -1) if rows == r else u.reshape(B, -1)
        pos = 0  # values of the stream drawn so far
        for i, run in enumerate(runs):
            start = (self.lo + i) * rows * D
            _seek(bits, pos, start)
            gen.random(out=run)
            pos = start + run.size
        keep = u >= self.p
        return keep / (1.0 - self.p)

    def rows(self, lo):
        """The masks of a micro-batch whose rows start at batch row `lo`."""
        return DropoutCtx(self.p, *self.key, lo=lo)


def _seek(bits, pos, start):
    """Move a Philox stream from value `pos` on to value `start` >= pos. One
    counter step yields four values, and advancing drops the buffered ones."""
    steps = start // 4 - -(-pos // 4)
    if steps < 0:  # start lies in the buffered block
        bits.random_raw(start - pos)
    else:
        bits.advance(steps)
        bits.random_raw(start % 4)


def _dropout(x, ctx):
    """x times the next mask. A pruned x, holding the leading rows of each
    utterance, takes those rows of the mask it would get without pruning."""
    if ctx is None or ctx.p == 0.0:
        return x
    return tt.mul_const(x, ctx.mask(x.shape))


class Model:
    """Parameter container plus forward pass. Parameters live in an ordered
    name -> Tensor dict so checkpoints have a complete unique inventory. Their
    values and gradients are views, in that order, into the vectors `flat` and
    `grad`: write parameters in place (`data[...] = x`), never rebind `.data`.

    `micro[i]` is the model that micro-batch i of a training step runs
    (train.batch_logits): its own parameter Tensors, whose values are the
    same views into `flat` and whose gradients are views into row i of
    `micro_grad`, so micro-batches never write to one array."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))
        self.flat = np.concatenate([t.data.ravel() for t in self.params.values()])
        self._bind(self.params, np.zeros_like(self.flat))
        self.micro_grad = np.zeros((tt.MICRO_BATCHES, self.flat.size))
        self.micro = [self._replica(grad) for grad in self.micro_grad]

    def _bind(self, params, grad):
        """Take `params` and `grad` as this model's, each parameter's value a
        view into `flat` and its gradient a view into `grad`."""
        self.params, self.grad = params, grad
        cuts = np.cumsum([t.size for t in params.values()])[:-1]
        for t, data, g in zip(params.values(), np.split(self.flat, cuts),
                              np.split(grad, cuts)):
            t.data, t.grad = data.reshape(t.shape), g.reshape(t.shape)

    def _replica(self, grad):
        """A model on the same values whose gradients land in `grad`."""
        replica = Model.__new__(Model)
        replica.config, replica.flat = self.config, self.flat
        replica._bind({name: Tensor(t.data, requires_grad=True)
                       for name, t in self.params.items()}, grad)
        return replica

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

    def _mhsa(self, x, prefix, trace=None, rows=None):
        """Standard multi-head attention over an S x D sequence; with `rows`,
        for its leading query rows only."""
        c = self.config
        xq = x if rows is None else tt.slice_axis(x, -2, 0, rows)
        q = tt.affine(xq, self.p(prefix + "attn.wq.weight"), self.p(prefix + "attn.wq.bias"))
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

    def tcm_attention(self, seq: TokenSequence, head_tokens, prefix, trace=None,
                      rows=None):
        """Attend over T+H+1 tokens (head tokens appended) and split back.
        `rows` (at most T+1) computes only the leading temporal query rows,
        and no head token outputs."""
        c = self.config
        n_temporal = seq.T + 1
        if not c.toggles.ht_in_mhsa:
            return self._mhsa(seq.tokens, prefix, trace=trace, rows=rows), head_tokens
        joint = tt.concat([seq.tokens, head_tokens], axis=-2)
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

    def tcm_forward(self, seq: TokenSequence, prefix, trace=None, rows=None):
        """Attention sub-module: plain MHSA or the temporal-channel variant.
        `rows` computes only the leading query rows; the CLS enrichments
        read every row, so they must be off."""
        if not self.config.toggles.use_tcm:
            return TokenSequence(self._mhsa(seq.tokens, prefix, trace=trace, rows=rows),
                                 seq.T)
        ht = self.generate_head_tokens(seq, prefix)
        temporal, head_out = self.tcm_attention(seq, ht, prefix, trace=trace, rows=rows)
        return TokenSequence(self.enrich_cls(temporal, head_out), seq.T)

    def _ffn(self, x, prefix, drop):
        conformer = self.config.block_kind == "conformer"
        h = tt.layer_norm(x, self.p(prefix + "ln.gamma"), self.p(prefix + "ln.beta"))
        h = tt.affine(h, self.p(prefix + "lin1.weight"), self.p(prefix + "lin1.bias"))
        h = tt.swish(h) if conformer else tt.gelu(h)
        h = tt.affine(h, self.p(prefix + "lin2.weight"), self.p(prefix + "lin2.bias"))
        h = _dropout(h, drop)
        return tt.add(x, tt.scale(h, 0.5) if conformer else h)

    def _conv_module(self, x, prefix):
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

    def _attention_residual(self, x, prefix, drop, trace, rows=None):
        """x + dropout(attention(layer_norm(x))), at x's leading `rows` rows
        only when `rows` is given. The attention then computes only those
        query rows too, unless a CLS enrichment reads the others or a trace
        asks for every row's weights."""
        tg = self.config.toggles
        enriched = tg.use_tcm and (tg.add_mean_ht_to_cls or tg.add_mean_tt_to_cls)
        query_rows = None if enriched or trace is not None else rows
        h = tt.layer_norm(x, self.p(prefix + "ln_attn.gamma"), self.p(prefix + "ln_attn.beta"))
        attn = self.tcm_forward(TokenSequence(h, x.shape[-2] - 1), prefix, trace=trace,
                                rows=query_rows).tokens
        if rows is not None:
            x = tt.slice_axis(x, -2, 0, rows)
            if query_rows is None:
                attn = tt.slice_axis(attn, -2, 0, rows)
        return tt.add(x, _dropout(attn, drop))

    def block_forward(self, seq: TokenSequence, b, drop=None, trace=None,
                      cls_only=False):
        """One block; `cls_only` computes only the CLS row after attention: a
        Transformer's FFN runs on that row alone, a Conformer's conv output
        row 0 reads input rows 0..K//2."""
        p = f"block{b}."
        T = 0 if cls_only else seq.T
        if self.config.block_kind == "transformer":
            x = self._attention_residual(seq.tokens, p, drop, trace,
                                         1 if cls_only else None)
            return TokenSequence(self._ffn(x, p + "ffn.", drop), T)
        x = self._ffn(seq.tokens, p + "ffn1.", drop)
        rows = min(self.config.conv_kernel // 2 + 1, seq.T + 1) if cls_only else None
        x = self._attention_residual(x, p, drop, trace, rows)
        x = self._conv_module(x, p)
        if cls_only:
            x = tt.slice_axis(x, -2, 0, 1)
        x = self._ffn(x, p + "ffn2.", drop)
        x = tt.layer_norm(x, self.p(p + "ln_final.gamma"), self.p(p + "ln_final.beta"))
        return TokenSequence(x, T)

    def forward_batch(self, features, drop=None, trace=None):
        """(B, T, F) stacked same-length features -> (B, 2) logits."""
        feats = np.asarray(features)
        if feats.ndim != 3 or feats.shape[1] == 0:
            raise ConfigError(f"expected B x T x F features, got {feats.shape}")
        x = self.project_features(feats)
        if drop is not None:  # the pruned last block's masks keep the full rows
            drop.tokens = feats.shape[1] + 1
        seq = self.prepend_cls(x)
        last = self.config.blocks - 1
        for b in range(self.config.blocks):  # the head reads only the CLS row
            seq = self.block_forward(seq, b, drop=drop, trace=trace, cls_only=b == last)
        out = tt.affine(seq.tokens, self.p("head.weight"), self.p("head.bias"))
        return tt.reshape(out, (feats.shape[0], 2))

    def forward(self, features, trace=None):
        """T x F features -> (score, logits), as a batch of one.
        Score = bonafide - spoof logit."""
        feats = np.asarray(features)
        if feats.ndim != 2:
            raise ConfigError(f"expected T x F features, got {feats.shape}")
        batch = self.forward_batch(feats[None], trace=trace)
        logits = tt.reshape(batch, (2,))
        return float(logits.data[0] - logits.data[1]), logits

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
    with bias plus the (H x D) head token embedding.
    """
    c = config
    return c.blocks * (c.head_dim * c.dim + c.dim + c.heads * c.dim)


def param_count(model: Model):
    """(total learnable scalars, those of the TCM as toggled: its `.tcm.`
    parameters)."""
    return model.flat.size, sum(t.size for name, t in model.params.items() if ".tcm." in name)


def with_toggles(config: ModelConfig, **kw):
    return replace(config, toggles=replace(config.toggles, **kw))
