"""Training protocol: weighted cross-entropy, classic Adam with L2-in-
gradient weight decay, early stopping on validation loss, per-epoch
checkpoints and top-k checkpoint averaging.

Training is a pure function of (corpus, TrainConfig): shuffling and
dropout are keyed by the config seed, so reruns are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tt
from .data import LABELS, FieldReader, batch_iter
from .metrics import score_split
from .model import DropoutCtx, Model
from .tensor import ConfigError, Tensor


class CheckpointError(ValueError):
    """Corrupt checkpoint file or incompatible parameter inventory."""


class NonFiniteError(ValueError):
    """A training loss or gradient is NaN or infinite."""


@dataclass
class TrainConfig:
    lr: float = 1e-3  # paper-scale preset is 1e-6; desk default trains in minutes
    weight_decay: float = 1e-4
    batch_size: int = 20
    class_weights: list | None = None  # default: inverse class frequency
    patience: int = 7
    max_epochs: int = 20
    top_k_average: int = 5
    seed: int = 0
    target_T: int = 200

    def __post_init__(self):
        # chained comparisons with inf: NaN fails them, and a huge int does not overflow
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("batch_size", "target_T", "patience", "top_k_average", "max_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.class_weights is not None and not (
                len(self.class_weights) == 2
                and all(0 < w < math.inf for w in self.class_weights)):
            raise ConfigError(
                f"class_weights must be two finite positive floats, got {self.class_weights}")


LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}


def inverse_frequency_weights(utts):
    counts = np.array([sum(1 for u in utts if u.label == lab) for lab in LABELS],
                      dtype=float)
    if counts.min() == 0:
        return [1.0, 1.0]
    return list(len(utts) / (2.0 * counts))


def weighted_cross_entropy(logits: Tensor, labels, class_weights):
    """Mean over the batch of w_label * (-log softmax at the true class)."""
    B = logits.shape[0]
    lsm = tt.log_softmax_rows(logits)
    pick = np.zeros((B, 2))
    for i, lab in enumerate(labels):
        if lab not in (0, 1):
            raise ConfigError(f"labels must be 0 or 1, got {lab}")
        pick[i, lab] = class_weights[lab]
    return tt.scale(tt.sum_all(tt.mul_const(lsm, pick)), -1.0 / B)


def score_loss(scores, labels, class_weights):
    """weighted_cross_entropy of the logits (s, 0) for scores s = l0 - l1.
    Log-softmax is shift-invariant, so each row's loss equals the one from
    the model's own logits (l0, l1), bit for bit."""
    logits = np.zeros((len(scores), 2))
    logits[:, 0] = scores
    with tt.no_grad():
        return weighted_cross_entropy(Tensor(logits), labels, class_weights).item()


@dataclass
class AdamState:
    m: np.ndarray | None = None  # moment vectors, sized by the first step
    v: np.ndarray | None = None
    step: int = 0


def adam_step(theta, grad, state: AdamState, lr, weight_decay=0.0,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """Classic Adam with L2 decay folded into the gradient, bias-corrected, in place."""
    if state.step == 0:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    state.step += 1
    t = state.step
    g = grad + weight_decay * theta if weight_decay else grad
    state.m *= beta1
    state.m += (1.0 - beta1) * g
    state.v *= beta2
    state.v += (1.0 - beta2) * g * g
    theta -= lr * (state.m / (1.0 - beta1 ** t)) / (np.sqrt(state.v / (1.0 - beta2 ** t)) + eps)


def batch_logits(model, features, drop=None):
    """(B, 2) logits for a B x T x F feature array: Model.forward_batch on
    fixed contiguous micro-batches (tensor.shard_rows), each with its own
    parameters (Model.micro) and its own rows of the dropout masks. Their
    backward sums the micro-batch gradients into Model.grad in order, so
    results do not depend on the CPU count."""
    feats = np.asarray(features)

    def micro_batch(i, lo, hi):
        return model.micro[i].forward_batch(
            feats[lo:hi], drop=None if drop is None else drop.rows(lo))

    return tt.shard_rows(micro_batch, len(feats), after_backward=model.add_micro_grads)


def _check_finite(loss, model, epoch, batch):
    where = f"at epoch {epoch}, batch {batch}"
    if not np.isfinite(loss.data):
        raise NonFiniteError(f"training loss is {loss.item()} {where}")
    if not np.isfinite(model.grad).all():
        name = next(n for n, p in model.params.items() if not np.isfinite(p.grad).all())
        raise NonFiniteError(f"non-finite gradient for {name} {where}")


def train_epoch(model: Model, train_utts, config: TrainConfig, epoch,
                state: AdamState, class_weights):
    """One pass over the shuffled corpus; returns mean weighted CE loss.
    A non-finite loss or gradient raises NonFiniteError before the update,
    naming the epoch and the batch (counted from 1)."""
    total, count = 0.0, 0
    for bi, batch in enumerate(
        batch_iter(
            train_utts,
            config.batch_size,
            target_T=config.target_T,
            seed=[config.seed, epoch],
        )
    ):
        tt.reset_tape()
        model.zero_grads()
        drop = DropoutCtx(model.config.dropout, config.seed, epoch, bi)
        logits = batch_logits(model, batch.features, drop=drop)
        labels = [LABEL_INDEX[u.label] for u in batch.utterances]
        loss = weighted_cross_entropy(logits, labels, class_weights)
        tt.backward(loss)
        # free the graph before Adam and the next batch allocate, so their
        # arrays do not sit between the next step's activations
        tt.reset_tape()
        _check_finite(loss, model, epoch, bi + 1)
        adam_step(model.flat, model.grad, state, config.lr, config.weight_decay)
        total += loss.item() * len(labels)
        count += len(labels)
    return total / count


def validate(model: Model, dev_utts, config: TrainConfig, class_weights):
    """Mean weighted CE on the dev split, from its fixed-mode scores
    (metrics.score_split); no mutation, no dropout."""
    records = score_split(model, dev_utts, "fixed", config.target_T)
    return score_loss([r.score for r in records],
                      [LABEL_INDEX[u.label] for u in dev_utts], class_weights)


def early_stop(history, patience):
    """True iff the running-best validation loss is at least `patience`
    epochs old (strict improvement resets the clock). A NaN loss is never
    the best; with no other loss, the clock runs from before epoch 1."""
    if not history:
        raise ConfigError("early_stop needs a non-empty history")
    losses = np.asarray(history, dtype=float)
    numbered = np.flatnonzero(~np.isnan(losses))
    # first occurrence: ties do not improve
    best_idx = int(numbered[np.argmin(losses[numbered])]) if numbered.size else -1
    return (len(history) - 1 - best_idx) >= patience


# ---------------------------------------------------------------------------
# checkpoints: "TCMC" | u32 version | u32 tensor count
# | per tensor: u16 name_len, name, u8 rank, u32 dims..., f64 values
# | u32 json_len, config echo JSON | f64 val_loss | u32 epoch

_MAGIC = b"TCMC"
_VERSION = 1


@dataclass
class Checkpoint:
    params: dict  # name -> np.ndarray float64
    config_echo: dict
    epoch: int
    val_loss: float


def save_checkpoint(ckpt: Checkpoint, path):
    path = Path(path)
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _VERSION, len(ckpt.params))
    for name, arr in ckpt.params.items():
        enc = name.encode("utf-8")
        blob += struct.pack("<H", len(enc)) + enc
        blob += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<I", dim)
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    echo = json.dumps(ckpt.config_echo, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(echo)) + echo
    blob += struct.pack("<d", ckpt.val_loss)
    blob += struct.pack("<I", ckpt.epoch)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(bytes(blob))
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    r = FieldReader(path, "checkpoint", CheckpointError)
    r.header(_MAGIC, _VERSION)
    (count,) = r.unpack("<I", "tensor count")
    params = {}
    for i in range(count):
        (name_len,) = r.unpack("<H", f"name length of tensor {i}")
        name = r.text(name_len, f"name of tensor {i}")
        if name in params:
            raise r.fail(f"tensor {i} repeats the name {name!r} at offset {r.at}")
        (rank,) = r.unpack("<B", f"rank of {name!r}")
        dims = r.unpack(f"<{rank}I", f"shape of {name!r}")
        params[name] = r.array("<f8", dims, f"values of {name!r}")
    (json_len,) = r.unpack("<I", "config echo length")
    try:
        echo = json.loads(r.text(json_len, "config echo"))
    except json.JSONDecodeError as exc:
        raise r.fail(f"config echo at offset {r.at} is not JSON: {exc}") from exc
    if not isinstance(echo, dict):
        raise r.fail(f"config echo at offset {r.at} is not a JSON object")
    (val_loss,) = r.unpack("<d", "val_loss")
    (epoch,) = r.unpack("<I", "epoch")
    r.end()
    return Checkpoint(params=params, config_echo=echo, epoch=epoch, val_loss=val_loss)


def checkpoint_from_model(model: Model, config_echo, epoch, val_loss):
    return Checkpoint(
        params={k: t.data.copy() for k, t in model.params.items()},
        config_echo=config_echo,
        epoch=epoch,
        val_loss=val_loss,
    )


def load_into_model(model: Model, ckpt: Checkpoint):
    if set(ckpt.params) != set(model.params):
        missing = set(model.params) ^ set(ckpt.params)
        raise CheckpointError(f"parameter inventory mismatch: {sorted(missing)}")
    for name, arr in ckpt.params.items():
        if model.params[name].data.shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: model {model.params[name].data.shape} "
                f"vs checkpoint {arr.shape}"
            )
        model.params[name].data[...] = arr


def _loss_rank(ck):
    # NaN != NaN, so a NaN loss must not reach the comparison
    nan = bool(np.isnan(ck.val_loss))
    return (nan, 0.0 if nan else ck.val_loss, ck.epoch)


def average_checkpoints(checkpoints, k) -> Checkpoint:
    """Elementwise mean of the k lowest-val-loss checkpoints (ties: earlier
    epoch first; NaN losses rank last). Fewer than k available: average all."""
    if not checkpoints:
        raise CheckpointError("no checkpoints to average")
    inventory = {n: a.shape for n, a in checkpoints[0].params.items()}
    for ck in checkpoints[1:]:
        if {n: a.shape for n, a in ck.params.items()} != inventory:
            raise CheckpointError("checkpoints have incompatible parameter inventories")
    chosen = sorted(checkpoints, key=_loss_rank)[:k]
    params = {
        name: np.mean([c.params[name] for c in chosen], axis=0)
        for name in inventory
    }
    best = chosen[0]
    return Checkpoint(
        params=params,
        config_echo=best.config_echo,
        epoch=best.epoch,
        val_loss=best.val_loss,
    )


@dataclass
class TrainResult:
    history: list  # per-epoch {"epoch", "train_loss", "val_loss"}
    checkpoints: list
    final: Checkpoint
    class_weights: list


def train(model: Model, train_utts, dev_utts, config: TrainConfig,
          config_echo=None, log_fn=None) -> TrainResult:
    if not train_utts or not dev_utts:
        raise ConfigError(f"the {'dev' if train_utts else 'train'} split has no utterances")
    echo = config_echo or {}
    weights = config.class_weights or inverse_frequency_weights(train_utts)
    state = AdamState()
    history, checkpoints, losses = [], [], []
    for epoch in range(1, config.max_epochs + 1):
        train_loss = train_epoch(model, train_utts, config, epoch, state, weights)
        val_loss = validate(model, dev_utts, config, weights)
        losses.append(val_loss)
        rec = {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss}
        history.append(rec)
        if log_fn:
            log_fn(rec)
        checkpoints.append(checkpoint_from_model(model, echo, epoch, val_loss))
        if early_stop(losses, config.patience):
            break
    final = average_checkpoints(checkpoints, config.top_k_average)
    return TrainResult(history, checkpoints, final, list(weights))
