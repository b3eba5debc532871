"""Training protocol: weighted cross-entropy, classic Adam with L2-in-
gradient weight decay, early stopping on validation loss, per-epoch
checkpoints and top-k checkpoint averaging.

Training is a pure function of (corpus, TrainConfig): shuffling and
dropout are keyed by the config seed, so reruns are bit-identical.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as tt
from .data import FieldReader, batch_iter, fix_length
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
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.patience < 1 or self.top_k_average < 1 or self.max_epochs < 1:
            raise ConfigError("patience, top_k_average and max_epochs must be >= 1")
        if self.class_weights is not None:
            if len(self.class_weights) != 2 or min(self.class_weights) <= 0:
                raise ConfigError("class_weights must be two positive floats")


LABEL_INDEX = {"bonafide": 0, "spoof": 1}


def inverse_frequency_weights(utts):
    counts = np.array(
        [
            sum(1 for u in utts if u.label == "bonafide"),
            sum(1 for u in utts if u.label == "spoof"),
        ],
        dtype=float,
    )
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


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params, state: AdamState, lr, weight_decay=0.0,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """Classic Adam with L2 decay folded into the gradient, bias-corrected."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if weight_decay:
            g = g + weight_decay * p.data
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)


def batch_logits(model, dense_features, drop=None):
    """(B, 2) logits for a list of same-length feature matrices."""
    return model.forward_sharded(np.stack(dense_features), drop=drop)


def _check_finite(loss, params, epoch, batch):
    where = f"at epoch {epoch}, batch {batch}"
    if not np.isfinite(loss.data):
        raise NonFiniteError(f"training loss is {loss.item()} {where}")
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
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
        drop = None
        if model.config.dropout > 0:
            drop = DropoutCtx(model.config.dropout, config.seed, epoch, bi)
        logits = batch_logits(model, batch.features, drop=drop)
        labels = [LABEL_INDEX[u.label] for u in batch.utterances]
        loss = weighted_cross_entropy(logits, labels, class_weights)
        tt.backward(loss)
        # free the graph before Adam and the next batch allocate, so their
        # arrays do not sit between the next step's activations
        tt.reset_tape()
        _check_finite(loss, model.params, epoch, bi + 1)
        adam_step(model.params, state, config.lr, config.weight_decay)
        total += loss.item() * len(labels)
        count += len(labels)
    return total / count


def validate(model: Model, dev_utts, config: TrainConfig, class_weights):
    """Mean weighted CE on the dev split; no mutation, no dropout."""
    total = 0.0
    chunk = config.batch_size
    with tt.no_grad():
        for lo in range(0, len(dev_utts), chunk):
            part = dev_utts[lo : lo + chunk]
            logits = batch_logits(
                model, [fix_length(u.features, config.target_T) for u in part]
            )
            loss = weighted_cross_entropy(
                logits, [LABEL_INDEX[u.label] for u in part], class_weights
            )
            total += loss.item() * len(part)
    return total / len(dev_utts)


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
        (rank,) = r.unpack("<B", f"rank of {name!r}")
        dims = r.unpack(f"<{rank}I", f"shape of {name!r}")
        params[name] = r.array("<f8", dims, f"values of {name!r}")
    (json_len,) = r.unpack("<I", "config echo length")
    try:
        echo = json.loads(r.text(json_len, "config echo"))
    except json.JSONDecodeError as exc:
        raise r.fail(f"config echo at offset {r.at} is not JSON: {exc}") from exc
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
        model.params[name].data = arr.copy()


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
