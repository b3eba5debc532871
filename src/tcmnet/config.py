"""Run configuration: one JSON document covering corpus, model, training,
evaluation and t-DCF costs, with full key validation and --set overrides.

Unknown keys are rejected; every CLI command writes the fully resolved
document back out so a run can be reproduced from its echo alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .data import CorpusSpec
from .metrics import TdcfCosts
from .model import ModelConfig, TcmToggles
from .tensor import ConfigError
from .train import TrainConfig

_TOGGLE_KEYS = {
    "use_tcm", "ht_embedding", "ht_in_mhsa", "add_mean_ht_to_cls",
    "add_mean_tt_to_cls",
}
_SCHEMA = {
    "corpus": {
        "n_train", "n_dev", "n_eval", "feature_dim", "t_min", "t_max",
        "band_width", "seg_len", "amplitude", "ar_coeff", "noise_scale",
        "spoof_fraction", "seed", "pattern_seed",
    },
    "model": {
        "dim", "heads", "blocks", "block_kind", "conv_kernel",
        "ffn_expansion", "dropout", "positional_encoding", "toggles",
    },
    "train": {
        "lr", "weight_decay", "batch_size", "class_weights", "patience",
        "max_epochs", "top_k_average", "seed", "target_T",
    },
    "tdcf": {"c0", "c1", "c2"},
    "eval": {"mode"},
}


class RunConfig:
    def __init__(self, doc: dict):
        _validate_keys(doc)
        self.doc = doc

    @classmethod
    def load(cls, path, overrides=()):
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
        for item in overrides:
            doc = apply_override(doc, item)
        return cls(doc)

    def corpus_spec(self) -> CorpusSpec:
        return CorpusSpec(**self.doc.get("corpus", {}))

    def model_config(self, feature_dim) -> ModelConfig:
        section = dict(self.doc.get("model", {}))
        toggles = TcmToggles(**section.pop("toggles", {}))
        return ModelConfig(feature_dim=feature_dim, toggles=toggles, **section)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.doc.get("train", {}))

    def tdcf_costs(self) -> TdcfCosts | None:
        # no shipped defaults: coefficients must be stated explicitly
        if "tdcf" not in self.doc:
            return None
        return TdcfCosts(**self.doc["tdcf"])

    def eval_mode(self):
        return self.doc.get("eval", {}).get("mode", "fixed")

    def resolved(self):
        """Fully-expanded document, defaults included."""
        out = {
            "corpus": asdict(self.corpus_spec()),
            "train": asdict(self.train_config()),
            "eval": {"mode": self.eval_mode()},
        }
        section = dict(self.doc.get("model", {}))
        toggles = TcmToggles(**section.pop("toggles", {}))
        out["model"] = dict(section, toggles=asdict(toggles))
        costs = self.tdcf_costs()
        if costs is not None:
            out["tdcf"] = asdict(costs)
        return out

    def write_echo(self, path):
        Path(path).write_text(
            json.dumps(self.resolved(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )


def _validate_keys(doc):
    for section, body in doc.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key!r}")
            if section == "model" and key == "toggles":
                if not isinstance(value, dict):
                    raise ConfigError("model.toggles must be an object")
                for tk in value:
                    if tk not in _TOGGLE_KEYS:
                        raise ConfigError(f"unknown toggle {tk!r}")


def apply_override(doc, item):
    """Apply one 'section.key=value' override; value parsed as JSON when
    possible, else kept as a string."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like section.key=value")
    dotted, raw = item.split("=", 1)
    parts = dotted.split(".")
    if len(parts) < 2:
        raise ConfigError(f"override key {dotted!r} must be section.key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-object")
    node[parts[-1]] = value
    _validate_keys(doc)
    return doc
