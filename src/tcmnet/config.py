"""Run configuration: one JSON document covering corpus, model, training,
evaluation and t-DCF costs, with full key and type validation and --set
overrides.

The keys of each section are the fields of the dataclass it builds, and
each value must have its field's type. Unknown keys are rejected; every
CLI command writes the fully resolved document back out so a run can be
reproduced from its echo alone.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from .data import CorpusSpec
from .metrics import EVAL_MODES, TdcfCosts
from .model import ModelConfig, TcmToggles
from .tensor import ConfigError
from .train import TrainConfig


def _field_types(cls, skip=()):
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in skip}


# section -> key -> field type, from the dataclass each section builds;
# model.toggles is a section of its own inside model
_TYPES = {
    "corpus": _field_types(CorpusSpec),
    "model": dict(_field_types(ModelConfig, skip={"feature_dim"}),
                  toggles=_field_types(TcmToggles)),
    "train": _field_types(TrainConfig),
    "tdcf": _field_types(TdcfCosts),
    "eval": {"mode": str},
}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# field type -> (accepts a JSON value, what it wants); bool is not an int
_CHECKS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list | None: (lambda v: v is None or (isinstance(v, list) and all(map(_is_number, v))),
                  "null or a list of numbers"),
}


class RunConfig:
    def __init__(self, doc: dict, overrides=()):
        for item in overrides:
            doc = apply_override(doc, item)
        _validate(doc, _TYPES)
        self.doc = doc
        self.resolved()  # range-checks every section but the model's

    @classmethod
    def load(cls, path, overrides=()):
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
        return cls(doc, overrides)

    def corpus_spec(self) -> CorpusSpec:
        return CorpusSpec(**self.doc.get("corpus", {}))

    def _model_section(self, **changes):
        section = dict(self.doc.get("model", {}), **changes)
        section["toggles"] = TcmToggles(**section.get("toggles", {}))
        return section

    def model_config(self, feature_dim, **changes) -> ModelConfig:
        return ModelConfig(feature_dim=feature_dim, **self._model_section(**changes))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.doc.get("train", {}))

    def tdcf_costs(self) -> TdcfCosts | None:
        # no shipped defaults: coefficients must be stated explicitly
        if "tdcf" not in self.doc:
            return None
        missing = [f"tdcf.{f.name}" for f in fields(TdcfCosts) if f.name not in self.doc["tdcf"]]
        if missing:
            raise ConfigError(f"config section tdcf lacks {' and '.join(missing)}")
        return TdcfCosts(**self.doc["tdcf"])

    def eval_mode(self):
        mode = self.doc.get("eval", {}).get("mode", "fixed")
        if mode not in EVAL_MODES:
            raise ConfigError(f"config key eval.mode must be {' or '.join(map(repr, EVAL_MODES))}, "
                              f"got {mode!r}")
        return mode

    def resolved(self):
        """Fully-expanded document, defaults included."""
        out = {
            "corpus": asdict(self.corpus_spec()),
            "train": asdict(self.train_config()),
            "eval": {"mode": self.eval_mode()},
        }
        # ModelConfig's defaults, not a ModelConfig: it needs feature_dim
        # from the data, and sweep-heads overrides heads per row
        section = self._model_section()
        out["model"] = {f.name: f.default for f in fields(ModelConfig)
                        if f.default is not MISSING}
        out["model"].update(section, toggles=asdict(section["toggles"]))
        costs = self.tdcf_costs()
        if costs is not None:
            out["tdcf"] = asdict(costs)
        return out


def _validate(body, types, where=None):
    if not isinstance(body, dict):
        raise ConfigError(f"config {where} must be an object")
    for key, value in body.items():
        name = key if where is None else f"{where}.{key}"
        if key not in types:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(types[key], dict):
            _validate(value, types[key], name)
            continue
        accepts, wanted = _CHECKS[types[key]]
        if not accepts(value):
            raise ConfigError(f"config key {name} must be {wanted}, got {value!r}")


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
    _validate(doc, _TYPES)
    return doc
