"""Detection scoring: EER, constrained normalized min t-DCF, DET points,
score files, and whole-split evaluation.

Scores are oriented so higher means more bona fide. All metrics sweep the
same candidate thresholds: one below every score, one above every score,
and the midpoint of each adjacent pair of distinct scores. At threshold t,
Pmiss = fraction of bona fide scores < t and Pfa = fraction of spoof
scores >= t. EER is (Pmiss+Pfa)/2 at the candidate minimizing |Pmiss-Pfa|,
lowest threshold on ties. This step-crossing convention is exact on
rational inputs, so independent reimplementations can agree bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tt
from .data import check_feature_dims, fix_length
from .tensor import ConfigError


class ScoreFileError(ValueError):
    """Malformed score file; message names the file and any bad line."""


@dataclass(slots=True)
class ScoreRecord:
    id: str
    score: float


@dataclass
class TdcfCosts:
    """Constrained three-coefficient tandem cost: c0 + c1*Pmiss + c2*Pfa,
    normalized by min(c0+c1, c0+c2)."""

    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            cost = getattr(self, name)
            if not abs(cost) < math.inf:  # NaN fails it too
                raise ConfigError(f"t-DCF cost {name} must be finite, got {cost}")
        if self.c0 < 0 or self.c1 <= 0 or self.c2 <= 0:
            raise ConfigError(
                f"t-DCF costs need c0 >= 0 and c1, c2 > 0, got "
                f"({self.c0}, {self.c1}, {self.c2})"
            )

    @property
    def denominator(self):
        return min(self.c0 + self.c1, self.c0 + self.c2)


def _check_scores(bona, spoof):
    bona = np.asarray(bona, dtype=float)
    spoof = np.asarray(spoof, dtype=float)
    if bona.size == 0 or spoof.size == 0:
        raise ConfigError("both score classes must be non-empty")
    if not (np.isfinite(bona).all() and np.isfinite(spoof).all()):
        raise ConfigError("scores must be finite")
    return bona, spoof


def sweep_thresholds(bona, spoof):
    """Candidate thresholds: below min, above max, and adjacent midpoints."""
    values = np.unique(np.concatenate([bona, spoof]))
    return np.concatenate(
        [[values[0] - 1.0], (values[:-1] + values[1:]) / 2.0, [values[-1] + 1.0]]
    )


def _error_curve(bona_scores, spoof_scores):
    """(thresholds, Pmiss, Pfa) over the candidate thresholds, ascending.
    One sort per class; each rate is an exact count divided once."""
    bona, spoof = _check_scores(bona_scores, spoof_scores)
    thresholds = sweep_thresholds(bona, spoof)
    pmiss = np.searchsorted(np.sort(bona), thresholds) / bona.size
    pfa = (spoof.size - np.searchsorted(np.sort(spoof), thresholds)) / spoof.size
    return thresholds, pmiss, pfa


def compute_eer(bona_scores, spoof_scores):
    """(EER, threshold) at the crossing of the miss / false-alarm steps."""
    thresholds, pmiss, pfa = _error_curve(bona_scores, spoof_scores)
    i = int(np.argmin(np.abs(pmiss - pfa)))  # first minimum: lowest threshold
    return float(pmiss[i] + pfa[i]) / 2.0, thresholds[i]


def compute_min_tdcf(bona_scores, spoof_scores, costs: TdcfCosts):
    _, pmiss, pfa = _error_curve(bona_scores, spoof_scores)
    denom = costs.denominator
    if denom <= 0:
        raise ConfigError("t-DCF normalization denominator must be positive")
    cost = (costs.c0 + costs.c1 * pmiss + costs.c2 * pfa) / denom
    return min(float(cost.min()), 1.0)


def det_points(bona_scores, spoof_scores):
    """(Pmiss, Pfa) per candidate threshold, ascending: Pmiss non-decreasing,
    Pfa non-increasing."""
    _, pmiss, pfa = _error_curve(bona_scores, spoof_scores)
    return list(zip(pmiss.tolist(), pfa.tolist()))


# ---------------------------------------------------------------------------
# score files: "id score" with 6 decimal digits


def write_scores(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.id} {rec.score:.6f}\n")


def read_scores(path):
    # One record per line, built as its line is parsed. Splitting the whole
    # file into id and score lists first parses faster, but leaves the
    # records apart from their fields in memory, and the garbage collector's
    # walks over them then cost more than the parse saved.
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ScoreFileError(f"{path}: score file is not UTF-8: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, start=1):
        if line:
            try:
                ident, score = line.split(" ")
                records.append(ScoreRecord(ident, float(score)))
            except ValueError as exc:
                raise ScoreFileError(f"{path}: bad score line {lineno}: {line!r}") from exc
    return records


# ---------------------------------------------------------------------------


# Utterances per Model.score call. Each chunk runs whole on one worker
# (tensor.map_workers), so two workers hold at most 16 utterances at a time.
SCORE_CHUNK = 8


def score_split(model, utts, mode="fixed", target_T=200):
    """ScoreRecord per utterance, in input order. Utterances of one length
    are scored together, SCORE_CHUNK at a time, one chunk per worker thread:
    fixed mode crops every one to target_T (one group, in input order, of
    one feature dim), variable mode keeps full lengths and groups by T x F
    shape."""
    if mode not in ("fixed", "variable"):
        raise ConfigError(f"unknown eval mode {mode!r}")
    if mode == "fixed":
        check_feature_dims(utts)
    groups = {}
    for i, u in enumerate(utts):
        groups.setdefault(target_T if mode == "fixed" else u.features.shape, []).append(i)
    chunks = [group[lo : lo + SCORE_CHUNK]
              for group in groups.values() for lo in range(0, len(group), SCORE_CHUNK)]

    def score(part):
        feats = [utts[i].features for i in part]
        if mode == "fixed":  # crop per chunk: one chunk of copies per worker
            feats = [fix_length(f, target_T) for f in feats]
        return model.score(np.stack(feats))

    scores = {}
    for part, got in zip(chunks, tt.map_workers(score, chunks)):
        scores.update(zip(part, got))
    return [ScoreRecord(u.id, scores[i]) for i, u in enumerate(utts)]


def split_by_label(records, labels_by_id):
    bona, spoof = [], []
    for rec in records:
        if rec.id not in labels_by_id:
            raise ConfigError(f"scored id {rec.id!r} missing from protocol")
        (bona if labels_by_id[rec.id] == "bonafide" else spoof).append(rec.score)
    return bona, spoof


def evaluate(model, utts, mode="fixed", costs: TdcfCosts | None = None,
             target_T=200, protocol=None):
    """Score a split and compute EER (and min t-DCF when costs are given)."""
    records = score_split(model, utts, mode=mode, target_T=target_T)
    labels = dict(protocol) if protocol is not None else {u.id: u.label for u in utts}
    bona, spoof = split_by_label(records, labels)
    eer, threshold = compute_eer(bona, spoof)
    report = {
        "eer": eer,
        "min_tdcf": compute_min_tdcf(bona, spoof, costs) if costs else None,
        "n_bona": len(bona),
        "n_spoof": len(spoof),
        "threshold": threshold,
    }
    return report, records


def report_json(report):
    """The JSON text of every report, results table and config echo."""
    return json.dumps(report, sort_keys=True, indent=2)


def write_report(report, path):
    Path(path).write_text(report_json(report) + "\n", encoding="utf-8")
