"""The three benchmark workloads.

Each workload turns `--seed` into inputs (`setup`), runs one unit of work
through tcmnet's public API (`unit`), and checks the unit's outputs
(`check`) outside the timed region. `summary` turns the timed units into
the named end-to-end metrics.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from tcmnet import data, experiments, metrics, model
from tcmnet import tensor as tt

from . import reference

# ASVspoof 2019 LA evaluation protocol: 7,355 bona fide and 63,882 spoof trials
ASVSPOOF_LA_EVAL = (7355, 63882)
TDCF_COSTS = metrics.TdcfCosts(c0=0.05, c1=1.0, c2=10.0)
SAMPLE_UTTS = 16
# desk EERs lie near 0.13 and an untrained model scores near 0.5
MAX_TRAINED_EER = 0.3


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Checks:
    """Counts checked outputs; every failed check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def count(self, ok_mask, what):
        ok_mask = np.asarray(ok_mask, dtype=bool)
        bad = int(ok_mask.size - ok_mask.sum())
        self.attempted += int(ok_mask.size)
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad} of {ok_mask.size}")


class _Capture:
    """Keeps the last return value of a tcmnet function and the wall time of
    every call, while the `with` block lasts."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        self.value, self.seconds = None, []

    def __enter__(self):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            self.value = self.original(*args, **kwargs)
            self.seconds.append(perf_counter() - t0)
            return self.value

        setattr(self.owner, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)
        return False


class Workload:
    """`setup()` builds the inputs, `unit(state)` is one timed unit of work,
    `check` and `finish` count checked outputs, and `summary()` returns the
    gated end-to-end values and the named metrics as (value, unit) pairs.
    `root` names the traced span around a unit; its self time is the part
    of the unit that no wrapped layer covers."""

    root = "bench.other"

    def finish(self, state, checks):
        """Checks made once per run, after every unit."""


class TrainDesk(Workload):
    """One `experiments.run_variant` at `DeskConfig` defaults, tcm toggles."""

    name = "train_desk"
    root = "train.other"

    def __init__(self, seed, workdir):
        desk = experiments.DeskConfig()
        self.corpus_spec = replace(desk.corpus, seed=seed)
        self.model_config = replace(desk.model, toggles=model.TcmToggles())
        self.train_config = replace(desk.train, seed=seed)
        self.eval_T = desk.eval_target_T
        self.first = None
        self.variant_s, self.train_s = [], []

    def setup(self):
        return data.generate_corpus(self.corpus_spec)

    def unit(self, corpus):
        with _Capture(experiments, "train") as fit, \
                _Capture(experiments, "evaluate") as ev:
            t0 = perf_counter()
            report = experiments.run_variant(corpus, self.model_config,
                                             self.train_config, target_T=self.eval_T)
            self.variant_s.append(perf_counter() - t0)
        self.train_s.append(fit.seconds[0])
        return report, fit.value.history, ev.value[1]

    def check(self, corpus, result, checks):
        report, history, records = result
        losses = [h[k] for h in history for k in ("train_loss", "val_loss")]
        checks.add(len(history) == self.train_config.max_epochs, "epoch count")
        checks.count(np.isfinite(losses), "non-finite loss")
        scores = np.array([r.score for r in records])
        checks.count(np.isfinite(scores), "non-finite eval score")
        labels = {u.id: u.label for u in corpus["eval"]}
        bona = [r.score for r in records if labels[r.id] == "bonafide"]
        spoof = [r.score for r in records if labels[r.id] == "spoof"]
        checks.add(report["eer"] == reference.eer(bona, spoof)[0], "eval EER vs reference")
        checks.add(report["eer"] < MAX_TRAINED_EER, "training did not separate the classes")
        if self.first is None:
            self.first = (report["eer"], report["val_loss"], scores)
        else:
            same = (report["eer"], report["val_loss"]) == self.first[:2] \
                and np.array_equal(scores, self.first[2])
            checks.add(same, "rerun under the same seed is not bit-identical")

    def summary(self):
        n_train = self.corpus_spec.n_train * self.train_config.max_epochs
        return {
            "unit_s": median(self.variant_s),
            "items_per_s": n_train / median(self.train_s),
        }, {
            "desk_variant_s": (median(self.variant_s), "s"),
            "train_utt_per_s": (n_train / median(self.train_s), "1/s"),
            "eval_eer": (self.first[0], "fraction"),
        }


class ScoreEval(Workload):
    """A model with fixed weights scores a 1000-utterance eval split twice:
    variable mode (one full-length utterance at a time) and fixed mode
    (batched chunks of 32, cropped to T=125)."""

    name = "score_eval"

    def __init__(self, seed, workdir):
        desk = experiments.DeskConfig()
        # train and dev are minimal: only the eval split is scored
        self.corpus_spec = replace(desk.corpus, seed=seed, n_train=1, n_dev=1)
        self.model_config = replace(desk.model, toggles=model.TcmToggles())
        self.fixed_T = desk.eval_target_T
        self.sample_rng = np.random.default_rng([seed, 0x5C0E])
        self.first = None
        self.variable_s, self.fixed_s, self.latency_s = [], [], []

    def setup(self):
        # The split stays in memory: a feature-file round trip writes 51 MB
        # per set-up, and freeing written blocks on a disk with slow discard
        # stalled runs for minutes.
        utts = data.generate_corpus(self.corpus_spec)["eval"]
        return utts, model.Model(self.model_config, seed=0)

    def unit(self, state):
        utts, net = state
        with _Capture(model.Model, "score") as per_utt:
            t0 = perf_counter()
            variable = metrics.score_split(net, utts, mode="variable")
            t1 = perf_counter()
        self.latency_s += per_utt.seconds
        fixed = metrics.score_split(net, utts, mode="fixed", target_T=self.fixed_T)
        t2 = perf_counter()
        self.variable_s.append(t1 - t0)
        self.fixed_s.append(t2 - t1)
        return variable, fixed

    def check(self, state, result, checks):
        utts, _ = state
        ids = [u.id for u in utts]
        for records in result:
            checks.add([r.id for r in records] == ids, "score order")
            checks.count(np.isfinite([r.score for r in records]), "non-finite score")
        scores = [np.array([r.score for r in records]) for records in result]
        if self.first is None:
            self.first = scores
        else:
            checks.add(all(np.array_equal(a, b) for a, b in zip(scores, self.first)),
                       "rescoring the same split is not bit-identical")

    def finish(self, state, checks):
        """Sampled cross-checks of the batched paths against `Model.score`."""
        utts, net = state
        variable, fixed = self.first
        for i in self.sample_rng.choice(len(utts), SAMPLE_UTTS, replace=False):
            feats = utts[i].features
            want = net.score(data.fix_length(feats, self.fixed_T))
            checks.add(abs(fixed[i] - want) <= 1e-9, f"fixed-mode score of {utts[i].id}")
            with tt.no_grad():
                lg = net.forward_batch(feats[None]).data[0]
            checks.add(abs(variable[i] - (lg[0] - lg[1])) <= 1e-9,
                       f"variable-mode score of {utts[i].id}")
        bona = [s for s, u in zip(variable, utts) if u.label == "bonafide"]
        spoof = [s for s, u in zip(variable, utts) if u.label == "spoof"]
        self.eer = metrics.compute_eer(bona, spoof)[0]
        checks.add(self.eer == reference.eer(bona, spoof)[0], "score EER vs reference")

    def summary(self):
        n = self.corpus_spec.n_eval
        variable_rate = n / median(self.variable_s)
        return {
            "unit_s": median(a + b for a, b in zip(self.variable_s, self.fixed_s)),
            "items_per_s": variable_rate,
        }, {
            "score_variable_utt_per_s": (variable_rate, "1/s"),
            "score_variable_ms_p50": (1e3 * percentile(self.latency_s, 50), "ms"),
            "score_variable_ms_p99": (1e3 * percentile(self.latency_s, 99), "ms"),
            "score_fixed_utt_per_s": (n / median(self.fixed_s), "1/s"),
            "score_variable_samples": (len(self.latency_s), "count"),
            "score_eer": (self.eer, "fraction"),
        }


class MetricsLargeN(Workload):
    """Score-file round trip and EER / min t-DCF / DET at ASVspoof 2019 LA
    eval size, on synthetic scores; bypasses `model` and `tensor`."""

    name = "metrics_large_n"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.path = Path(workdir) / "scores.txt"
        self.expected = None
        self.chain_s, self.compute_s = [], []
        self.eer = None

    def setup(self):
        n_bona, n_spoof = ASVSPOOF_LA_EVAL
        rng = np.random.default_rng([self.seed, 0x5C02E])
        # two overlapping unit Gaussians on a 1e-6 grid, so ties occur
        micro = np.concatenate([rng.normal(1.5, 1.0, n_bona), rng.normal(0.0, 1.0, n_spoof)])
        scores = np.rint(micro * 1e6) / 1e6
        labels = np.array(["bonafide"] * n_bona + ["spoof"] * n_spoof)
        order = rng.permutation(scores.size)
        ids = [f"LA_E_{i:07d}" for i in range(scores.size)]
        records = [metrics.ScoreRecord(ids[j], float(scores[i])) for j, i in enumerate(order)]
        return records, dict(zip(ids, labels[order].tolist()))

    def unit(self, state):
        records, labels = state
        t0 = perf_counter()
        metrics.write_scores(records, self.path)
        read = metrics.read_scores(self.path)
        bona, spoof = metrics.split_by_label(read, labels)
        t1 = perf_counter()
        eer = metrics.compute_eer(bona, spoof)
        tdcf = metrics.compute_min_tdcf(bona, spoof, TDCF_COSTS)
        det = metrics.det_points(bona, spoof)
        t2 = perf_counter()
        self.chain_s.append(t2 - t0)
        self.compute_s.append(t2 - t1)
        return read, eer, tdcf, det

    def check(self, state, result, checks):
        records, labels = state
        read, eer, tdcf, det = result
        if self.expected is None:
            bona = [r.score for r in records if labels[r.id] == "bonafide"]
            spoof = [r.score for r in records if labels[r.id] == "spoof"]
            c = TDCF_COSTS
            self.expected = (reference.eer(bona, spoof),
                             reference.min_tdcf(bona, spoof, c.c0, c.c1, c.c2),
                             reference.det_points(bona, spoof))
            self.eer = self.expected[0][0]
        checks.add(read == records, "score file round trip")
        want_eer, want_tdcf, want_det = self.expected
        checks.add(tuple(map(float, eer)) == tuple(map(float, want_eer)), "EER vs reference")
        checks.add(tdcf == want_tdcf, "min t-DCF vs reference")
        checks.add(det == want_det, "DET points vs reference")

    def summary(self):
        n = sum(ASVSPOOF_LA_EVAL)
        return {
            "unit_s": median(self.chain_s),
            "items_per_s": n / median(self.compute_s),
        }, {
            "metrics_s": (median(self.chain_s), "s"),
            "metrics_trials_per_s": (n / median(self.compute_s), "1/s"),
            "metrics_eer": (self.eer, "fraction"),
        }


WORKLOADS = {w.name: w for w in (TrainDesk, ScoreEval, MetricsLargeN)}
