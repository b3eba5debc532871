"""The experiment runner. `run_variant` trains one model and scores its eval
split; `run_grid` runs every seed × every variant, one row per run. The
desk-scale separation experiment (median EER of baseline, TCM and TCM
without CLS enrichment over five corpus seeds), `tcmnet ablate` and
`tcmnet sweep-heads` all run through it. Within a seed every variant trains
on the same corpus, so any gap is attributable to the architecture. Runs
are deterministic given the config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from statistics import median

from .data import CorpusSpec, generate_corpus
from .metrics import evaluate
from .model import Model, ModelConfig, TcmToggles
from .tensor import ConfigError
from .train import TrainConfig, load_into_model, train

# The ablation table: variant name -> the five TCM toggles
VARIANTS = (
    ("baseline", TcmToggles(use_tcm=False)),
    ("tcm", TcmToggles()),
    ("no_ht_embedding", TcmToggles(ht_embedding=False)),
    ("no_ht_in_mhsa", TcmToggles(ht_in_mhsa=False)),
    ("no_mean_ht_to_cls", TcmToggles(add_mean_ht_to_cls=False)),
    ("no_mean_tt_to_cls", TcmToggles(add_mean_tt_to_cls=False)),
    ("no_cls_enrichment", TcmToggles(add_mean_ht_to_cls=False,
                                     add_mean_tt_to_cls=False)),
)
DESK_VARIANTS = ("baseline", "tcm", "no_cls_enrichment")


@dataclass
class DeskConfig:
    seeds: tuple = (0, 1, 2, 3, 4)
    corpus: CorpusSpec = field(default_factory=lambda: CorpusSpec(
        n_train=2000, n_dev=500, n_eval=1000, feature_dim=64,
        t_min=150, t_max=250, seg_len=150, amplitude=0.7))
    model: ModelConfig = field(default_factory=lambda: ModelConfig(
        feature_dim=64, dim=32, heads=4, blocks=2, dropout=0.1))
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=3e-3, max_epochs=2, target_T=100, top_k_average=1))
    # Eval-time crop length: scoring longer windows than were trained on is
    # cheap and reduces eval noise.
    eval_target_T: int = 125


def run_variant(corpus, model_config, train_config, costs=None, target_T=None,
                mode="fixed", config_echo=None):
    """Train one model on a corpus and score its eval split."""
    model = Model(model_config, seed=train_config.seed)
    result = train(model, corpus["train"], corpus["dev"], train_config,
                   config_echo=config_echo)
    load_into_model(model, result.final)
    report, _ = evaluate(model, corpus["eval"], mode=mode, costs=costs,
                         target_T=target_T or train_config.target_T)
    report["val_loss"] = result.final.val_loss
    report["epochs"] = len(result.history)
    return report


def toggle_variants(names=None):
    """`VARIANTS` (or the named ones, in that order) as `run_grid` variants."""
    table = dict(VARIANTS)
    return [({"variant": n}, {"toggles": table[n]}) for n in names or table]


def run_grid(corpora, base, variants, train_config, log=None, **score):
    """Every seed × every variant. `corpora` yields (seed, corpus) pairs;
    each variant is (labels, changes), the `ModelConfig` fields it replaces
    in `base`. Each row holds the labels, `seed`, the `run_variant` report
    and `elapsed` seconds; a variant whose config is invalid gives a row
    with `error` instead of a report. `score` goes to `run_variant`."""
    rows = []
    for seed, corpus in corpora:
        tc = replace(train_config, seed=seed)
        for labels, changes in variants:
            t0 = time.time()
            row = {**labels, "seed": seed}
            try:
                mc = replace(base, **changes)
            except ConfigError as exc:
                row["error"] = str(exc)
            else:
                row.update(run_variant(corpus, mc, tc, **score))
            row["elapsed"] = time.time() - t0
            rows.append(row)
            if log:
                tag = " ".join(f"{k}={row[k]}" for k in (*labels, "seed"))
                outcome = (f"error: {row['error']}" if "error" in row else
                           f"eer={row['eer']:.4f} val_loss={row['val_loss']:.4f}")
                log(f"{tag}: {outcome} {row['elapsed']:.1f}s")
    return rows


def run_desk_experiment(config: DeskConfig, log=None):
    """Full sweep: every seed x every desk variant. Returns a result dict
    with per-run rows, per-variant medians, and total wall-clock seconds."""
    started = time.time()
    corpora = ((s, generate_corpus(replace(config.corpus, seed=s)))
               for s in config.seeds)
    runs = run_grid(corpora, config.model, toggle_variants(DESK_VARIANTS),
                    config.train, log=log, target_T=config.eval_target_T)
    medians = {
        name: median([r["eer"] for r in runs if r["variant"] == name])
        for name in DESK_VARIANTS
    }
    return {"runs": runs, "median_eer": medians,
            "total_seconds": time.time() - started}
