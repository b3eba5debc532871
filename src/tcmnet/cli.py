"""Subcommand CLI: gen-data | train | eval | ablate | sweep-heads | params.

Every command takes --config (JSON, see config.py) plus repeatable
--set section.key=value overrides, writes a resolved-config echo next to
its outputs, logs JSON lines for machines and a short summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import data as D
from . import experiments as E
from . import metrics as M
from . import train as TR
from .config import RunConfig
from .model import Model, param_count, tcm_param_delta
from .tensor import ConfigError


def _say(msg):
    print(msg, file=sys.stderr)


def _load_config(args) -> RunConfig:
    return RunConfig.load(args.config, overrides=args.set or [])


def cmd_gen_data(args):
    cfg = _load_config(args)
    spec = cfg.corpus_spec()
    out_dir = Path(args.out_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise ConfigError(
            f"output directory {out_dir} is not empty; pass --force to overwrite"
        )
    corpus = D.generate_corpus(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    for split, utts in corpus.items():
        D.write_split(utts, out_dir / split)
        _say(f"wrote {len(utts)} utterances to {out_dir / split}")
    cfg.write_echo(out_dir / "resolved_config.json")
    return 0


def _load_corpus_split(data_dir, split):
    split_dir = Path(data_dir) / split
    if not split_dir.is_dir():
        raise ConfigError(f"missing split directory {split_dir}")
    return D.read_split(split_dir)


def cmd_train(args):
    cfg = _load_config(args)
    train_utts = _load_corpus_split(args.data_dir, "train")
    dev_utts = _load_corpus_split(args.data_dir, "dev")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # resolve class weights up front so the echo and checkpoints carry them
    if not cfg.train_config().class_weights:
        cfg.doc.setdefault("train", {})["class_weights"] = (
            TR.inverse_frequency_weights(train_utts)
        )
    cfg.write_echo(out_dir / "resolved_config.json")
    model_config = cfg.model_config(train_utts[0].F)

    log_path = out_dir / "train_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as log:

        def log_fn(rec):
            log.write(json.dumps(rec, sort_keys=True) + "\n")
            log.flush()
            _say(
                f"epoch {rec['epoch']}: train {rec['train_loss']:.4f} "
                f"val {rec['val_loss']:.4f}"
            )

        tconf = cfg.train_config()
        model = Model(model_config, seed=tconf.seed)
        result = TR.train(model, train_utts, dev_utts, tconf,
                          config_echo=cfg.resolved(), log_fn=log_fn)

    for ck in result.checkpoints:
        TR.save_checkpoint(ck, out_dir / f"epoch_{ck.epoch:03d}.ckpt")
    TR.save_checkpoint(result.final, out_dir / "final.ckpt")
    _say(f"saved {len(result.checkpoints)} epoch checkpoints and final.ckpt")
    return 0


def _model_from_checkpoint(ckpt: TR.Checkpoint, feature_dim):
    echo = ckpt.config_echo
    cfg = RunConfig(echo if isinstance(echo, dict) else {})
    model_config = cfg.model_config(feature_dim)
    model = Model(model_config, seed=0)
    TR.load_into_model(model, ckpt)
    return model, cfg


def _load_split_files(data_dir, split):
    """All feature files in the split plus the protocol, kept separate so
    evaluate can flag scored ids missing from the protocol."""
    split_dir = Path(data_dir) / split
    if not split_dir.is_dir():
        raise ConfigError(f"missing split directory {split_dir}")
    utts = D.read_feature_files(sorted(split_dir.glob("*.tcmf")))
    if not utts:
        raise ConfigError(f"no feature files in {split_dir}")
    return utts, D.read_protocol(split_dir / "protocol.txt")


def cmd_eval(args):
    cfg = _load_config(args) if args.config else None
    ckpt = TR.load_checkpoint(args.checkpoint)
    utts, protocol = _load_split_files(args.data_dir, args.split)
    model, ckpt_cfg = _model_from_checkpoint(ckpt, utts[0].F)
    active = cfg or ckpt_cfg
    costs = active.tdcf_costs()
    tconf = active.train_config()
    mode = args.mode or active.eval_mode()
    report, records = M.evaluate(
        model, utts, mode=mode, costs=costs,
        target_T=tconf.target_T, protocol=protocol,
    )
    weights = tconf.class_weights or TR.inverse_frequency_weights(utts)
    report["mean_loss"] = TR.validate(model, utts, tconf, weights)
    report["mode"] = mode
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    active.write_echo(out_dir / "resolved_config.json")
    M.write_scores(records, out_dir / "scores.txt")
    M.write_report(report, out_dir / "report.json")
    print(M.report_json(report))
    _say(f"eer {report['eer']:.4f} over {len(records)} utterances ({mode} mode)")
    return 0


def _run_grid(args, variants, **fixed):
    """Train and score `variants(base)` on the data directory's corpus under
    the config's seed; print the rows and write them to --out-dir. `fixed`
    replaces model fields of the config before `base` is validated."""
    cfg = _load_config(args)
    corpus = {s: _load_corpus_split(args.data_dir, s) for s in D.SPLITS}
    base = cfg.model_config(corpus["train"][0].F, **fixed)
    tconf = cfg.train_config()
    table = {"rows": E.run_grid(
        [(tconf.seed, corpus)], base, variants(base), tconf, log=_say,
        costs=cfg.tdcf_costs(), mode=cfg.eval_mode(), config_echo=cfg.resolved(),
    )}
    print(json.dumps(table, sort_keys=True, indent=2))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        E.write_results(table, out_dir / "results.json")
        cfg.write_echo(out_dir / "resolved_config.json")
    return 0


def cmd_ablate(args):
    return _run_grid(args, lambda base: E.toggle_variants())


def cmd_sweep_heads(args):
    def variants(base):
        return [
            ({"heads": h, "use_tcm": use_tcm},
             {"heads": h, "toggles": replace(base.toggles, use_tcm=use_tcm)})
            for h in args.heads or [4, 6, 8] for use_tcm in (False, True)
        ]

    # every row sets its own head count; 1 divides any dim, so the config's
    # own model.heads is never checked against the dim
    return _run_grid(args, variants, heads=1)


def cmd_params(args):
    cfg = _load_config(args)
    feature_dim = cfg.corpus_spec().feature_dim
    mc = cfg.model_config(feature_dim)
    model = Model(mc, seed=cfg.train_config().seed)
    total, delta = param_count(model)
    c = mc
    report = {
        "total": total,
        "tcm_delta": delta,
        "tcm_delta_full": tcm_param_delta(mc),
        "formula": (
            f"L*(d*D + D + H*D) = {c.blocks}*({c.head_dim}*{c.dim} + {c.dim} "
            f"+ {c.heads}*{c.dim}) = {tcm_param_delta(mc)}"
        ),
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tcmnet",
        description="Temporal-channel attention spoof detector: data, training, "
        "evaluation and ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the run-config JSON document")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set train.seed=3")

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated corpus")
    common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a split and report EER / min t-DCF")
    common(p, config_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--split", default="eval", choices=list(D.SPLITS))
    p.add_argument("--mode", choices=["fixed", "variable"])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train/evaluate every toggle variant")
    common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep-heads", help="train/evaluate across head counts")
    common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--heads", type=int, nargs="+")
    p.set_defaults(fn=cmd_sweep_heads)

    p = sub.add_parser("params", help="parameter accounting report")
    common(p)
    p.set_defaults(fn=cmd_params)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, D.FormatError, TR.CheckpointError, TR.NonFiniteError,
            M.ScoreFileError, OSError) as exc:
        _say(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
