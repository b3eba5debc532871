#!/usr/bin/env python3
"""Compare two experiment result files run by run.

    python scripts/compare_runs.py OLD.json NEW.json

Reads the `runs` rows of a desk experiment (`scripts/desk_experiment.py`)
or the `rows` of `tcmnet ablate` / `tcmnet sweep-heads`, pairs the rows of
the two files by their labels and seed, and prints every field that
differs, except `elapsed`, with its absolute and relative difference.
Exits 1 if the rows do not pair one to one or any `eer` differs.

For each file it also prints every variant's EER minus the `tcm` EER of
the run with the same seed (and other labels), with the median difference
and a 95% percentile bootstrap interval for it (Bengio and Mariethoz, "A
statistical significance test for person authentication", Odyssey 2004).
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

# what run_grid adds to a row's labels and seed
REPORT_FIELDS = {"eer", "threshold", "min_tdcf", "n_bona", "n_spoof", "val_loss",
                 "epochs", "error", "elapsed"}
COMPARED = REPORT_FIELDS - {"elapsed"}
# the variant every other one is paired with, and the bootstrap's constants
REFERENCE = "tcm"
RESAMPLES = 10000
BOOTSTRAP_SEED = 0


def load_rows(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = doc.get("runs", doc.get("rows")) if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise SystemExit(f"error: {path} has no 'runs' or 'rows' list")
    return rows


def run_key(row):
    """The row's labels and seed, as a sorted tuple of (field, value)."""
    return tuple(sorted((k, v) for k, v in row.items() if k not in REPORT_FIELDS))


def label(key):
    return " ".join(f"{k}={v}" for k, v in key)


def same(a, b):
    both_nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    return both_nan or (type(a) is type(b) and a == b)


def describe(a, b):
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers:
        return f"{a!r} -> {b!r}"
    diff = b - a
    rel = diff / abs(a) if a else math.copysign(math.inf, diff)
    return f"{a!r} -> {b!r} (abs {diff:+.3g}, rel {rel:+.3g})"


def eer_differences(rows):
    """{variant: [(other labels, eer - reference eer)]}, for the rows with a
    `variant` and an `eer`, each paired with the reference run that has the
    same other labels and seed."""
    runs = {run_key(r): r["eer"] for r in rows if "variant" in r
            and isinstance(r.get("eer"), float) and math.isfinite(r["eer"])}
    diffs = {}
    for key, eer in runs.items():
        labels = dict(key)
        ref = runs.get(run_key({**labels, "variant": REFERENCE}))
        if labels["variant"] != REFERENCE and ref is not None:
            rest = tuple(kv for kv in key if kv[0] != "variant")
            diffs.setdefault(labels["variant"], []).append((rest, eer - ref))
    return diffs


def bootstrap_median(values):
    """(median, lower, upper): the median of `values` and the 2.5th and
    97.5th percentiles of the medians of RESAMPLES resamples."""
    values = np.asarray(values, dtype=float)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    medians = np.median(rng.choice(values, size=(RESAMPLES, values.size)), axis=1)
    lower, upper = np.percentile(medians, [2.5, 97.5])
    return float(np.median(values)), float(lower), float(upper)


def print_eer_differences(name, rows):
    diffs = eer_differences(rows)
    if not diffs:
        return
    print(f"{name}: eer - {REFERENCE} eer, paired; median [95% bootstrap interval]")
    for variant, pairs in sorted(diffs.items()):
        per_run = ", ".join(f"{label(rest)} {d:+.4f}" for rest, d in sorted(pairs))
        med, lower, upper = bootstrap_median([d for _, d in pairs])
        print(f"  {variant}: {per_run}; median {med:+.4f} [{lower:+.4f}, {upper:+.4f}]")


def compare(old_rows, new_rows):
    """Print the differences; returns True iff the rows pair and no eer differs."""
    ok = True
    tables = []
    for name, rows in (("old", old_rows), ("new", new_rows)):
        table = {}
        for row in rows:
            key = run_key(row)
            if key in table:
                print(f"{name}: two rows for {label(key)}")
                ok = False
            table[key] = row
        tables.append(table)
    old, new = tables
    for key in old.keys() ^ new.keys():
        print(f"{'old' if key in old else 'new'} only: {label(key)}")
        ok = False
    n_diff = 0
    for key in [k for k in old if k in new]:
        a, b = old[key], new[key]
        for field in sorted((a.keys() | b.keys()) & COMPARED):
            va, vb = a.get(field), b.get(field)
            if not same(va, vb):
                print(f"{label(key)} {field}: {describe(va, vb)}")
                n_diff += 1
                ok = ok and field != "eer"
    print(f"{len(old.keys() & new.keys())} runs paired, {n_diff} fields differ")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    old_rows, new_rows = load_rows(args.old), load_rows(args.new)
    ok = compare(old_rows, new_rows)
    print_eer_differences("old", old_rows)
    print_eer_differences("new", new_rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
