#!/usr/bin/env python3
"""Compare two experiment result files run by run.

    python scripts/compare_runs.py OLD.json NEW.json

Reads the `runs` rows of a desk experiment (`scripts/desk_experiment.py`)
or the `rows` of `tcmnet ablate` / `tcmnet sweep-heads`, pairs the rows of
the two files by their labels and seed, and prints every field that
differs, except `elapsed`, with its absolute and relative difference.
Exits 1 if the rows do not pair one to one or any `eer` differs.
"""

import argparse
import json
import math
import sys
from pathlib import Path

# what run_grid adds to a row's labels and seed
REPORT_FIELDS = {"eer", "threshold", "min_tdcf", "n_bona", "n_spoof", "val_loss",
                 "epochs", "error", "elapsed"}
COMPARED = REPORT_FIELDS - {"elapsed"}


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
    return 0 if compare(load_rows(args.old), load_rows(args.new)) else 1


if __name__ == "__main__":
    sys.exit(main())
