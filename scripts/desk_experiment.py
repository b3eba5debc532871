#!/usr/bin/env python3
"""Run the desk-scale separation experiment and print per-run and median
eval EER for the baseline, full TCM, and no-CLS-enrichment variants."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tcmnet.experiments import DeskConfig, run_desk_experiment
from tcmnet.metrics import write_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--out", default="desk_results.json")
    args = ap.parse_args()

    config = DeskConfig(seeds=tuple(args.seeds))
    results = run_desk_experiment(config, log=print)
    for name, med in results["median_eer"].items():
        print(f"median EER {name}: {med:.4f}")
    print(f"total: {results['total_seconds']:.0f}s")
    write_report(results, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
