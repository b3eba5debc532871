"""tcmnet benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

Run from anywhere; tcmnet is imported from `src/` next to this directory,
never from an installed copy. The workload's inputs come from `--seed`.
Set-up runs several times and reports its median; then units of work run
one after another (a closed loop, one client) until `--seconds` is spent.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
spends half the time untraced and half traced, and reports the per-layer
metrics: self time per unit of work (plus one set-up) for every wrapped
layer, call counts, and the tracing overhead. Spans go to
`.bench_out/<workload>-seed<seed>-spans.jsonl.gz`, and each run's result, the
named metrics and the machine to `.bench_out/<workload>-seed<seed>-trace<t>.json`.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUPS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Pin BLAS to the CPUs this process may use; must precede numpy import."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def machine(nproc):
    import numpy as np
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_units(wl, state, seconds, checks, span=None):
    """Closed loop: start another unit while it is expected to end in time.
    Returns the wall seconds of each unit. A unit that raises counts as a
    failed operation and ends the loop."""
    times = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            if span is None:
                result = wl.unit(state)
            else:
                with span():
                    result = wl.unit(state)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checks.add(False, "unit raised")
            return times
        times.append(perf_counter() - t0)
        wl.check(state, result, checks)
        if perf_counter() - start + median(times) > seconds:
            return times


def end_to_end(wl, seconds, checks):
    setup_s = []
    for _ in range(SETUPS):
        state = None
        gc.collect()
        t0 = perf_counter()
        state = wl.setup()
        setup_s.append(perf_counter() - t0)
    run_units(wl, state, seconds, checks)
    wl.finish(state, checks)
    generic, named = wl.summary()
    values = {"setup_s": median(setup_s),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              **generic}
    named = {"setup_s": (values["setup_s"], "s"),
             "peak_rss_mb": (values["peak_rss_mb"], "MB"), **named}
    return values, named


def per_layer(wl, seconds, checks, spans_path):
    from perfbench.trace import TENSOR_OPS, Tracer
    from perfbench.workloads import percentile

    tracer = Tracer()
    tracer.install()
    with tracer.span("setup"):
        state = wl.setup()
    tracer.uninstall()
    untraced = run_units(wl, state, seconds / 2, checks)
    tracer.install()
    try:
        traced = run_units(wl, state, seconds / 2, checks, span=lambda: tracer.span(wl.root))
    finally:
        tracer.uninstall()
    wl.finish(state, checks)

    per_root = {"setup": 1, wl.root: len(traced)}
    ms, calls = defaultdict(float), defaultdict(float)
    attributed_ns = spans = 0
    for (root, layer), (ns, count) in tracer.self_times().items():
        if root in per_root:
            ms[layer] += ns / 1e6 / per_root[root]
            calls[layer] += count / per_root[root]
        if root == wl.root:
            spans += count
            attributed_ns += 0 if layer == root else ns
    steps = step_ms(tracer)
    n_steps = len(tracer.tape_nodes)
    unit_ms = sum(t1 - t0 for _, t0, t1, _ in tracer.roots(wl.root)) / 1e6 / len(traced)
    untraced_ms = 1e3 * sum(untraced) / len(untraced)

    out = {}
    for op in TENSOR_OPS:
        out[f"tensor.{op}.fwd_ms"] = ms[f"tensor.{op}.fwd"]
        out[f"tensor.{op}.bwd_ms"] = ms[f"tensor.{op}.bwd"]
        out[f"tensor.{op}.calls"] = calls[f"tensor.{op}.fwd"]
    out["tensor.backward_ms"] = ms["tensor.backward"]
    out["tensor.tape_nodes_per_step"] = median(tracer.tape_nodes) if n_steps else 0
    for layer in ("project_features", "block_forward", "tcm_forward",
                  "generate_head_tokens", "tcm_attention", "enrich_cls", "dropout_mask"):
        out[f"model.{layer}_ms"] = ms[f"model.{layer}"]
    out["model.dropout_masks_per_step"] = tracer.dropout_masks / n_steps if n_steps else 0
    out["train.step_ms_p50"] = percentile(steps, 50) if steps else 0.0
    out["train.step_ms_p90"] = percentile(steps, 90) if steps else 0.0
    for layer in ("batch_logits", "weighted_cross_entropy", "adam_step", "validate",
                  "checkpoint", "other"):
        out[f"train.{layer}_ms"] = ms[f"train.{layer}"]
    for layer in ("generate_corpus", "batch_iter", "fix_length"):
        out[f"data.{layer}_ms"] = ms[f"data.{layer}"]
    for layer in ("score_split", "split_by_label", "compute_eer", "compute_min_tdcf",
                  "det_points", "read_scores", "write_scores"):
        out[f"metrics.{layer}_ms"] = ms[f"metrics.{layer}"]
    out["metrics.thresholds_swept"] = tracer.thresholds / len(traced)
    out["bench.other_ms"] = ms["bench.other"]
    out["trace.unit_ms"] = unit_ms
    out["trace.untraced_unit_ms"] = untraced_ms
    out["trace.overhead_ms"] = unit_ms - untraced_ms
    out["trace.attributed_frac"] = attributed_ns / 1e6 / len(traced) / unit_ms
    out["trace.spans_per_unit"] = spans / len(traced)
    tracer.write(spans_path)
    named = {
        "units_untraced": (len(untraced), "count"),
        "units_traced": (len(traced), "count"),
        "steps_traced": (n_steps, "count"),
    }
    return out, named


def step_ms(tracer):
    """Training step wall times: from fetching a batch to the end of its Adam step."""
    names = tracer.names
    steps, fetched = [], None
    for nid, t0, t1, _ in tracer.spans:
        if names[nid] == "data.batch_iter":
            fetched = t0 if fetched is None else fetched
        elif names[nid] == "train.adam_step" and fetched is not None:
            steps.append((t1 - fetched) / 1e6)
            fetched = None
    return steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import tcmnet
    except ImportError as exc:
        print(f"perfbench: tcmnet sources not found under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(tcmnet.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported tcmnet from {tcmnet.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, Checks

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    host = machine(nproc)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"inputs-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            values, named = per_layer(wl, args.seconds, checks, OUT / f"{tag}-spans.jsonl.gz")
            declared = spec["per_layer"]
        else:
            values, named = end_to_end(wl, args.seconds, checks)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: measured {sorted(set(values) ^ {m['name'] for m in declared})} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    failed_frac = checks.failed / checks.attempted
    named["ops_failed_frac"] = (failed_frac, f"of {checks.attempted}")

    print(f"machine: {json.dumps(host)}")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in named.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, m in metrics.items():
        if name not in named:
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for note in checks.notes:
        print(f"  check failed: {note}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": host,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "check_failures": checks.notes, **result}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
