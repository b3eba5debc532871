"""scripts/compare_runs.py: pairs result rows by labels and seed."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _PATH)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def _row(variant, seed, **report):
    base = {"variant": variant, "seed": seed, "eer": 0.25, "threshold": 0.5,
            "min_tdcf": None, "n_bona": 10, "n_spoof": 30, "val_loss": 0.6,
            "epochs": 2, "elapsed": 12.0}
    return {**base, **report}


def _write(path, rows, key="runs"):
    path.write_text(json.dumps({key: rows}))
    return str(path)


def _run(tmp_path, old, new, key="runs"):
    return compare_runs.main([_write(tmp_path / "old.json", old, key),
                              _write(tmp_path / "new.json", new, key)])


def test_equal_rows_in_another_order_pass(tmp_path, capsys):
    rows = [_row("tcm", 0), _row("baseline", 0), _row("tcm", 1)]
    new = [dict(r, elapsed=99.0) for r in reversed(rows)]
    assert _run(tmp_path, rows, new) == 0
    paired = ("eer - tcm eer, paired; median [95% bootstrap interval]\n"
              "  baseline: seed=0 +0.0000; median +0.0000 [+0.0000, +0.0000]\n")
    assert capsys.readouterr().out == (
        f"3 runs paired, 0 fields differ\nold: {paired}new: {paired}")


def test_a_differing_field_is_printed_but_only_eer_fails(tmp_path, capsys):
    old = [_row("tcm", 0)]
    assert _run(tmp_path, old, [_row("tcm", 0, val_loss=0.5)]) == 0
    out = capsys.readouterr().out
    assert "seed=0 variant=tcm val_loss: 0.6 -> 0.5" in out
    assert "abs -0.1, rel -0.167" in out and "1 fields differ" in out
    assert _run(tmp_path, old, [_row("tcm", 0, eer=0.3)]) == 1
    assert "eer: 0.25 -> 0.3" in capsys.readouterr().out


@pytest.mark.parametrize("new", [
    [_row("tcm", 1)],                   # another seed
    [_row("tcm", 0), _row("tcm", 0)],   # the same run twice
    [],
])
def test_rows_that_do_not_pair_fail(tmp_path, new):
    assert _run(tmp_path, [_row("tcm", 0)], new) == 1


def test_sweep_rows_pair_by_every_label(tmp_path, capsys):
    old = [{"heads": h, "use_tcm": u, "seed": 0, "eer": 0.2, "elapsed": 1.0}
           for h in (2, 4) for u in (False, True)]
    assert _run(tmp_path, old, old[::-1], key="rows") == 0
    assert "4 runs paired" in capsys.readouterr().out


def test_a_file_without_rows_is_an_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"median_eer": {}}))
    with pytest.raises(SystemExit, match="no 'runs' or 'rows' list"):
        compare_runs.main([str(bad), str(bad)])


def _ablation(tcm, **variants):
    """Rows of tcm and other variants over seeds 0.., from per-seed EERs."""
    rows = [_row("tcm", seed, eer=e) for seed, e in enumerate(tcm)]
    for name, eers in variants.items():
        rows += [_row(name, seed, eer=e) for seed, e in enumerate(eers)]
    return rows


def test_equal_eer_differences_have_a_zero_width_interval():
    diffs = compare_runs.eer_differences(_ablation([0.2] * 5, baseline=[0.25] * 5))
    assert list(diffs) == ["baseline"]
    assert [key for key, _ in diffs["baseline"]] == [(("seed", s),) for s in range(5)]
    values = [d for _, d in diffs["baseline"]]
    assert values == [0.25 - 0.2] * 5
    assert compare_runs.bootstrap_median(values) == (values[0],) * 3


def test_the_bootstrap_interval_brackets_the_median():
    rows = _ablation([0.20, 0.22, 0.18, 0.21, 0.19],
                     baseline=[0.21, 0.20, 0.21, 0.21, 0.24],
                     no_tcm=[0.30, 0.32, 0.25, 0.27, 0.26])
    diffs = compare_runs.eer_differences(rows)
    for name, pairs in diffs.items():
        values = [d for _, d in pairs]
        med, lower, upper = compare_runs.bootstrap_median(values)
        assert med == float(np.median(values))
        assert min(values) <= lower < med < upper <= max(values), name
    # a variant without a tcm row of the same seed is not paired
    assert "baseline" not in compare_runs.eer_differences(
        [r for r in rows if r["variant"] != "tcm"])


def test_a_rerun_prints_the_same_intervals(tmp_path, capsys):
    rows = _ablation([0.20, 0.22, 0.18], baseline=[0.21, 0.20, 0.25])
    outs = []
    for _ in range(2):
        assert _run(tmp_path, rows, rows) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert ("  baseline: seed=0 +0.0100, seed=1 -0.0200, seed=2 +0.0700; median +0.0100 ["
            in outs[0])
