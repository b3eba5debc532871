import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmnet import tensor as tt
from tcmnet.data import CorpusSpec, generate_corpus
from tcmnet.metrics import (
    ScoreFileError,
    ScoreRecord,
    TdcfCosts,
    compute_eer,
    compute_min_tdcf,
    det_points,
    evaluate,
    read_scores,
    score_split,
    sweep_thresholds,
    write_scores,
)
from tcmnet.model import Model, ModelConfig
from tcmnet.tensor import ConfigError, Tensor

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import reference  # noqa: E402


def brute_force_min_tdcf(bona, spoof, costs):
    """Exhaustive enumeration over every candidate threshold."""
    bona, spoof = np.asarray(bona), np.asarray(spoof)
    denom = min(costs.c0 + costs.c1, costs.c0 + costs.c2)
    best = np.inf
    for tau in sweep_thresholds(bona, spoof):
        pmiss = np.mean(bona < tau)
        pfa = np.mean(spoof >= tau)
        best = min(best, (costs.c0 + costs.c1 * pmiss + costs.c2 * pfa) / denom)
    return min(best, 1.0)


def brute_force_det(bona, spoof):
    bona, spoof = np.asarray(bona), np.asarray(spoof)
    return [(float(np.mean(bona < tau)), float(np.mean(spoof >= tau)))
            for tau in sweep_thresholds(bona, spoof)]


def brute_force_eer(bona, spoof):
    bona, spoof = np.asarray(bona), np.asarray(spoof)
    best = None
    for tau in sweep_thresholds(bona, spoof):
        pmiss = np.mean(bona < tau)
        pfa = np.mean(spoof >= tau)
        if best is None or abs(pmiss - pfa) < best[0]:
            best = (abs(pmiss - pfa), (pmiss + pfa) / 2.0)
    return best[1]


# ---------------------------------------------------------------------------
# EER


def test_eer_perfect_separation():
    eer, _ = compute_eer([0.9, 0.8], [0.1, 0.2])
    assert eer == 0.0


def test_eer_perfect_inversion():
    eer, _ = compute_eer([0.1, 0.2], [0.9, 0.8])
    assert eer == 1.0


def test_eer_hand_case_one_third():
    eer, _ = compute_eer([0.8, 0.4, 0.6], [0.5, 0.2, 0.7])
    assert eer == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_eer_empty_class_rejected():
    with pytest.raises(ConfigError):
        compute_eer([], [0.5])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30),
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30),
)
def test_eer_in_unit_interval_and_matches_bruteforce(bona, spoof):
    eer, _ = compute_eer(bona, spoof)
    assert 0.0 <= eer <= 1.0
    assert eer == brute_force_eer(bona, spoof)


@settings(max_examples=50, deadline=None)
@given(
    # Subnormals are excluded: the transform below can round two distinct
    # subnormal scores to the same value, creating ties it should not.
    st.lists(
        st.floats(-5, 5, allow_nan=False, allow_subnormal=False),
        min_size=2, max_size=20,
    ),
    st.lists(
        st.floats(-5, 5, allow_nan=False, allow_subnormal=False),
        min_size=2, max_size=20,
    ),
)
def test_eer_invariant_under_increasing_transform(bona, spoof):
    eer1, _ = compute_eer(bona, spoof)
    f = lambda s: [np.tanh(x) * 3.0 + 0.1 * x for x in s]
    eer2, _ = compute_eer(f(bona), f(spoof))
    assert eer1 == pytest.approx(eer2, abs=1e-12)


def test_eer_class_swap_with_negation():
    rng = np.random.default_rng(0)
    bona = rng.standard_normal(17).tolist()
    spoof = (rng.standard_normal(23) - 0.5).tolist()
    eer1, _ = compute_eer(bona, spoof)
    eer2, _ = compute_eer([-s for s in spoof], [-s for s in bona])
    assert eer1 == pytest.approx(eer2, abs=1e-12)


def test_eer_constant_scores_degenerate():
    # all thresholds tie at |Pmiss - Pfa| crossing; lowest threshold wins,
    # giving (0 + 1)/2 on a balanced corpus
    eer, _ = compute_eer([0.0, 0.0], [0.0, 0.0])
    assert eer == 0.5


# ---------------------------------------------------------------------------
# min t-DCF


def test_min_tdcf_perfect_separation_zero():
    costs = TdcfCosts(0.0, 1.0, 1.0)
    assert compute_min_tdcf([0.9, 0.8], [0.1, 0.2], costs) == 0.0


def test_min_tdcf_symmetric_costs_twice_eer_region():
    rng = np.random.default_rng(1)
    bona = rng.standard_normal(25) + 1.0
    spoof = rng.standard_normal(25)
    costs = TdcfCosts(0.0, 1.0, 1.0)
    tdcf = compute_min_tdcf(bona, spoof, costs)
    eer, _ = compute_eer(bona, spoof)
    # min over tau of (Pmiss + Pfa)/1 <= 2 * EER at the crossing
    assert tdcf <= 2.0 * eer + 1e-12


def test_min_tdcf_invalid_costs():
    with pytest.raises(ConfigError):
        TdcfCosts(0.1, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=20),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=20),
    st.floats(0.0, 1.0),
    st.floats(0.1, 5.0),
    st.floats(0.1, 5.0),
)
def test_min_tdcf_matches_bruteforce(bona, spoof, c0, c1, c2):
    costs = TdcfCosts(c0, c1, c2)
    assert compute_min_tdcf(bona, spoof, costs) == brute_force_min_tdcf(
        bona, spoof, costs
    )


# ---------------------------------------------------------------------------
# DET points


def test_det_points_perfect_separation_contains_origin():
    pts = det_points([0.9, 0.8], [0.1, 0.2])
    assert (0.0, 0.0) in pts


def test_det_points_single_scores():
    pts = det_points([1.0], [0.0])
    assert pts[0] == (0.0, 1.0)
    assert pts[-1] == (1.0, 0.0)


def test_det_points_monotone_on_random_scores():
    rng = np.random.default_rng(2)
    pts = det_points(rng.standard_normal(50), rng.standard_normal(50))
    pmiss = [p for p, _ in pts]
    pfa = [f for _, f in pts]
    assert pmiss == sorted(pmiss)
    assert pfa == sorted(pfa, reverse=True)
    assert pts[0][1] == 1.0 and pts[-1][0] == 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=30),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=30),
    st.sampled_from([1.0, 0.25, 0.01]),
)
def test_det_points_match_bruteforce(bona, spoof, grid):
    # rounding to a coarse grid makes ties within and across classes
    bona = (np.round(np.asarray(bona) / grid) * grid).tolist()
    spoof = (np.round(np.asarray(spoof) / grid) * grid).tolist()
    assert det_points(bona, spoof) == brute_force_det(bona, spoof)


def test_metrics_tie_heavy_large_match_reference():
    rng = np.random.default_rng(5)
    bona = np.round(rng.standard_normal(9000) + 1.0, 2)
    spoof = np.round(rng.standard_normal(13000), 2)
    costs = TdcfCosts(0.05, 1.0, 10.0)
    eer, threshold = compute_eer(bona, spoof)
    ref_eer, ref_threshold = reference.eer(bona, spoof)
    assert (eer, threshold) == (ref_eer, ref_threshold)
    assert eer == brute_force_eer(bona, spoof)
    assert compute_min_tdcf(bona, spoof, costs) == reference.min_tdcf(
        bona, spoof, costs.c0, costs.c1, costs.c2)
    assert det_points(bona, spoof) == reference.det_points(bona, spoof)


# ---------------------------------------------------------------------------
# score files


def test_score_file_roundtrip(tmp_path):
    records = [ScoreRecord("u1", 0.123456), ScoreRecord("u2", -1.5)]
    path = tmp_path / "scores.txt"
    write_scores(records, path)
    loaded = read_scores(path)
    assert [(r.id, r.score) for r in loaded] == [("u1", 0.123456), ("u2", -1.5)]


def test_score_file_malformed_line(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("u1 abc\n")
    with pytest.raises(ScoreFileError, match="line 1"):
        read_scores(path)


def test_score_file_non_utf8_names_the_file(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_bytes(b"u1 0.5\nu\xff2 0.25\n")
    with pytest.raises(ScoreFileError, match="not UTF-8") as info:
        read_scores(path)
    assert str(path) in str(info.value)


def test_score_file_large_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    records = [ScoreRecord(f"u{i}", round(float(rng.standard_normal()), 6))
               for i in range(1000)]
    path = tmp_path / "scores.txt"
    write_scores(records, path)
    loaded = read_scores(path)
    assert [(r.id, r.score) for r in loaded] == [(r.id, r.score) for r in records]


# ---------------------------------------------------------------------------
# evaluate


def _tiny_split(n=16):
    spec = CorpusSpec(n_train=1, n_dev=1, n_eval=n, feature_dim=6, t_min=8,
                      t_max=12, band_width=2, seg_len=4, amplitude=2.0, seed=11)
    return generate_corpus(spec)["eval"]


def _tiny_model():
    return Model(ModelConfig(feature_dim=6, dim=8, heads=2, blocks=1,
                             conv_kernel=3, dropout=0.0), seed=0)


def test_evaluate_reports_counts_and_range():
    utts = _tiny_split()
    report, records = evaluate(_tiny_model(), utts, mode="fixed",
                               costs=TdcfCosts(0.0, 1.0, 1.0), target_T=10)
    assert report["n_bona"] + report["n_spoof"] == len(utts) == len(records)
    assert 0.0 <= report["eer"] <= 1.0
    assert 0.0 <= report["min_tdcf"] <= 1.0


def test_evaluate_constant_scores_half_eer():
    utts = _tiny_split()
    model = _tiny_model()
    model.p("head.weight").data[:] = 0.0
    model.p("head.bias").data[:] = 0.0
    report, _ = evaluate(model, utts, mode="fixed", target_T=10)
    assert report["eer"] == 0.5


def test_evaluate_missing_protocol_id():
    utts = _tiny_split(4)
    with pytest.raises(ConfigError, match="missing from protocol"):
        evaluate(_tiny_model(), utts, mode="fixed", target_T=10,
                 protocol=[(utts[0].id, utts[0].label)])


@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_scoring_restores_grad_mode_and_tape(mode):
    # scoring runs under no_grad; training that follows must record again
    utts = _tiny_split(6)
    model = _tiny_model()
    x = Tensor(np.ones(3), requires_grad=True)
    tt.reset_tape()
    try:
        tt.sum_all(x)
        score_split(model, utts, mode=mode, target_T=10)
        evaluate(model, utts, mode=mode, target_T=10)
        assert len(tt.active_tape()) == 1
        assert tt.sum_all(x).requires_grad
        assert len(tt.active_tape()) == 2
    finally:
        tt.reset_tape()


def test_evaluate_variable_mode_scores_full_length():
    utts = _tiny_split(6)
    model = _tiny_model()
    records = score_split(model, utts, mode="variable")
    by_hand = [model.score(u.features) for u in utts]
    assert [r.score for r in records] == by_hand


def test_evaluate_matches_independent_pipeline(tmp_path):
    # end-to-end: score file + protocol through a separately scripted
    # metric computation
    utts = _tiny_split()
    model = _tiny_model()
    report, records = evaluate(model, utts, mode="fixed", target_T=10)
    path = tmp_path / "scores.txt"
    write_scores(records, path)
    labels = {u.id: u.label for u in utts}
    bona = [r.score for r in read_scores(path) if labels[r.id] == "bonafide"]
    spoof = [r.score for r in read_scores(path) if labels[r.id] == "spoof"]
    # recompute from the written file (6-digit rounding) via brute force
    assert brute_force_eer(bona, spoof) == pytest.approx(report["eer"], abs=1e-4)
