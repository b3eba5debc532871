"""Guard for the benchmark's tracer: `perfbench/trace.py` wraps tcmnet
functions by name, so a rename in `src/` would only show when
`perfbench/run.py --trace 1` runs. Here the tracer is installed against
the current package, driven through a tiny training and scoring run, and
uninstalled. Likewise `perfbench/workloads.py` times a desk variant by
swapping `experiments.train` and `experiments.evaluate`, and times
variable-mode scoring by wrapping `Model.score`."""

import sys
from pathlib import Path

import pytest

from tcmnet import data as D
from tcmnet import experiments as E
from tcmnet import metrics as M
from tcmnet import model as MD
from tcmnet import tensor as tt
from tcmnet import train as TR

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.trace import FUNCTIONS, MODEL_METHODS, TENSOR_OPS, Tracer  # noqa: E402
from perfbench.workloads import SAMPLE_UTTS, Checks, ScoreEval, _Capture  # noqa: E402


def _bindings():
    """Every attribute of every loaded tcmnet module and patched class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "tcmnet" or name.startswith("tcmnet."):
            out.update(((name, attr), value) for attr, value in vars(mod).items())
    for cls in (MD.Model, MD.DropoutCtx):
        out.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
    return out


def _tiny_corpus():
    spec = D.CorpusSpec(n_train=6, n_dev=4, n_eval=6, feature_dim=6, t_min=8,
                        t_max=12, band_width=2, seg_len=4, amplitude=2.0, seed=3)
    return D.generate_corpus(spec)


TINY_MODEL = MD.ModelConfig(feature_dim=6, dim=8, heads=2, blocks=1, conv_kernel=3,
                            dropout=0.1)
TINY_TRAIN = TR.TrainConfig(batch_size=3, max_epochs=1, target_T=10, seed=3)


def _tiny_run(tmp_path):
    corpus = _tiny_corpus()
    net = MD.Model(TINY_MODEL, seed=0)
    result = TR.train(net, corpus["train"], corpus["dev"], TINY_TRAIN)
    TR.load_into_model(net, result.final)
    costs = M.TdcfCosts(0.0, 1.0, 1.0)
    for mode in ("fixed", "variable"):
        _, records = M.evaluate(net, corpus["eval"], mode=mode, costs=costs,
                                target_T=10)
    path = tmp_path / "scores.txt"
    M.write_scores(records, path)
    bona, spoof = M.split_by_label(M.read_scores(path),
                                   {u.id: u.label for u in corpus["eval"]})
    M.det_points(bona, spoof)


@pytest.fixture(autouse=True)
def _fresh_tape():
    tt.reset_tape()
    yield
    tt.reset_tape()


def test_tracer_binds_and_restores_every_name(tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        expected = (
            {("tcmnet.tensor", op) for op in TENSOR_OPS + ("backward",)}
            | {(f"tcmnet.{mod}", fn) for mod, fn in FUNCTIONS}
            | {("tcmnet.metrics", "sweep_thresholds"), ("DropoutCtx", "mask")}
            | {("Model", meth) for meth in MODEL_METHODS}
        )
        assert expected <= wrapped, sorted(expected - wrapped)
        _tiny_run(tmp_path)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []

    spans = set(tracer.names)
    layers = (
        {f"tensor.{op}.fwd" for op in TENSOR_OPS}
        | set(FUNCTIONS.values()) | set(MODEL_METHODS.values())
        | {"tensor.backward", "model.dropout_mask"}
    )
    assert layers <= spans, sorted(layers - spans)
    assert tracer.tape_nodes and tracer.dropout_masks and tracer.thresholds


def test_run_variant_calls_train_and_evaluate_through_module_globals():
    # the train_desk workload times and checks a desk variant by capturing
    # experiments.train and experiments.evaluate around run_variant
    corpus = _tiny_corpus()
    with _Capture(E, "train") as fit, _Capture(E, "evaluate") as ev:
        report = E.run_variant(corpus, TINY_MODEL, TINY_TRAIN, target_T=12)
    assert len(fit.seconds) == 1 and len(ev.seconds) == 1
    assert len(fit.value.history) == TINY_TRAIN.max_epochs
    assert [r.id for r in ev.value[1]] == [u.id for u in corpus["eval"]]
    assert report["eer"] == ev.value[0]["eer"]
    assert {"eer", "val_loss"} <= report.keys()


def test_score_eval_workload_runs_on_a_tiny_split(monkeypatch, tmp_path):
    # ScoreEval reads its shapes from DeskConfig; finish() samples
    # SAMPLE_UTTS utterances, and summary() takes percentiles of the
    # Model.score call times, so a scoring path that bypasses Model.score
    # would fail the whole benchmark run
    spec = D.CorpusSpec(n_train=1, n_dev=1, n_eval=SAMPLE_UTTS + 4, feature_dim=6,
                        t_min=8, t_max=12, band_width=2, seg_len=4, amplitude=2.0)
    tiny = E.DeskConfig(corpus=spec, model=TINY_MODEL, eval_target_T=10)
    monkeypatch.setattr(E, "DeskConfig", lambda: tiny)
    workload, checks = ScoreEval(seed=3, workdir=tmp_path), Checks()
    state = workload.setup()
    for _ in range(2):
        workload.check(state, workload.unit(state), checks)
    workload.finish(state, checks)
    gated, named = workload.summary()
    assert checks.attempted > 0 and checks.failed == 0, checks.notes
    assert named["score_variable_samples"][0] > 0
    assert gated["items_per_s"] > 0 and gated["unit_s"] > 0
