"""Row shards on worker threads (`tensor.shard_rows`): per-thread tape and
grad mode, and results that do not depend on the shard count."""

import faulthandler
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from tcmnet import tensor as tt
from tcmnet.data import CorpusSpec, generate_corpus
from tcmnet.experiments import VARIANTS
from tcmnet.metrics import score_split
from tcmnet.model import DropoutCtx, Model, ModelConfig
from tcmnet.tensor import Tensor
from tcmnet.train import AdamState, TrainConfig, train_epoch, validate

# a deadlocked shard would hang the run; dump every thread's stack and exit
TIME_BOUND_S = 300


@pytest.fixture(autouse=True)
def _fresh_tape():
    tt.reset_tape()
    yield
    tt.reset_tape()


@pytest.fixture
def busy_threads():
    """A very short GIL switch interval, so threads interleave often, and a
    hard time bound."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    faulthandler.dump_traceback_later(TIME_BOUND_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        sys.setswitchinterval(interval)


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    assert tt._usable_cpus() == n


def _config(kind, toggles):
    return ModelConfig(feature_dim=6, dim=8, heads=2, blocks=2, conv_kernel=3,
                       dropout=0.2, block_kind=kind, toggles=toggles)


def _run(cfg, corpus):
    """Two training steps at B=5, then validation and fixed-mode scoring."""
    model = Model(cfg, seed=4)
    tconf = TrainConfig(batch_size=5, target_T=10, seed=2)
    weights = [1.0, 1.5]
    loss = train_epoch(model, corpus["train"], tconf, 1, AdamState(), weights)
    val = validate(model, corpus["dev"], tconf, weights)
    scores = [r.score for r in score_split(model, corpus["eval"], target_T=12)]
    params = b"".join(t.data.tobytes() for t in model.params.values())
    return loss, val, scores, params


@pytest.mark.parametrize("kind", ["conformer", "transformer"])
def test_shard_count_does_not_change_results(kind, monkeypatch, busy_threads):
    spec = CorpusSpec(n_train=10, n_dev=7, n_eval=7, feature_dim=6, t_min=8,
                      t_max=12, band_width=2, seg_len=4, amplitude=2.0, seed=8)
    corpus = generate_corpus(spec)
    for name, toggles in VARIANTS:
        cfg = _config(kind, toggles)
        results = {}
        for n in (1, 2, 3):
            _use_cpus(monkeypatch, n)
            results[n] = _run(cfg, corpus)
        for n in (2, 3):
            assert results[n] == results[1], (name, n)


def test_sharded_gradients_match_one_thread(monkeypatch, busy_threads):
    cfg = _config("conformer", VARIANTS[1][1])
    m = Model(cfg, seed=6)
    feats = np.random.default_rng(6).standard_normal((7, 9, 6))
    grads = {}
    for n in (1, 2, 3):
        _use_cpus(monkeypatch, n)
        tt.reset_tape()
        m.zero_grads()
        logits = m.forward_sharded(feats, drop=DropoutCtx(0.2, 6))
        tt.backward(tt.sum_all(tt.mul(logits, Tensor([[1.0, -2.0]]))))
        grads[n] = {k: t.grad.copy() for k, t in m.params.items()}
    for n in (2, 3):
        for k, g in grads[1].items():
            assert np.array_equal(grads[n][k], g), (n, k)


def test_no_grad_is_per_thread():
    x = Tensor(np.ones(3), requires_grad=True)
    inside, release = threading.Event(), threading.Event()
    seen = []

    def worker():
        with tt.no_grad():
            seen.append(tt.sum_all(x).requires_grad)
            inside.set()
            release.wait(10)

    t = threading.Thread(target=worker)
    t.start()
    try:
        assert inside.wait(10)
        assert tt.sum_all(x).requires_grad
        assert len(tt.active_tape()) == 1
    finally:
        release.set()
        t.join(10)
    assert not t.is_alive() and seen == [False]
    assert tt.sum_all(x).requires_grad


def test_each_thread_records_on_its_own_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    tapes = []

    def worker():
        tt.sum_all(x)
        tapes.append((tt.active_tape(), len(tt.active_tape())))

    t = threading.Thread(target=worker)
    t.start()
    t.join(10)
    assert not t.is_alive()
    (tape, length), = tapes
    assert tape is not tt.active_tape() and length == 1
    assert len(tt.active_tape()) == 0


def test_shard_nodes_stay_off_the_callers_tape(monkeypatch):
    _use_cpus(monkeypatch, 2)
    m = Model(_config("conformer", VARIANTS[1][1]), seed=7)
    feats = np.random.default_rng(7).standard_normal((4, 9, 6))
    shard_tapes = []

    def rows(lo, hi):
        shard_tapes.append(weakref.ref(tt.active_tape()))
        return m.forward_batch(feats[lo:hi])

    logits = tt.shard_rows(rows, 4)
    main = tt.active_tape()
    assert len(main) == 1 and main.ops[0][0] is logits
    assert len(shard_tapes) == 2
    assert all(t() is not main and len(t()) for t in shard_tapes)
    tt.backward(tt.sum_all(logits))
    assert len(main) == 2
    tt.reset_tape()
    assert [t() for t in shard_tapes] == [None, None]


def test_shard_tapes_are_freed_after_a_training_step(monkeypatch):
    _use_cpus(monkeypatch, 2)
    corpus = generate_corpus(CorpusSpec(n_train=4, n_dev=1, n_eval=1, feature_dim=6,
                                        t_min=8, t_max=12, band_width=2, seg_len=4,
                                        amplitude=2.0, seed=9))
    m = Model(_config("transformer", VARIANTS[0][1]), seed=9)
    tapes = []
    forward_batch = Model.forward_batch

    def recording(self, *args, **kwargs):
        assert tt.active_tape() is not main
        tapes.append(weakref.ref(tt.active_tape()))
        return forward_batch(self, *args, **kwargs)

    main = tt.active_tape()
    monkeypatch.setattr(Model, "forward_batch", recording)
    train_epoch(m, corpus["train"], TrainConfig(batch_size=4, target_T=10), 1,
                AdamState(), [1.0, 1.0])
    assert len(tapes) == 2 and [t() for t in tapes] == [None, None]
    assert len(main) == 0


def test_shard_error_reaches_the_caller(monkeypatch):
    _use_cpus(monkeypatch, 2)

    def rows(lo, hi):
        if lo:
            raise ValueError(f"bad rows {lo}:{hi}")
        return Tensor(np.zeros((hi - lo, 2)))

    with pytest.raises(ValueError, match="bad rows 2:4"):
        tt.shard_rows(rows, 4)


def test_shard_rows_inside_a_shard_runs_on_that_shards_thread(monkeypatch, busy_threads):
    # a nested call that queued on the busy pool would wait for itself
    _use_cpus(monkeypatch, 2)
    threads = []

    def outer(lo, hi):
        def inner(a, b):
            threads.append((threading.current_thread(), outer_thread))
            return Tensor(np.arange(lo + a, lo + b, dtype=float)[:, None])

        outer_thread = threading.current_thread()
        return tt.shard_rows(inner, hi - lo)

    out = tt.shard_rows(outer, 4)
    assert out.data[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert len(threads) == 2 and all(t is o for t, o in threads)
