"""Micro-batches and scoring chunks on worker threads (`tensor.shard_rows`,
`tensor.map_workers`): per-thread tape and grad mode, and results that do
not depend on the CPU count."""

import faulthandler
import multiprocessing
import os
import re
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from helpers import forward_score, use_cpus
from tcmnet import metrics
from tcmnet import tensor as tt
from tcmnet.data import CorpusSpec, Utterance, fix_length, generate_corpus
from tcmnet.experiments import VARIANTS
from tcmnet.metrics import score_split
from tcmnet.model import DropoutCtx, Model, ModelConfig, TcmToggles
from tcmnet.tensor import ConfigError, Tensor
from tcmnet.train import AdamState, TrainConfig, batch_logits, train_epoch, validate

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


def _config(kind, toggles):
    return ModelConfig(feature_dim=6, dim=8, heads=2, blocks=2, conv_kernel=3,
                       dropout=0.2, block_kind=kind, toggles=toggles)


def _run(cfg, corpus):
    """Two training steps at B=5, then validation and scoring in both modes."""
    model = Model(cfg, seed=4)
    tconf = TrainConfig(batch_size=5, target_T=10, seed=2)
    weights = [1.0, 1.5]
    loss = train_epoch(model, corpus["train"], tconf, 1, AdamState(), weights)
    val = validate(model, corpus["dev"], tconf, weights)
    scores = [r.score for r in score_split(model, corpus["eval"], target_T=12)]
    variable = [r.score for r in score_split(model, corpus["eval"], mode="variable")]
    params = b"".join(t.data.tobytes() for t in model.params.values())
    return loss, val, scores, variable, params


@pytest.mark.parametrize("kind", ["conformer", "transformer"])
def test_shard_count_does_not_change_results(kind, monkeypatch, busy_threads):
    spec = CorpusSpec(n_train=10, n_dev=7, n_eval=7, feature_dim=6, t_min=8,
                      t_max=12, band_width=2, seg_len=4, amplitude=2.0, seed=8)
    corpus = generate_corpus(spec)
    for name, toggles in VARIANTS:
        cfg = _config(kind, toggles)
        results = {}
        for n in (1, 2, 3):
            use_cpus(monkeypatch, n)
            results[n] = _run(cfg, corpus)
        for n in (2, 3):
            assert results[n] == results[1], (name, n)


def _mixed_length_split():
    """Shuffled utterances: one length seen once, one seen 35 times (a
    remainder of 3 after chunks of 8 or of 32), and a few lengths in
    between."""
    lengths = [7] + [9] * 35 + [8, 8, 10, 10, 10, 11, 11]
    rng = np.random.default_rng(11)
    rng.shuffle(lengths)
    return [Utterance(f"u{i:02d}", rng.standard_normal((T, 6)), "spoof")
            for i, T in enumerate(lengths)]


def _check_scores_at_every_chunk_and_cpu_count(monkeypatch, m, utts, want, **kw):
    for chunk in (8, 32):
        monkeypatch.setattr(metrics, "SCORE_CHUNK", chunk)
        for n in (1, 2, 3):
            use_cpus(monkeypatch, n)
            records = score_split(m, utts, **kw)
            assert [r.id for r in records] == [u.id for u in utts], (chunk, n)
            assert [r.score for r in records] == want, (chunk, n)


@pytest.mark.parametrize("kind", ["conformer", "transformer"])
def test_variable_scoring_matches_forward_per_utterance(kind, monkeypatch, busy_threads):
    utts = _mixed_length_split()
    m = Model(_config(kind, TcmToggles()), seed=12)
    want = [forward_score(m, u.features) for u in utts]
    tt.reset_tape()
    _check_scores_at_every_chunk_and_cpu_count(monkeypatch, m, utts, want, mode="variable")


def test_fixed_scoring_matches_forward_per_utterance(monkeypatch, busy_threads):
    utts = _mixed_length_split()
    m = Model(_config("conformer", TcmToggles()), seed=15)
    want = [forward_score(m, fix_length(u.features, 8)) for u in utts]
    tt.reset_tape()
    _check_scores_at_every_chunk_and_cpu_count(monkeypatch, m, utts, want,
                                               mode="fixed", target_T=8)


@pytest.mark.parametrize("n", [2, 3])
def test_training_after_scoring_records_on_shard_tapes(n, monkeypatch):
    use_cpus(monkeypatch, n)
    corpus = generate_corpus(CorpusSpec(n_train=6, n_dev=1, n_eval=20, feature_dim=6,
                                        t_min=8, t_max=12, band_width=2, seg_len=4,
                                        amplitude=2.0, seed=16))
    m = Model(_config("conformer", TcmToggles()), seed=16)
    for mode in ("fixed", "variable"):
        score_split(m, corpus["eval"], mode=mode, target_T=10)
    main = tt.active_tape()
    seen = []
    forward_batch = Model.forward_batch

    def recording(self, *args, **kwargs):
        out = forward_batch(self, *args, **kwargs)
        tape = tt.active_tape()
        seen.append((tape is not main, out.requires_grad, len(tape) > 0))
        return out

    monkeypatch.setattr(Model, "forward_batch", recording)
    train_epoch(m, corpus["train"], TrainConfig(batch_size=6, target_T=10), 1,
                AdamState(), [1.0, 1.0])
    assert seen == [(True, True, True)] * tt.MICRO_BATCHES


@pytest.mark.parametrize("n", [2, 3])
def test_a_chunk_error_reaches_the_caller_after_every_chunk(n, monkeypatch):
    use_cpus(monkeypatch, n)
    utts = _mixed_length_split()
    m = Model(_config("transformer", TcmToggles()), seed=17)
    score, done = Model.score, []

    def first_chunk_fails(self, feats):
        # the chunk that holds utts[0] is submitted first and fails at once
        if feats.shape[1:] == utts[0].features.shape and np.array_equal(
                feats[0], utts[0].features):
            done.append(-len(feats))
            raise ValueError("chunk failed")
        time.sleep(0.01)
        out = score(self, feats)
        done.append(len(out))
        return out

    monkeypatch.setattr(Model, "score", first_chunk_fails)
    with pytest.raises(ValueError, match="chunk failed"):
        score_split(m, utts, mode="variable")
    failed = [c for c in done if c < 0]
    assert len(failed) == 1 and sum(c for c in done if c > 0) == len(utts) + failed[0]


def test_score_takes_one_utterance_or_a_stack(monkeypatch):
    use_cpus(monkeypatch, 2)
    m = Model(_config("conformer", TcmToggles()), seed=13)
    feats = np.random.default_rng(13).standard_normal((5, 9, 6))
    x = Tensor(np.ones(3), requires_grad=True)
    tt.sum_all(x)
    assert type(m.score(feats[0])) is float
    batch = m.score(feats)
    assert type(batch) is list and batch == [m.score(f) for f in feats]
    for bad in (feats[0, 0], feats[None]):
        with pytest.raises(ConfigError, match=re.escape(f"features, got {bad.shape}")):
            m.score(bad)
    assert len(tt.active_tape()) == 1
    assert tt.sum_all(x).requires_grad


def test_sharded_gradients_match_one_thread(monkeypatch, busy_threads):
    cfg = _config("conformer", VARIANTS[1][1])
    m = Model(cfg, seed=6)
    feats = np.random.default_rng(6).standard_normal((7, 9, 6))
    grads = {}
    for n in (1, 2, 3):
        use_cpus(monkeypatch, n)
        tt.reset_tape()
        m.zero_grads()
        logits = batch_logits(m, feats, drop=DropoutCtx(0.2, 6))
        tt.backward(tt.sum_all(tt.mul(logits, Tensor([[1.0, -2.0]]))))
        grads[n] = {k: t.grad.copy() for k, t in m.params.items()}
    assert np.count_nonzero(m.grad) > m.grad.size // 2
    for n in (2, 3):
        for k, g in grads[1].items():
            assert np.array_equal(grads[n][k], g), (n, k)


@pytest.mark.parametrize("kind", ["conformer", "transformer"])
@pytest.mark.parametrize("B", [1, 7, 20])
def test_step_gradient_is_the_in_order_sum_of_the_micro_batch_gradients(
        kind, B, monkeypatch, busy_threads):
    use_cpus(monkeypatch, 2)
    m = Model(_config(kind, TcmToggles()), seed=B)
    rng = np.random.default_rng(B)
    feats, w = rng.standard_normal((B, 9, 6)), rng.standard_normal((B, 2))
    drop = DropoutCtx(0.2, 5, 1, 2)
    m.zero_grads()
    logits = batch_logits(m, feats, drop=drop)
    tt.backward(tt.sum_all(tt.mul(logits, Tensor(w))))
    got = m.grad.copy()
    tt.reset_tape()
    # the oracle: each micro-batch's own gradient, one after another on
    # this thread, added in micro-batch order
    n = min(tt.MICRO_BATCHES, B)
    bounds = [B * i // n for i in range(n + 1)]
    want = np.zeros_like(got)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        m.zero_grads()
        out = m.forward_batch(feats[lo:hi], drop=drop.rows(lo))
        tt.backward(tt.sum_all(tt.mul(out, Tensor(w[lo:hi]))))
        tt.reset_tape()
        want += m.grad
    assert np.count_nonzero(got) > got.size // 2
    assert np.array_equal(got, want)
    assert not m.micro_grad.any()
    # and the step equals one whole-batch step on this thread: the same
    # logits bit for bit, the gradient up to the order of its sums
    m.zero_grads()
    whole = m.forward_batch(feats, drop=DropoutCtx(0.2, 5, 1, 2))
    tt.backward(tt.sum_all(tt.mul(whole, Tensor(w))))
    tt.reset_tape()
    assert np.array_equal(whole.data, logits.data)
    gap = np.abs(m.grad - got).max() / np.abs(got).max()
    assert gap <= 1e-12, gap


@pytest.mark.parametrize("n", [1, 2])
def test_backward_leaves_no_gradient_on_any_tape_node(n, monkeypatch):
    # an intermediate gradient is freed once its node's backward has run;
    # only the parameters keep theirs (their sum over micro-batches is
    # checked above)
    use_cpus(monkeypatch, n)
    m = Model(_config("conformer", TcmToggles()), seed=8)
    rng = np.random.default_rng(8)
    feats, w = rng.standard_normal((7, 9, 6)), Tensor(rng.standard_normal((7, 2)))
    tapes = []
    forward_batch = Model.forward_batch

    def recording(self, *args, **kwargs):
        tapes.append(tt.active_tape())
        return forward_batch(self, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_batch", recording)
    m.zero_grads()
    tt.backward(tt.sum_all(tt.mul(batch_logits(m, feats, drop=DropoutCtx(0.2, 8)), w)))
    assert len(tapes) == 2 and tt.active_tape() not in tapes
    assert np.count_nonzero(m.grad) > m.grad.size // 2
    for tape in tapes + [tt.active_tape()]:
        assert len(tape) and all(node.grad is None for node, _ in tape.ops)
    tt.reset_tape()
    # and on one whole-batch forward_batch tape
    tt.backward(tt.sum_all(tt.mul(forward_batch(m, feats, drop=DropoutCtx(0.2, 8)), w)))
    assert len(tt.active_tape())
    assert all(node.grad is None for node, _ in tt.active_tape().ops)


def _send_logits(m, feats, conn):
    conn.send_bytes(batch_logits(m, feats).data.tobytes())
    conn.close()


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_a_forked_child_runs_sharded_calls_on_a_pool_of_its_own(monkeypatch):
    # the child inherits the parent's started pool, but none of its threads
    use_cpus(monkeypatch, 2)
    m = Model(_config("conformer", VARIANTS[1][1]), seed=9)
    feats = np.random.default_rng(9).standard_normal((4, 9, 6))
    expected = batch_logits(m, feats).data.tobytes()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_logits, args=(m, feats, send))
    child.start()
    send.close()
    child.join(timeout=20)
    if child.is_alive():
        child.terminate()
        child.join()
    assert child.exitcode == 0
    assert recv.recv_bytes() == expected


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
    use_cpus(monkeypatch, 2)
    m = Model(_config("conformer", VARIANTS[1][1]), seed=7)
    feats = np.random.default_rng(7).standard_normal((4, 9, 6))
    shard_tapes = []

    def rows(i, lo, hi):
        shard_tapes.append(weakref.ref(tt.active_tape()))
        return m.micro[i].forward_batch(feats[lo:hi])

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
    use_cpus(monkeypatch, 2)
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
    use_cpus(monkeypatch, 2)

    def rows(i, lo, hi):
        if lo:
            raise ValueError(f"bad rows {lo}:{hi}")
        return Tensor(np.zeros((hi - lo, 2)))

    with pytest.raises(ValueError, match="bad rows 2:4"):
        tt.shard_rows(rows, 4)


def test_shard_rows_inside_a_shard_runs_on_that_shards_thread(monkeypatch, busy_threads):
    # a nested call that queued on the busy pool would wait for itself
    use_cpus(monkeypatch, 2)
    threads = []

    def outer(i, lo, hi):
        def inner(j, a, b):
            threads.append((threading.current_thread(), outer_thread))
            return Tensor(np.arange(lo + a, lo + b, dtype=float)[:, None])

        outer_thread = threading.current_thread()
        return tt.shard_rows(inner, hi - lo)

    out = tt.shard_rows(outer, 4)
    assert out.data[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert len(threads) == 4 and all(t is o for t, o in threads)


def test_calls_inside_a_map_workers_item_run_on_that_items_thread(monkeypatch, busy_threads):
    # a nested call that queued on the busy pool would wait for itself
    use_cpus(monkeypatch, 2)
    seen = []

    def item(i):
        me = threading.current_thread()
        inner = tt.map_workers(lambda _: threading.current_thread(), [0, 1, 2])
        shard_threads = []

        def rows(i, lo, hi):
            shard_threads.append(threading.current_thread())
            return Tensor(np.zeros((hi - lo, 1)))

        tt.shard_rows(rows, 4)
        seen.append((me, inner, shard_threads))
        return i

    assert tt.map_workers(item, [0, 1, 2, 3]) == [0, 1, 2, 3]
    assert len(seen) == 4
    for me, inner, shard_threads in seen:
        assert me is not threading.main_thread()
        assert inner == [me] * 3 and shard_threads == [me] * tt.MICRO_BATCHES


def test_map_workers_runs_at_most_one_call_per_usable_cpu():
    lock = threading.Lock()
    running, most = 0, 0

    def work(i):
        nonlocal running, most
        with lock:
            running += 1
            most = max(most, running)
        time.sleep(0.002)
        with lock:
            running -= 1
        return i

    assert tt.map_workers(work, list(range(20))) == list(range(20))
    assert 1 <= most <= tt._usable_cpus()
