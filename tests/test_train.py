import json
import platform
import re
import struct
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import checkpoint_arrays, checkpoint_of, run_in_fresh_interpreter
from oracles import adam_per_parameter, numpy_params
from tcmnet import tensor as tt
from tcmnet.data import (
    CorpusSpec,
    FormatError,
    Utterance,
    batch_iter,
    fix_length,
    generate_corpus,
    read_features,
    write_features,
)
from tcmnet.metrics import score_split
from tcmnet.model import Model, ModelConfig
from tcmnet.tensor import ConfigError, Tensor
from tcmnet.train import (
    AdamState,
    Checkpoint,
    CheckpointError,
    NonFiniteError,
    TrainConfig,
    _check_finite,
    adam_step,
    average_checkpoints,
    checkpoint_from_model,
    early_stop,
    inverse_frequency_weights,
    load_checkpoint,
    load_into_model,
    save_checkpoint,
    score_loss,
    train,
    train_epoch,
    validate,
    weighted_cross_entropy,
)


@pytest.fixture(autouse=True)
def _fresh_tape():
    tt.reset_tape()
    yield
    tt.reset_tape()


def tiny_corpus(seed=3, n_train=12, n_dev=6):
    spec = CorpusSpec(
        n_train=n_train, n_dev=n_dev, n_eval=4, feature_dim=6, t_min=8,
        t_max=12, band_width=2, seg_len=4, amplitude=2.0, seed=seed,
    )
    return generate_corpus(spec)


def tiny_model(seed=0, dropout=0.0):
    cfg = ModelConfig(
        feature_dim=6, dim=8, heads=2, blocks=1, conv_kernel=3,
        dropout=dropout, positional_encoding="sinusoidal",
    )
    return Model(cfg, seed=seed)


def tiny_train_config(**kw):
    defaults = dict(lr=1e-3, batch_size=4, max_epochs=2, target_T=10, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# weighted cross entropy


def test_wce_equal_logits_is_ln2():
    logits = Tensor(np.zeros((2, 2)))
    loss = weighted_cross_entropy(logits, [0, 1], [1.0, 1.0])
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_wce_linear_in_weights():
    logits = Tensor(np.random.default_rng(0).standard_normal((3, 2)))
    labels = [0, 1, 1]
    base = weighted_cross_entropy(logits, labels, [1.0, 1.0]).item()
    doubled = weighted_cross_entropy(logits, labels, [2.0, 2.0]).item()
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_wce_hand_summed_oracle():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((3, 2))
    labels = [1, 0, 1]
    weights = [0.7, 1.9]
    expect = 0.0
    for row, lab in zip(logits, labels):
        p = np.exp(row - row.max())
        p /= p.sum()
        expect += -weights[lab] * np.log(p[lab])
    expect /= 3.0
    got = weighted_cross_entropy(Tensor(logits), labels, weights).item()
    assert abs(got - expect) <= 1e-12


def test_wce_nonnegative_property():
    rng = np.random.default_rng(2)
    for _ in range(20):
        logits = Tensor(rng.standard_normal((4, 2)) * 5)
        labels = list(rng.integers(0, 2, size=4))
        assert weighted_cross_entropy(logits, labels, [1.0, 1.0]).item() >= 0


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_grad_no_move():
    theta = np.array([1.0, -2.0])
    state = AdamState()
    adam_step(theta, np.zeros(2), state, lr=0.1)
    assert np.array_equal(theta, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    theta = np.array([0.5, -0.5])
    adam_step(theta, np.array([0.3, -4.0]), AdamState(), lr=0.01)
    # bias correction makes the first step lr * sign(g) (up to eps)
    assert np.allclose(theta, [0.5 - 0.01, -0.5 + 0.01], atol=1e-6)


def test_adam_three_steps_match_hand_recurrence():
    grads = [0.5, -1.25, 0.3]
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    theta, m, v = 2.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    p = np.array([2.0])
    state = AdamState()
    for g in grads:
        adam_step(p, np.array([g]), state, lr=lr)
    assert abs(p[0] - theta) <= 1e-12


def test_adam_weight_decay_enters_gradient():
    theta = np.array([10.0])
    adam_step(theta, np.zeros(1), AdamState(), lr=0.01, weight_decay=0.1)
    # g = 0 + wd*theta > 0, first step is -lr * sign(g)
    assert theta[0] == pytest.approx(10.0 - 0.01, abs=1e-6)


def test_flat_adam_matches_per_parameter_loop_bit_for_bit():
    model = Model(ModelConfig(feature_dim=64, dim=32, heads=4, blocks=2), seed=7)
    params = numpy_params(model)
    oracle = {"m": {}, "v": {}, "step": 0}
    state = AdamState()
    rng = np.random.default_rng(7)
    for _ in range(5):
        # gradients over six orders of magnitude, some exactly zero
        model.grad[...] = rng.standard_normal(model.grad.size) * 10.0 ** rng.integers(
            -4, 2, size=model.grad.size)
        model.grad[rng.random(model.grad.size) < 0.05] = 0.0
        grads = {k: t.grad.copy() for k, t in model.params.items()}
        adam_step(model.flat, model.grad, state, lr=3e-3, weight_decay=1e-4)
        adam_per_parameter(params, grads, oracle, lr=3e-3, weight_decay=1e-4)
    for name, t in model.params.items():
        assert t.data.tobytes() == params[name].tobytes(), name
    assert state.step == oracle["step"] == 5


# ---------------------------------------------------------------------------
# the flat parameter store


def _assert_views(model):
    assert model.inventory == tuple((n, t.shape) for n, t in model.params.items())
    for name, t in model.params.items():
        assert np.shares_memory(t.data, model.flat), name
        assert np.shares_memory(t.grad, model.grad), name
    assert np.array_equal(np.concatenate([t.data.ravel() for t in model.params.values()]),
                          model.flat)
    # each micro-batch's parameters: the same values, a gradient row of its own
    assert model.micro_grad.shape == (tt.MICRO_BATCHES, model.flat.size)
    assert len(model.micro) == tt.MICRO_BATCHES
    for i, micro in enumerate(model.micro):
        assert list(micro.params) == list(model.params)
        for name, t in micro.params.items():
            own = model.params[name]
            assert t is not own and np.shares_memory(t.data, own.data), (i, name)
            assert t.data.shape == own.data.shape, (i, name)
            for j, row in enumerate(model.micro_grad):
                assert np.shares_memory(t.grad, row) == (i == j), (i, j, name)
            assert not np.shares_memory(t.grad, model.grad), (i, name)


def test_parameters_stay_views_of_the_flat_store():
    corpus = tiny_corpus()
    model = tiny_model(dropout=0.1)
    _assert_views(model)
    assert model.flat.size == model.grad.size == sum(
        t.size for t in model.params.values())
    result = train(model, corpus["train"], corpus["dev"], tiny_train_config())
    _assert_views(model)
    load_into_model(model, result.checkpoints[0])
    _assert_views(model)
    saved = checkpoint_arrays(result.checkpoints[0])
    for name, t in model.params.items():
        assert np.array_equal(t.data, saved[name]), name


def test_non_finite_gradient_in_the_flat_store_names_its_parameter():
    model = tiny_model()
    names = list(model.params)
    sizes = np.cumsum([0] + [t.size for t in model.params.values()])
    i = names.index("block0.conv.dw.kernel")
    model.grad[sizes[i] + 3] = np.nan
    with pytest.raises(NonFiniteError,
                       match="gradient for block0.conv.dw.kernel at epoch 2, batch 4$"):
        _check_finite(Tensor(0.5), model, 2, 4)
    model.grad[sizes[i] + 3] = 0.0
    _check_finite(Tensor(0.5), model, 2, 4)


# ---------------------------------------------------------------------------
# epochs


def test_train_epoch_lr_zero_equivalent():
    corpus = tiny_corpus()
    model = tiny_model()
    before = {k: t.data.copy() for k, t in model.params.items()}
    cfg = tiny_train_config(lr=1e-30, weight_decay=0.0)
    train_epoch(model, corpus["train"], cfg, 1, AdamState(), [1.0, 1.0])
    for k, t in model.params.items():
        assert np.allclose(t.data, before[k], atol=1e-20)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap reuse is set through glibc mallopt")
def test_training_steps_reuse_freed_heap_pages():
    # Freeing the tape must not hand heap pages back to the kernel, or
    # every step faults its whole working set in again. The steps run in a
    # fresh interpreter: the heap that earlier tests leave behind can fault
    # thousands of new pages into one step.
    faults = json.loads(run_in_fresh_interpreter(textwrap.dedent("""
        import json, resource
        import numpy as np
        from tcmnet.data import Utterance
        from tcmnet.model import Model, ModelConfig
        from tcmnet.train import AdamState, TrainConfig, train_epoch

        rng = np.random.default_rng(5)
        utts = [Utterance(f"u{i}", rng.standard_normal((100, 64)),
                          ("bonafide", "spoof")[i % 2]) for i in range(20)]
        model = Model(ModelConfig(feature_dim=64, dim=32, heads=4, blocks=2,
                                  dropout=0.1), seed=5)
        cfg = TrainConfig(batch_size=20, target_T=100)
        state, weights = AdamState(), [1.0, 1.0]
        train_epoch(model, utts, cfg, 0, state, weights)  # warm-up step
        faults = []  # per measured step
        for epoch in range(1, 4):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train_epoch(model, utts, cfg, epoch, state, weights)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(json.dumps(faults))
    """)))
    assert sum(faults) < 1000, (
        f"{sum(faults)} minor page faults in 3 training steps, {faults} per step")


def test_non_finite_loss_names_epoch_and_batch():
    utts = tiny_corpus()["train"]
    utts[5].features[:, 2] = np.nan
    cfg = tiny_train_config()
    batches = batch_iter(utts, cfg.batch_size, target_T=cfg.target_T, seed=[cfg.seed, 2])
    batch = next(i for i, b in enumerate(batches, start=1)
                 if utts[5].id in [u.id for u in b.utterances])
    model = tiny_model()
    with pytest.raises(NonFiniteError, match=f"loss is nan at epoch 2, batch {batch}$"):
        train_epoch(model, utts, cfg, 2, AdamState(), [1.0, 1.0])
    assert all(np.isfinite(t.data).all() for t in model.params.values())


def test_non_finite_gradient_names_parameter_epoch_and_batch():
    grad = np.array([0.0, 1.0, np.inf, 1.0])
    params = {"w": Tensor(np.ones(2), requires_grad=True),
              "b": Tensor(np.ones(2), requires_grad=True)}
    params["w"].grad, params["b"].grad = grad[:2], grad[2:]
    model = SimpleNamespace(params=params, grad=grad)
    with pytest.raises(NonFiniteError, match="gradient for b at epoch 3, batch 7$"):
        _check_finite(Tensor(0.5), model, 3, 7)


@pytest.mark.parametrize("empty", ["train", "dev"])
def test_train_refuses_an_empty_split_before_the_first_step(empty):
    corpus = tiny_corpus()
    corpus[empty] = []
    model = tiny_model()
    before = {k: t.data.copy() for k, t in model.params.items()}
    with pytest.raises(ConfigError, match=f"the {empty} split has no utterances"):
        train(model, corpus["train"], corpus["dev"], tiny_train_config())
    assert all(np.array_equal(t.data, before[k]) for k, t in model.params.items())


def test_training_bit_reproducible():
    corpus = tiny_corpus()
    results = []
    for _ in range(2):
        model = tiny_model(dropout=0.1)
        res = train(model, corpus["train"], corpus["dev"], tiny_train_config())
        results.append(res)
    a, b = results
    assert a.history == b.history
    assert a.final.inventory == b.final.inventory
    assert a.final.flat.tobytes() == b.final.flat.tobytes()


def test_single_step_descends_on_most_seeds():
    wins = []
    for seed in range(20):
        corpus = tiny_corpus(seed=seed, n_train=4, n_dev=2)
        model = tiny_model(seed=seed)
        cfg = tiny_train_config(lr=1e-3, batch_size=4, max_epochs=1)
        weights = [1.0, 1.0]
        before = validate(model, corpus["train"], cfg, weights)
        train_epoch(model, corpus["train"], cfg, 1, AdamState(), weights)
        after = validate(model, corpus["train"], cfg, weights)
        wins.append(after < before)
    assert np.median(wins) == 1.0


def test_validate_is_idempotent_and_pure():
    corpus = tiny_corpus()
    model = tiny_model()
    cfg = tiny_train_config()
    before = {k: t.data.copy() for k, t in model.params.items()}
    a = validate(model, corpus["dev"], cfg, [1.0, 1.0])
    b = validate(model, corpus["dev"], cfg, [1.0, 1.0])
    assert a == b
    for k, t in model.params.items():
        assert np.array_equal(t.data, before[k])


def test_validate_random_model_near_ln2():
    corpus = tiny_corpus(n_dev=50)
    model = tiny_model()
    model.params["head.weight"].data[:] = 0.0
    model.params["head.bias"].data[:] = 0.0
    cfg = tiny_train_config()
    loss = validate(model, corpus["dev"], cfg, [1.0, 1.0])
    assert loss == pytest.approx(np.log(2.0), abs=1e-9)


def test_score_loss_rows_equal_the_model_logits_loss_bit_for_bit():
    model = tiny_model(seed=5)
    feats = np.stack([fix_length(u.features, 10) for u in tiny_corpus(n_dev=9)["dev"]])
    with tt.no_grad():
        model_logits = model.forward_batch(feats).data
    rng = np.random.default_rng(5)
    pairs = rng.standard_normal((300, 2)) * 10.0 ** rng.integers(-3, 7, (300, 1))
    pairs[:20, 1] = pairs[:20, 0]  # ties
    for logits in (model_logits, pairs):
        lsm = tt.log_softmax_rows(Tensor(logits)).data
        for (l0, l1), row in zip(logits, lsm):
            for label, w in ((0, 1.0), (1, 1.0), (0, 0.7), (1, 2.5)):
                got = score_loss([l0 - l1], [label], [w, w])
                assert got == -(w * row[label])


def test_validate_is_the_score_loss_of_the_fixed_mode_scores():
    corpus = tiny_corpus(n_dev=11)
    model = tiny_model(seed=2)
    cfg = tiny_train_config(target_T=9)
    records = score_split(model, corpus["dev"], "fixed", 9)
    labels = [0 if u.label == "bonafide" else 1 for u in corpus["dev"]]
    want = score_loss([r.score for r in records], labels, [0.8, 1.3])
    assert validate(model, corpus["dev"], cfg, [0.8, 1.3]) == want


def test_validate_names_an_utterance_of_another_feature_dim():
    dev = tiny_corpus()["dev"]
    dev[2] = Utterance(dev[2].id, dev[2].features[:, :5], dev[2].label)
    with pytest.raises(ConfigError, match=f"utterance {dev[2].id!r}: feature dim 5"):
        validate(tiny_model(), dev, tiny_train_config(), [1.0, 1.0])


def test_inverse_frequency_weights():
    corpus = tiny_corpus()
    w = inverse_frequency_weights(corpus["train"])
    n_bona = sum(1 for u in corpus["train"] if u.label == "bonafide")
    n = len(corpus["train"])
    assert w[0] == pytest.approx(n / (2 * n_bona))


# ---------------------------------------------------------------------------
# early stopping


def test_early_stop_strictly_decreasing_never_fires():
    history = [1.0 - 0.01 * i for i in range(30)]
    for i in range(1, 31):
        assert not early_stop(history[:i], patience=7)


def test_early_stop_fires_after_seven_flat_epochs():
    history = [1.0] + [1.0] * 7
    assert early_stop(history, patience=7)
    assert not early_stop(history[:-1], patience=7)


def test_early_stop_reset_by_improvement():
    history = [1.0, 0.9] + [0.95] * 6
    assert not early_stop(history, patience=7)


def test_early_stop_never_fires_before_patience_plus_one():
    for n in range(1, 8):
        assert not early_stop([1.0] * n, patience=7)


def test_early_stop_nan_is_never_best():
    nan = float("nan")
    assert not early_stop([1.0, nan, 0.5], 1)
    assert early_stop([0.5, nan, 0.6], 2)
    assert not early_stop([nan, 1.0], 1)
    assert early_stop([nan, nan], 2)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    model = tiny_model(seed=9)
    ck = checkpoint_from_model(model, {"train": {"seed": 9}}, epoch=3,
                               val_loss=0.25)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.epoch == 3 and loaded.val_loss == 0.25
    assert loaded.config_echo == {"train": {"seed": 9}}
    assert loaded.inventory == ck.inventory
    assert loaded.flat.tobytes() == ck.flat.tobytes()


def test_checkpoint_load_into_mismatched_model(tmp_path):
    ck = checkpoint_from_model(tiny_model(), {}, 1, 0.5)
    other = Model(ModelConfig(feature_dim=6, dim=16, heads=2, blocks=1,
                              conv_kernel=3), seed=0)
    with pytest.raises(CheckpointError):
        load_into_model(other, ck)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_hand_built_single_parameter(tmp_path):
    blob = (
        b"TCMC" + struct.pack("<II", 1, 1)
        + struct.pack("<H", 1) + b"w"
        + struct.pack("<B", 1) + struct.pack("<I", 2)
        + struct.pack("<dd", 1.5, -2.0)
        + struct.pack("<I", 2) + b"{}"
        + struct.pack("<d", 0.125)
        + struct.pack("<I", 4)
    )
    path = tmp_path / "hand.ckpt"
    path.write_bytes(blob)
    ck = load_checkpoint(path)
    assert checkpoint_arrays(ck)["w"].tolist() == [1.5, -2.0]
    assert ck.val_loss == 0.125 and ck.epoch == 4 and ck.config_echo == {}


def test_checkpoint_repeated_tensor_name_names_its_offset(tmp_path):
    def tensor_a(value):  # name "a", rank 1, one value
        return struct.pack("<H", 1) + b"a" + struct.pack("<BId", 1, 1, value)

    head = b"TCMC" + struct.pack("<II", 1, 2)
    path = tmp_path / "twice.ckpt"
    path.write_bytes(head + tensor_a(1.0) + tensor_a(2.0) + struct.pack("<I", 2) + b"{}"
                     + struct.pack("<dI", 0.5, 1))
    at = len(head) + len(tensor_a(1.0)) + 2
    with pytest.raises(CheckpointError, match=f"tensor 1 repeats the name 'a' at offset {at}"
                       ) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def test_checkpoint_truncated_at_every_byte_names_field_and_offset(tmp_path):
    ck = checkpoint_of({"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5])},
                       {"train": {"seed": 9}}, epoch=2, val_loss=0.25)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ck, path)
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(CheckpointError, match=r"truncated checkpoint: need \d+ "
                           r"bytes for .+ at offset \d+, have \d+") as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")


def test_every_overwritten_byte_loads_or_names_the_file(tmp_path):
    feats, ckpt = tmp_path / "u.tcmf", tmp_path / "m.ckpt"
    write_features(Utterance("u1", np.ones((2, 3)), "spoof"), feats)
    save_checkpoint(checkpoint_of({"w": np.arange(6.0).reshape(2, 3), "b": np.ones(1)},
                                  {"a": [1]}, epoch=2, val_loss=0.25), ckpt)
    for path, load, error in ((feats, read_features, FormatError),
                              (ckpt, load_checkpoint, CheckpointError)):
        blob = path.read_bytes()
        for i in range(len(blob)):
            for byte in (0x00, 0x80, 0xFF):
                path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
                try:
                    load(path)
                except error as exc:
                    assert str(exc).startswith(f"{path}: ") and "offset" in str(exc), (
                        i, byte, str(exc))


def test_checkpoint_corrupt_name_and_echo_name_offset(tmp_path):
    ck = checkpoint_of({"w": np.ones(2)}, {"a": 1}, epoch=1, val_loss=0.5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ck, path)
    blob = path.read_bytes()
    name_at, echo_at = blob.index(b"w"), blob.index(b'{"a"')
    path.write_bytes(blob[:name_at] + b"\xff" + blob[name_at + 1:])
    with pytest.raises(CheckpointError, match=f"name of tensor 0 at offset {name_at}"):
        load_checkpoint(path)
    path.write_bytes(blob[:echo_at] + b"[" + blob[echo_at + 1:])
    with pytest.raises(CheckpointError, match=f"config echo at offset {echo_at}"):
        load_checkpoint(path)
    save_checkpoint(Checkpoint(ck.inventory, ck.flat, ["not", "an", "object"], 1, 0.5),
                    path)
    echo_at = path.read_bytes().index(b'["not"')
    with pytest.raises(CheckpointError,
                       match=f"config echo at offset {echo_at} is not a JSON object"):
        load_checkpoint(path)


def _ck(val_loss, epoch, value):
    return checkpoint_of({"w": np.full(3, float(value))}, {}, epoch, val_loss)


def test_average_checkpoints_identical_inputs():
    cks = [_ck(0.5, i, 2.0) for i in range(1, 4)]
    out = average_checkpoints(cks, 3)
    assert np.array_equal(checkpoint_arrays(out)["w"], np.full(3, 2.0))


def test_average_checkpoints_mean():
    out = average_checkpoints([_ck(0.5, 1, 0.0), _ck(0.4, 2, 2.0)], 5)
    assert np.array_equal(checkpoint_arrays(out)["w"], np.full(3, 1.0))


def test_average_checkpoints_excludes_worst_of_six():
    cks = [_ck(0.1 * i, i, float(i)) for i in range(1, 7)]
    out = average_checkpoints(cks, 5)
    assert np.allclose(checkpoint_arrays(out)["w"], np.mean([1, 2, 3, 4, 5]))


def test_average_checkpoints_permutation_invariant():
    cks = [_ck(0.3, 1, 1.0), _ck(0.1, 2, 5.0), _ck(0.2, 3, -2.0)]
    a = average_checkpoints(cks, 2)
    b = average_checkpoints(list(reversed(cks)), 2)
    assert np.array_equal(checkpoint_arrays(a)["w"], checkpoint_arrays(b)["w"])


def test_average_checkpoints_nan_loss_ranks_last():
    nan = float("nan")
    cks = [_ck(0.5, 1, 1.0), _ck(nan, 2, 100.0), _ck(0.2, 3, 2.0),
           _ck(0.3, 4, 4.0)]
    out = average_checkpoints(cks, 2)
    assert np.array_equal(checkpoint_arrays(out)["w"], np.full(3, 3.0))
    assert (out.epoch, out.val_loss) == (3, 0.2)
    both_nan = [_ck(nan, 2, 1.0), _ck(nan, 1, 3.0), _ck(0.9, 3, 5.0)]
    for order in (both_nan, list(reversed(both_nan))):
        assert checkpoint_arrays(average_checkpoints(order, 2))["w"][0] == 4.0


def test_average_checkpoints_shape_mismatch():
    bad = checkpoint_of({"w": np.zeros(4)}, {}, 1, 0.5)
    with pytest.raises(CheckpointError):
        average_checkpoints([_ck(0.5, 1, 1.0), bad], 2)


def test_average_of_trained_checkpoints_is_the_per_name_mean():
    corpus = tiny_corpus()
    result = train(tiny_model(dropout=0.1), corpus["train"], corpus["dev"],
                   tiny_train_config(max_epochs=4, patience=4))
    assert len(result.checkpoints) == 4
    ranked = sorted(result.checkpoints, key=lambda c: (c.val_loss, c.epoch))
    for k in (2, 3):
        got = checkpoint_arrays(average_checkpoints(result.checkpoints, k))
        for name, _ in result.final.inventory:
            want = np.mean([checkpoint_arrays(c)[name] for c in ranked[:k]], axis=0)
            assert got[name].tobytes() == want.tobytes(), (k, name)


@pytest.mark.parametrize("case", ["missing", "extra", "shape", "order"])
def test_inventory_mismatch_names_the_first_differing_entry(case):
    model = tiny_model()
    inv = model.inventory
    arrays = checkpoint_arrays(checkpoint_from_model(model, {}, 1, 0.5))
    names = list(arrays)
    i = [n for n, shape in inv].index("block0.ffn1.lin1.bias")
    if case == "missing":
        del arrays[names[i]]
        at, want, got = i, inv[i], inv[i + 1]
    elif case == "extra":
        arrays["extra.w"] = np.zeros((2, 1))
        at, want, got = len(inv), "no entry", ("extra.w", (2, 1))
    elif case == "shape":
        arrays[names[i]] = np.zeros(inv[i][1][0] + 1)
        at, want, got = i, inv[i], (names[i], (inv[i][1][0] + 1,))
    else:
        names[i], names[i + 1] = names[i + 1], names[i]
        arrays = {n: arrays[n] for n in names}
        at, want, got = i, inv[i], inv[i + 1]
    bad = checkpoint_of(arrays, {}, 2, 0.5)
    before = model.flat.copy()
    with pytest.raises(CheckpointError, match=re.escape(
            f"mismatch at entry {at}: model has {want}, checkpoint has {got}")):
        load_into_model(model, bad)
    assert model.flat.tobytes() == before.tobytes()
    good = checkpoint_from_model(model, {}, 1, 0.5)
    with pytest.raises(CheckpointError, match=re.escape(
            f"mismatch at entry {at}: epoch 1 has {want}, epoch 2 has {got}")):
        average_checkpoints([good, bad], 2)


def test_checkpoint_hand_built_rank_0_and_rank_2_load_into_one_flat(tmp_path):
    blob = (
        b"TCMC" + struct.pack("<II", 1, 2)
        + struct.pack("<H", 1) + b"s" + struct.pack("<B", 0) + struct.pack("<d", 7.25)
        + struct.pack("<H", 1) + b"m" + struct.pack("<BII", 2, 2, 3)
        + struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, -6.5)
        + struct.pack("<I", 2) + b"{}" + struct.pack("<dI", 0.5, 9)
    )
    path = tmp_path / "hand.ckpt"
    path.write_bytes(blob)
    ck = load_checkpoint(path)
    assert ck.inventory == (("s", ()), ("m", (2, 3)))  # file order, not sorted
    assert ck.flat.dtype == np.float64 and ck.flat.flags.writeable
    assert ck.flat.tolist() == [7.25, 1.0, 2.0, 3.0, 4.0, 5.0, -6.5]
    arrays = checkpoint_arrays(ck)
    assert arrays["s"].shape == () and arrays["s"] == 7.25
    assert arrays["m"].tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, -6.5]]
    save_checkpoint(ck, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == blob


def test_checkpoint_with_no_tensors_loads_an_empty_flat(tmp_path):
    blob = (b"TCMC" + struct.pack("<II", 1, 0) + struct.pack("<I", 2) + b"{}"
            + struct.pack("<dI", 0.5, 1))
    path = tmp_path / "empty.ckpt"
    path.write_bytes(blob)
    ck = load_checkpoint(path)
    assert ck.inventory == () and ck.flat.shape == (0,)
    assert (ck.epoch, ck.val_loss) == (1, 0.5)
    save_checkpoint(ck, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == blob
