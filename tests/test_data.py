import struct
from dataclasses import replace

import numpy as np
import oracles as oc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from tcmnet import data
from tcmnet import tensor as tt
from tcmnet.data import (
    SPLITS,
    Batch,
    CorpusSpec,
    FormatError,
    Utterance,
    ar1,
    artifact_pattern,
    batch_iter,
    fix_length,
    generate_corpus,
    read_features,
    read_protocol,
    read_split,
    write_features,
    write_protocol,
    write_split,
)
from tcmnet.metrics import compute_eer
from tcmnet.tensor import ConfigError


def tiny_spec(**kw):
    defaults = dict(
        n_train=24, n_dev=12, n_eval=16, feature_dim=8, t_min=12, t_max=20,
        band_width=3, seg_len=5, amplitude=1.0, ar_coeff=0.8, noise_scale=1.0,
        spoof_fraction=0.5, seed=7,
    )
    defaults.update(kw)
    return CorpusSpec(**defaults)


# ---------------------------------------------------------------------------
# spec validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(band_width=9),
        dict(seg_len=13),
        dict(spoof_fraction=0.0),
        dict(ar_coeff=1.0),
        dict(noise_scale=0.0),
        dict(n_train=0),
    ],
)
def test_spec_validation(kw):
    with pytest.raises(ConfigError):
        tiny_spec(**kw)


# ---------------------------------------------------------------------------
# generation


def test_corpus_deterministic():
    a = generate_corpus(tiny_spec())
    b = generate_corpus(tiny_spec())
    for split in a:
        for u, v in zip(a[split], b[split]):
            assert u.id == v.id and u.label == v.label
            assert u.features.tobytes() == v.features.tobytes()


def test_zero_amplitude_matches_bonafide_draw():
    spoofed = generate_corpus(tiny_spec())
    clean = generate_corpus(tiny_spec(amplitude=0.0))
    spec = tiny_spec()
    for split in spoofed:
        for u, v in zip(spoofed[split], clean[split]):
            diff = u.features - v.features
            if u.label == "bonafide":
                assert np.all(diff == 0)
            else:
                mask = np.zeros_like(diff, dtype=bool)
                r, c = u.meta["seg_start"], u.meta["band_start"]
                mask[r : r + spec.seg_len, c : c + spec.band_width] = True
                assert np.all(diff[~mask] == 0)
                assert np.any(diff[mask] != 0)


def test_class_balance_within_one():
    corpus = generate_corpus(tiny_spec(n_train=25, spoof_fraction=0.4))
    n_spoof = sum(1 for u in corpus["train"] if u.label == "spoof")
    assert abs(n_spoof - 0.4 * 25) <= 1


def test_split_ids_disjoint_and_unique():
    corpus = generate_corpus(tiny_spec())
    ids = [u.id for split in corpus.values() for u in split]
    assert len(ids) == len(set(ids))


def test_eval_band_pool_disjoint_from_train():
    corpus = generate_corpus(tiny_spec(n_train=200, n_eval=200))
    train_bands = {u.meta["band_start"] for u in corpus["train"]}
    eval_bands = {u.meta["band_start"] for u in corpus["eval"]}
    assert train_bands.isdisjoint(eval_bands)


def test_matched_filter_oracle_separates_large_amplitude():
    spec = tiny_spec(n_train=1, n_dev=1, n_eval=200, amplitude=5.0,
                     noise_scale=1.0)
    corpus = generate_corpus(spec)
    pattern = artifact_pattern(spec)
    bona, spoof = [], []
    for u in corpus["eval"]:
        r, c = u.meta["seg_start"], u.meta["band_start"]
        patch = u.features[r : r + spec.seg_len, c : c + spec.band_width]
        score = float((patch * pattern[:, c : c + spec.band_width]).mean())
        (spoof if u.label == "spoof" else bona).append(score)
    eer, _ = compute_eer(spoof, bona)  # spoof scores higher here
    assert eer == 0.0


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("T", [1, 2, 250])
def test_ar1_is_lfilter_bit_for_bit(T, a):
    x = np.random.default_rng(T).standard_normal((T, 7)) * 3.0
    (y,) = ar1([x], a)
    assert y.flags.c_contiguous
    assert y.tobytes() == lfilter([1.0], [1.0, -a], x, axis=0).tobytes()


def test_ar1_filters_utterances_of_several_lengths_in_one_buffer():
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal((T, 5)) for T in (4, 1, 9, 9, 2)]
    for x, y in zip(xs, ar1(xs, 0.9)):
        assert y.tobytes() == lfilter([1.0], [1.0, -0.9], x, axis=0).tobytes()


@pytest.mark.parametrize("per_chunk", [None, 1, 3])
@pytest.mark.parametrize("amplitude", [0.0, 0.7])
def test_generate_corpus_matches_the_per_utterance_oracle(monkeypatch, amplitude,
                                                          per_chunk):
    spec = tiny_spec(n_train=7, n_dev=3, n_eval=5, amplitude=amplitude)
    if per_chunk is not None:  # every split spans several chunks
        monkeypatch.setattr(tt, "_AR1_CHUNK_BYTES",
                            per_chunk * 8 * spec.t_max * spec.feature_dim + 8)
    chunks = []
    monkeypatch.setattr(data, "ar1", lambda xs, a: chunks.append(len(xs)) or ar1(xs, a))
    got, want = generate_corpus(spec), oc.generate_corpus_np(spec)
    assert chunks == {None: [7, 3, 5], 1: [1] * 15, 3: [3, 3, 1, 3, 3, 2]}[per_chunk]
    for split in SPLITS:
        assert [(u.id, u.label, u.features.tobytes(), u.meta) for u in got[split]] \
            == [(i, label, x.tobytes(), meta) for i, label, x, meta in want[split]]


# ---------------------------------------------------------------------------
# feature files


def test_feature_roundtrip(tmp_path):
    u = Utterance("utt_1", np.random.default_rng(0).standard_normal((5, 3))
                  .astype(np.float32).astype(np.float64), "spoof")
    path = tmp_path / "u.tcmf"
    write_features(u, path)
    v = read_features(path)
    assert v.id == u.id and v.label == u.label
    assert v.features.tobytes() == u.features.tobytes()


def test_feature_truncation_errors(tmp_path):
    u = Utterance("utt_1", np.zeros((4, 2)), "bonafide")
    path = tmp_path / "u.tcmf"
    write_features(u, path)
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(FormatError, match=r"truncated feature file: need \d+ "
                           r"bytes for .+ at offset \d+, have \d+") as info:
            read_features(path)
        assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
def test_feature_file_with_no_values_names_the_file(tmp_path, shape):
    u = Utterance("utt_1", np.zeros(shape), "spoof")
    path = tmp_path / "u.tcmf"
    write_features(u, path)
    # magic, version, label, id length and the 5-byte id come first
    with pytest.raises(FormatError) as info:
        read_features(path)
    assert str(info.value) == (f"{path}: empty feature payload: dimensions "
                               f"{shape[0]} x {shape[1]} at offset 16")


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "u.tcmf"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError, match="magic"):
        read_features(path)


def test_feature_hand_constructed_fixture(tmp_path):
    blob = (
        b"TCMF"
        + struct.pack("<I", 1)
        + struct.pack("<B", 0)
        + struct.pack("<H", 2) + b"u1"
        + struct.pack("<II", 1, 1)
        + struct.pack("<f", 3.5)
    )
    path = tmp_path / "hand.tcmf"
    path.write_bytes(blob)
    u = read_features(path)
    assert u.id == "u1" and u.label == "bonafide"
    assert u.features.tolist() == [[3.5]]


# ---------------------------------------------------------------------------
# protocol files


def test_protocol_roundtrip(tmp_path):
    entries = [("u1", "bonafide"), ("u2", "spoof")]
    path = tmp_path / "protocol.txt"
    write_protocol(entries, path)
    assert path.read_text() == "u1 bonafide\nu2 spoof\n"
    assert read_protocol(path) == entries


def test_protocol_unknown_label(tmp_path):
    path = tmp_path / "protocol.txt"
    path.write_text("u2 genuine\n")
    with pytest.raises(FormatError, match="line 1"):
        read_protocol(path)


@pytest.mark.parametrize("second", ["spoof", "bonafide"])
def test_protocol_repeated_id_names_both_lines(tmp_path, second):
    path = tmp_path / "protocol.txt"
    path.write_text(f"u0 spoof\nu1 bonafide\nu0 {second}\n")
    with pytest.raises(FormatError, match="id 'u0' on line 3 repeats line 1") as info:
        read_protocol(path)
    assert str(info.value).startswith(f"{path}: ")


def test_protocol_non_utf8_names_the_file(tmp_path):
    path = tmp_path / "protocol.txt"
    path.write_bytes(b"\xffu1 spoof\n")
    with pytest.raises(FormatError, match="not UTF-8") as info:
        read_protocol(path)
    assert str(path) in str(info.value)


def test_protocol_large_roundtrip(tmp_path):
    entries = [(f"u{i}", "spoof" if i % 3 else "bonafide") for i in range(1000)]
    path = tmp_path / "protocol.txt"
    write_protocol(entries, path)
    assert read_protocol(path) == entries


def test_split_directory_roundtrip(tmp_path):
    corpus = generate_corpus(tiny_spec(n_train=5, n_dev=1, n_eval=1))
    write_split(corpus["train"], tmp_path / "train")
    loaded = read_split(tmp_path / "train")
    assert [u.id for u in loaded] == [u.id for u in corpus["train"]]
    for u, v in zip(corpus["train"], loaded):
        assert np.allclose(u.features, v.features, atol=1e-6)


def test_read_split_rejects_mixed_feature_dims(tmp_path):
    rng = np.random.default_rng(4)
    utts = [Utterance(f"u{i}", rng.standard_normal((4, F)), "spoof")
            for i, F in enumerate([6, 5, 6])]
    write_split(utts, tmp_path / "eval")
    with pytest.raises(FormatError, match=r"u1\.tcmf: feature dim 5 differs from 6 in "
                       r".*u0\.tcmf"):
        read_split(tmp_path / "eval")


# ---------------------------------------------------------------------------
# fix_length and batching


def test_fix_length_cyclic_repeat():
    x = np.arange(10.0).reshape(5, 2)
    out = fix_length(x, 8)
    assert np.array_equal(out, x[[0, 1, 2, 3, 4, 0, 1, 2]])


def test_fix_length_identity_and_crop():
    x = np.arange(16.0).reshape(8, 2)
    assert np.array_equal(fix_length(x, 8), x)
    assert np.array_equal(fix_length(np.arange(20.0).reshape(10, 2), 4),
                          np.arange(8.0).reshape(4, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 25))
def test_fix_length_always_target_rows(T, target):
    x = np.random.default_rng(0).standard_normal((T, 3))
    assert fix_length(x, target).shape == (target, 3)


def test_fix_length_rejects_an_utterance_with_no_frames():
    with pytest.raises(ConfigError, match="no frames"):
        fix_length(np.zeros((0, 3)), 4)
    utts = [Utterance("u0", np.zeros((4, 3)), "spoof"),
            Utterance("u1", np.zeros((0, 3)), "spoof")]
    with pytest.raises(ConfigError, match="no frames"):
        list(batch_iter(utts, 2, target_T=4))


def test_batch_iter_names_an_utterance_of_another_feature_dim():
    utts = [Utterance(f"u{i}", np.zeros((4, 6)), "spoof") for i in range(4)]
    utts[2].features = np.zeros((4, 5))
    with pytest.raises(ConfigError, match="'u2': feature dim 5 differs from 6 of 'u0'"):
        list(batch_iter(utts, 4, target_T=4))


def test_batch_sizes():
    utts = [Utterance(f"u{i}", np.zeros((4, 2)), "bonafide") for i in range(7)]
    batches = list(batch_iter(utts, 3, target_T=4, seed=0))
    assert [len(b.utterances) for b in batches] == [3, 3, 1]
    assert batches[0].features.shape == (3, 4, 2)


def test_batch_shuffle_deterministic():
    utts = [Utterance(f"u{i}", np.zeros((4, 2)), "bonafide") for i in range(9)]
    ids1 = [u.id for b in batch_iter(utts, 2, target_T=4, seed=5) for u in b.utterances]
    ids2 = [u.id for b in batch_iter(utts, 2, target_T=4, seed=5) for u in b.utterances]
    ids3 = [u.id for b in batch_iter(utts, 2, target_T=4, seed=6) for u in b.utterances]
    assert ids1 == ids2
    assert ids1 != ids3
