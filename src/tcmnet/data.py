"""Synthetic corpus with planted temporal-channel artifacts, plus file I/O.

Bona fide utterances are a channel-correlated AR(1)-in-time Gaussian
process. Spoof utterances are the same draw plus a fixed per-channel
sign pattern, scaled by `amplitude`, confined to one contiguous channel
band and one temporal segment. The eval split draws its band positions
from a pool disjoint from train/dev (toy stand-in for unknown attacks).

Feature files are a small custom binary (magic "TCMF"); protocol files
are plain "id label" text lines.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor
from .tensor import ConfigError


class FormatError(ValueError):
    """Corrupt or truncated data file; message names the file and offset."""


LABELS = ("bonafide", "spoof")


@dataclass
class Utterance:
    id: str
    features: np.ndarray  # T x F float64
    label: str
    meta: dict | None = None  # artifact placement; never serialized

    @property
    def T(self):
        return self.features.shape[0]

    @property
    def F(self):
        return self.features.shape[1]


@dataclass
class CorpusSpec:
    n_train: int = 2000
    n_dev: int = 500
    n_eval: int = 1000
    feature_dim: int = 64
    t_min: int = 150
    t_max: int = 250
    band_width: int = 8
    seg_len: int = 40
    amplitude: float = 0.4
    ar_coeff: float = 0.9
    noise_scale: float = 1.0
    spoof_fraction: float = 0.5
    seed: int = 0
    pattern_seed: int = 1234

    def __post_init__(self):
        for name in ("seed", "pattern_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if min(self.n_train, self.n_dev, self.n_eval) < 1:
            raise ConfigError("every split needs at least one utterance")
        if not 1 <= self.band_width <= self.feature_dim:
            raise ConfigError(
                f"band_width {self.band_width} must be in [1, {self.feature_dim}]"
            )
        if not 1 <= self.t_min <= self.t_max:
            raise ConfigError(f"bad frame range [{self.t_min}, {self.t_max}]")
        if not 1 <= self.seg_len <= self.t_min:
            raise ConfigError(
                f"seg_len {self.seg_len} must be in [1, t_min={self.t_min}]"
            )
        if not 0.0 < self.spoof_fraction < 1.0:
            raise ConfigError(f"spoof_fraction must be in (0,1), got {self.spoof_fraction}")
        if not 0.0 < self.ar_coeff < 1.0:
            raise ConfigError(f"ar_coeff must be in (0,1), got {self.ar_coeff}")
        if self.amplitude < 0 or self.noise_scale <= 0:
            raise ConfigError("amplitude must be >= 0 and noise_scale > 0")


SPLITS = ("train", "dev", "eval")


def artifact_pattern(spec: CorpusSpec):
    """Fixed sign pattern (seg_len x feature_dim) shared by all spoofs.

    One sign is drawn per absolute channel and held constant over the
    segment, so the artifact is a persistent band coloration: each
    affected channel is shifted by +/- amplitude for the whole segment.
    A spoof utterance adds the pattern columns under its band. Because a
    channel keeps the same sign at every band position, a detector
    learned on the train band pool transfers to the held-out eval pool,
    and temporal pooling concentrates the artifact instead of averaging
    it away.
    """
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([spec.pattern_seed]))
    )
    signs = np.where(rng.random(spec.feature_dim) < 0.5, -1.0, 1.0)
    return np.tile(signs, (spec.seg_len, 1))


def _band_pools(spec: CorpusSpec):
    """Split valid band start positions into disjoint train/dev and eval
    pools (even starts vs odd starts), so eval artifacts never sit at a
    training location."""
    starts = list(range(spec.feature_dim - spec.band_width + 1))
    if len(starts) == 1:
        return starts, starts
    return starts[0::2], starts[1::2]


def _split_labels(n, spoof_fraction, rng):
    n_spoof = int(round(n * spoof_fraction))
    labels = np.array([1] * n_spoof + [0] * (n - n_spoof))
    rng.shuffle(labels)
    return labels


def _draw(spec, si, i, pool):
    """Utterance i of split si: its scaled channel-mixed noise (T x F), drawn
    before the AR(1) filter, and its artifact placement."""
    rng = np.random.default_rng([spec.seed, si, i])
    T = int(rng.integers(spec.t_min, spec.t_max + 1))
    e = rng.standard_normal((T, spec.feature_dim))
    # light channel mixing so channels are correlated
    mixed = 0.5 * e + 0.25 * np.roll(e, 1, axis=1) + 0.25 * np.roll(e, -1, axis=1)
    band_start = int(pool[rng.integers(len(pool))])
    seg_start = int(rng.integers(T - spec.seg_len + 1))
    return spec.noise_scale * mixed, {"band_start": band_start, "seg_start": seg_start}


def ar1(xs, a):
    """Each T_i x F array of xs filtered along time, y_t = x_t + a y_{t-1},
    as one time-major (max T_i) x len(xs) x F buffer. Bit for bit
    scipy.signal.lfilter([1], [1, -a], x, axis=0), whose loop computes
    1 x_t + (0 x_t - (-a) y_{t-1}) and so rounds as x_t + a y_{t-1}."""
    buf = np.zeros((max(len(x) for x in xs), len(xs), xs[0].shape[1]))
    for j, x in enumerate(xs):
        buf[: len(x), j] = x
    for t in range(1, len(buf)):
        buf[t] += a * buf[t - 1]
    return [buf[: len(x), j].copy() for j, x in enumerate(xs)]


def generate_corpus(spec: CorpusSpec):
    """Deterministic {split: [Utterance]} dict keyed entirely by spec.seed.

    Per-utterance RNG streams are label-independent, so a spoof utterance
    and the amplitude-0 regeneration of the same id differ exactly on the
    planted band x segment. Utterances are filtered in chunks of about
    `tensor._AR1_CHUNK_BYTES`; the chunking does not change a bit.
    """
    pattern = artifact_pattern(spec)
    traindev_pool, eval_pool = _band_pools(spec)
    counts = {"train": spec.n_train, "dev": spec.n_dev, "eval": spec.n_eval}
    chunk = max(1, tensor._AR1_CHUNK_BYTES // (8 * spec.t_max * spec.feature_dim))
    corpus = {}
    for si, split in enumerate(SPLITS):
        n = counts[split]
        label_rng = np.random.default_rng([spec.seed, si, 0xFACE])
        labels = _split_labels(n, spec.spoof_fraction, label_rng)
        pool = eval_pool if split == "eval" else traindev_pool
        utts = []
        for lo in range(0, n, chunk):
            drawn = [_draw(spec, si, i, pool) for i in range(lo, min(lo + chunk, n))]
            filtered = ar1([noise for noise, _ in drawn], spec.ar_coeff)
            for i, x, (_, meta) in zip(range(lo, n), filtered, drawn):
                label = LABELS[labels[i]]
                if label == "spoof":
                    band = slice(meta["band_start"], meta["band_start"] + spec.band_width)
                    seg = slice(meta["seg_start"], meta["seg_start"] + spec.seg_len)
                    x[seg, band] += spec.amplitude * pattern[:, band]
                utts.append(Utterance(id=f"{split}_{i:05d}", features=x, label=label,
                                      meta=meta))
        corpus[split] = utts
    return corpus


# ---------------------------------------------------------------------------
# binary field reader, shared by feature files and checkpoints


class FieldReader:
    """Reads little-endian fields in order from one file's bytes. Every
    failure raises the caller's `error` class with a message that names
    the file, the field and its offset."""

    def __init__(self, path, kind, error):
        # kind names the format in messages: "feature file", "checkpoint"
        self.path, self.kind, self.error = path, kind, error
        self.buf = Path(path).read_bytes()
        self.at = self.off = 0  # offsets of the last field read and the next

    def fail(self, message):
        return self.error(f"{self.path}: {message}")

    def raw(self, n, what):
        if self.off + n > len(self.buf):
            raise self.fail(f"truncated {self.kind}: need {n} bytes for {what} "
                            f"at offset {self.off}, have {len(self.buf) - self.off}")
        self.at, self.off = self.off, self.off + n
        return self.buf[self.at : self.off]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt), what))

    def text(self, n, what):
        try:
            return self.raw(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"{what} at offset {self.at} is not UTF-8: {exc}") from exc

    def array(self, dtype, shape, what):
        """The `shape` array stored as `dtype`, as a float64 copy."""
        values = self.raw(np.dtype(dtype).itemsize * math.prod(shape), what)
        return np.frombuffer(values, dtype).reshape(shape).astype(np.float64)

    def header(self, magic, version):
        found = self.raw(len(magic), "magic")
        if found != magic:
            raise self.fail(f"bad magic {found!r} at offset 0, expected {magic!r}")
        (v,) = self.unpack("<I", "version")
        if v != version:
            raise self.fail(f"unsupported {self.kind} version {v} at offset {self.at}")

    def end(self):
        if self.off != len(self.buf):
            raise self.fail(f"trailing bytes after offset {self.off}")


# ---------------------------------------------------------------------------
# feature file format: "TCMF" | u32 version | u8 label | u16 id_len | id
# | u32 T | u32 F | T*F little-endian f32, row-major

_MAGIC = b"TCMF"
_VERSION = 1


def write_features(utt: Utterance, path):
    path = Path(path)
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", _VERSION)
    blob += struct.pack("<B", LABELS.index(utt.label))
    ident = utt.id.encode("utf-8")
    blob += struct.pack("<H", len(ident)) + ident
    blob += struct.pack("<II", utt.T, utt.F)
    blob += utt.features.astype("<f4").tobytes()
    path.write_bytes(bytes(blob))


def read_features(path) -> Utterance:
    r = FieldReader(path, "feature file", FormatError)
    r.header(_MAGIC, _VERSION)
    (label_code,) = r.unpack("<B", "label")
    if label_code >= len(LABELS):
        raise r.fail(f"unknown label code {label_code} at offset {r.at}")
    (id_len,) = r.unpack("<H", "id length")
    ident = r.text(id_len, "id")
    T, F = r.unpack("<II", "dimensions")
    if T == 0 or F == 0:
        raise r.fail(f"empty feature payload: dimensions {T} x {F} at offset {r.at}")
    feats = r.array("<f4", (T, F), "feature payload")
    r.end()
    return Utterance(id=ident, features=feats, label=LABELS[label_code])


# ---------------------------------------------------------------------------
# protocol files: "id label" text lines


def write_protocol(entries, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ident, label in entries:
            fh.write(f"{ident} {label}\n")


def read_protocol(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: protocol is not UTF-8: {exc}") from exc
    entries, first_line = [], {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2 or parts[1] not in LABELS:
            raise FormatError(f"{path}: bad protocol line {lineno}: {line!r}")
        if parts[0] in first_line:
            raise FormatError(f"{path}: id {parts[0]!r} on line {lineno} repeats "
                              f"line {first_line[parts[0]]}")
        first_line[parts[0]] = lineno
        entries.append((parts[0], parts[1]))
    return entries


def write_split(utts, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for utt in utts:
        write_features(utt, out_dir / f"{utt.id}.tcmf")
    write_protocol([(u.id, u.label) for u in utts], out_dir / "protocol.txt")


def read_feature_files(paths):
    """Utterances in path order; every file must have the first file's F."""
    utts = []
    for path in paths:
        utt = read_features(path)
        if utts and utt.F != utts[0].F:
            raise FormatError(
                f"{path}: feature dim {utt.F} differs from {utts[0].F} "
                f"in {paths[0]}"
            )
        utts.append(utt)
    return utts


def read_split(split_dir):
    split_dir = Path(split_dir)
    entries = read_protocol(split_dir / "protocol.txt")
    utts = read_feature_files([split_dir / f"{ident}.tcmf" for ident, _ in entries])
    for (ident, label), utt in zip(entries, utts):
        if utt.id != ident or utt.label != label:
            raise FormatError(
                f"{split_dir}: feature file for {ident} disagrees with protocol"
            )
    return utts


# ---------------------------------------------------------------------------
# length handling and batching


def fix_length(features: np.ndarray, target_T: int) -> np.ndarray:
    """Crop from the start, or repeat cyclically, to exactly target_T rows."""
    if target_T < 1:
        raise ConfigError(f"target_T must be >= 1, got {target_T}")
    T = features.shape[0]
    if T == 0:
        raise ConfigError("cannot fix the length of an utterance with no frames")
    if T >= target_T:
        return features[:target_T].copy()
    idx = np.arange(target_T) % T
    return features[idx]


def check_feature_dims(utts):
    """Every utterance must have the first one's feature dim F: utterances
    cropped to one length are stacked into a B x T x F array."""
    for u in utts:
        if u.F != utts[0].F:
            raise ConfigError(
                f"utterance {u.id!r}: feature dim {u.F} differs from "
                f"{utts[0].F} of {utts[0].id!r}"
            )


@dataclass
class Batch:
    utterances: list
    features: np.ndarray  # B x target_T x F


def batch_iter(utts, batch_size, target_T=200, seed=0):
    """Deterministically shuffled batches, each utterance cropped or
    repeated to target_T frames; final partial batch included."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    check_feature_dims(utts)
    seed_words = [seed] if isinstance(seed, int) else list(seed)
    order = np.random.default_rng(seed_words + [0xBA7C]).permutation(len(utts))
    for lo in range(0, len(utts), batch_size):
        chunk = [utts[i] for i in order[lo : lo + batch_size]]
        dense = np.stack([fix_length(u.features, target_T) for u in chunk])
        yield Batch(chunk, dense)
