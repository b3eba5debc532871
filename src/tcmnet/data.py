"""Synthetic corpus with planted temporal-channel artifacts, plus file I/O.

Bona fide utterances are a channel-correlated AR(1)-in-time Gaussian
process. Spoof utterances are the same draw plus a fixed per-channel
sign pattern, scaled by `amplitude`, confined to one contiguous channel
band and one temporal segment. The eval split draws its band positions
from a pool disjoint from train/dev (toy stand-in for unknown attacks).

Feature files are a small custom binary (magic "TCMF"); protocol files
are plain "id label" text lines. A split directory is one protocol plus
one feature file per line, read and written only by read_split and
write_split.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import ConfigError, map_workers


class FormatError(ValueError):
    """Corrupt, truncated or inconsistent data file or split directory;
    message names the file or directory, and the offset where there is one."""


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
        if not 0 <= self.amplitude < math.inf:
            raise ConfigError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0 < self.noise_scale < math.inf:
            raise ConfigError(f"noise_scale must be finite and > 0, got {self.noise_scale}")


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


def _draw(spec, si, lo, hi, pool):
    """Utterances lo:hi of split si before the AR(1) filter: their scaled channel-mixed
    noise, zero-padded time-major (max T x hi-lo x F), their lengths and placements."""
    rngs = [np.random.default_rng([spec.seed, si, i]) for i in range(lo, hi)]
    lengths = [int(rng.integers(spec.t_min, spec.t_max + 1)) for rng in rngs]
    e = np.zeros((max(lengths), hi - lo, spec.feature_dim))
    metas = []
    for j, (rng, T) in enumerate(zip(rngs, lengths)):
        e[:T, j] = rng.standard_normal((T, spec.feature_dim))
        metas.append({"band_start": int(pool[rng.integers(len(pool))]),
                      "seg_start": int(rng.integers(T - spec.seg_len + 1))})
    # channel mixing, x_c = (0.5 e_c + 0.25 e_c-1) + 0.25 e_c+1 cyclic in c: shifted
    # adds over the flat buffer, then the wrapped first and last channels apart
    x = e * 0.5
    e *= 0.25
    xf, ef = x.reshape(-1), e.reshape(-1)
    first = x[..., 0] + e[..., -1]
    xf[1:] += ef[:-1]
    x[..., 0] = first
    last = x[..., -1] + e[..., 0]
    xf[:-1] += ef[1:]
    x[..., -1] = last
    x *= spec.noise_scale
    return x, lengths, metas


# each generate_corpus task holds its chunk in two time-major buffers of about
# this many bytes: calls on whole buffers release the GIL for long stretches
_AR1_CHUNK_BYTES = 4 << 20


def ar1(buf, a):
    """buf filtered in place along its first (time) axis, y_t = x_t + a y_{t-1}.
    Bit for bit scipy.signal.lfilter([1], [1, -a], buf, axis=0), whose loop
    computes 1 x_t + (0 x_t - (-a) y_{t-1}) and so rounds as x_t + a y_{t-1}."""
    for t in range(1, len(buf)):
        buf[t] += a * buf[t - 1]


def generate_corpus(spec: CorpusSpec):
    """Deterministic {split: [Utterance]} dict keyed entirely by spec.seed.

    Per-utterance RNG streams are label-independent, so a spoof utterance
    and the amplitude-0 regeneration of the same id differ exactly on the
    planted band x segment. Each chunk of about `_AR1_CHUNK_BYTES` is one
    `map_workers` task that draws, mixes, filters and plants its utterances;
    neither the chunking nor the CPU count changes a bit.
    """
    pattern = artifact_pattern(spec)
    pools = _band_pools(spec)  # (train and dev, eval)
    counts = {"train": spec.n_train, "dev": spec.n_dev, "eval": spec.n_eval}
    chunk = max(1, _AR1_CHUNK_BYTES // (8 * spec.t_max * spec.feature_dim))
    labels = [_split_labels(counts[split], spec.spoof_fraction,
                            np.random.default_rng([spec.seed, si, 0xFACE]))
              for si, split in enumerate(SPLITS)]
    tasks = [(si, lo, min(lo + chunk, counts[split])) for si, split in enumerate(SPLITS)
             for lo in range(0, counts[split], chunk)]

    def run(task):
        si, lo, hi = task
        x, lengths, metas = _draw(spec, si, lo, hi, pools[SPLITS[si] == "eval"])
        ar1(x, spec.ar_coeff)
        utts = []
        for i, T, meta in zip(range(lo, hi), lengths, metas):
            feats, label = x[:T, i - lo].copy(), LABELS[labels[si][i]]
            if label == "spoof":
                band = slice(meta["band_start"], meta["band_start"] + spec.band_width)
                seg = slice(meta["seg_start"], meta["seg_start"] + spec.seg_len)
                feats[seg, band] += spec.amplitude * pattern[:, band]
            utts.append(Utterance(f"{SPLITS[si]}_{i:05d}", feats, label, meta))
        return utts

    corpus = {split: [] for split in SPLITS}
    for (si, _, _), utts in zip(tasks, map_workers(run, tasks)):
        corpus[SPLITS[si]] += utts
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
    """Write a split directory whole: feature files of an earlier split go."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("*.tcmf"):
        old.unlink()
    for utt in utts:
        write_features(utt, out_dir / f"{utt.id}.tcmf")
    write_protocol([(u.id, u.label) for u in utts], out_dir / "protocol.txt")


def read_split(split_dir):
    """The utterances of a split directory, `protocol.txt` plus one
    `<id>.tcmf` per protocol line and nothing else, in protocol order. Each
    file must carry its line's id and label, and the first file's F."""
    split_dir = Path(split_dir)
    if not split_dir.is_dir():
        raise ConfigError(f"missing split directory {split_dir}")
    entries = read_protocol(split_dir / "protocol.txt")
    if not entries:
        raise FormatError(f"split directory {split_dir} has no utterances")
    listed = {f"{ident}.tcmf" for ident, _ in entries}
    for path in sorted(split_dir.glob("*.tcmf")):
        if path.name not in listed:
            raise FormatError(f"{path}: feature file missing from protocol")
    utts, first = [], split_dir / f"{entries[0][0]}.tcmf"
    for ident, label in entries:
        path = split_dir / f"{ident}.tcmf"
        utt = read_features(path)
        if utt.id != ident or utt.label != label:
            raise FormatError(f"{split_dir}: feature file for {ident} disagrees with protocol")
        if utts and utt.F != utts[0].F:
            raise FormatError(f"{path}: feature dim {utt.F} differs from {utts[0].F} "
                              f"in {first}")
        utts.append(utt)
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
