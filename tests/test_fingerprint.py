"""scripts/fingerprint.py: one digest over a small grid's losses,
checkpoints and scores."""

import importlib.util
import os
from pathlib import Path

from tcmnet import tensor as tt

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_the_digest_repeats_and_follows_the_learning_rate():
    first = fingerprint.fingerprint()
    assert len(first) == 64 and int(first, 16) >= 0
    assert fingerprint.fingerprint() == first
    assert fingerprint.fingerprint(lr=fingerprint.TRAIN.lr * 1.01) != first


def test_the_digest_is_the_same_on_one_and_two_cpus(monkeypatch):
    digests = []
    for n in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)),
                            raising=False)
        assert tt._usable_cpus() == n
        digests.append(fingerprint.fingerprint())
    assert digests[0] == digests[1]
