"""Shared test utilities: central finite differences for gradient checks,
checkpoints built from and read as name -> array dicts, one utterance's
score, a mocked CPU count, and code run in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tcmnet
from tcmnet import tensor as tt
from tcmnet.model import unflatten
from tcmnet.train import Checkpoint


def run_in_fresh_interpreter(code):
    """stdout of `python -c code` in a new interpreter that imports this
    tcmnet; fails on a non-zero exit."""
    src = str(Path(tcmnet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def use_cpus(monkeypatch, n):
    """The worker pool's callers see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    assert tt._usable_cpus() == n


def forward_score(model, features):
    """Score of one T x F utterance, run through forward_batch as a batch of
    one: its bonafide logit minus its spoof logit, as Model.score takes it."""
    logits = model.forward_batch(features[None]).data[0]
    return float(logits[0] - logits[1])


def checkpoint_of(arrays, config_echo, epoch, val_loss):
    """A Checkpoint of the name -> array dict `arrays`, in its order."""
    inventory = tuple((name, np.shape(a)) for name, a in arrays.items())
    flat = np.concatenate([np.ravel(a) for a in arrays.values()]).astype(np.float64)
    return Checkpoint(inventory, flat, config_echo, epoch, val_loss)


def checkpoint_arrays(ckpt):
    """name -> array view into the checkpoint's `flat`, in inventory order."""
    return dict(zip([name for name, _ in ckpt.inventory],
                    unflatten(ckpt.flat, ckpt.inventory)))


def finite_diff(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f() w.r.t. each array in the
    dict, perturbing entries in place."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            fp = f()
            arr[idx] = orig - h
            fm = f()
            arr[idx] = orig
            g[idx] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-6, label=""):
    for name in numeric:
        ga, gn = analytic[name], numeric[name]
        err = np.abs(ga - gn) - (atol + rtol * np.abs(gn))
        assert np.all(err <= 0), (
            f"{label}{name}: max violation {err.max():.3e}, "
            f"worst analytic {ga.flat[np.argmax(err)]:.6e} "
            f"vs numeric {gn.flat[np.argmax(err)]:.6e}"
        )
