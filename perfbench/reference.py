"""Independent detection metrics: one sort and cumulative class counts.

Same conventions as `tcmnet.metrics`: candidate thresholds are one below
the lowest score, the midpoints of adjacent distinct scores, and one above
the highest; Pmiss(t) = share of bona fide scores < t, Pfa(t) = share of
spoof scores >= t; EER is (Pmiss + Pfa) / 2 where |Pmiss - Pfa| is
smallest, lowest threshold on ties. Results must match bit for bit.
"""

from __future__ import annotations

import numpy as np


def error_curve(bona, spoof):
    """(thresholds, pmiss, pfa) over the candidate thresholds, ascending."""
    bona = np.asarray(bona, dtype=float)
    spoof = np.asarray(spoof, dtype=float)
    scores = np.concatenate([bona, spoof])
    is_bona = np.concatenate([np.ones(bona.size, bool), np.zeros(spoof.size, bool)])
    order = np.argsort(scores, kind="stable")
    values, starts = np.unique(scores[order], return_index=True)
    bona_per_value = np.add.reduceat(is_bona[order].astype(np.int64), starts)
    all_per_value = np.diff(np.append(starts, scores.size))
    # threshold j sits just above the j lowest distinct values
    bona_below = np.concatenate([[0], np.cumsum(bona_per_value)])
    spoof_below = np.concatenate([[0], np.cumsum(all_per_value - bona_per_value)])
    thresholds = np.concatenate(
        [[values[0] - 1.0], (values[:-1] + values[1:]) / 2.0, [values[-1] + 1.0]])
    pmiss = bona_below / bona.size
    pfa = (spoof.size - spoof_below) / spoof.size
    return thresholds, pmiss, pfa


def eer(bona, spoof):
    """(EER, threshold)."""
    thresholds, pmiss, pfa = error_curve(bona, spoof)
    i = int(np.argmin(np.abs(pmiss - pfa)))  # first minimum: lowest threshold
    return (pmiss[i] + pfa[i]) / 2.0, thresholds[i]


def min_tdcf(bona, spoof, c0, c1, c2):
    _, pmiss, pfa = error_curve(bona, spoof)
    cost = (c0 + c1 * pmiss + c2 * pfa) / min(c0 + c1, c0 + c2)
    return min(float(cost.min()), 1.0)


def det_points(bona, spoof):
    _, pmiss, pfa = error_curve(bona, spoof)
    return list(zip(pmiss.tolist(), pfa.tolist()))
