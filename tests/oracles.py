"""Test-side maths and call helpers that the program itself never needs."""

import numpy as np

from hyperfl import learner


def log0(p):
    """Inverse of ``poincare.exp_map_origin_arr``, row-wise: artanh(||p||) p/||p||."""
    p = np.asarray(p, dtype=np.float64)
    r = np.linalg.norm(p, axis=-1, keepdims=True)
    return np.divide(np.arctanh(r), r, out=np.ones_like(r), where=r > 0) * p


def fresh_triplet_grad(theta, cfg, x, y, protos, tcfg, seed, metric="geodesic"):
    """One ``learner.triplet_grad`` call that draws its negatives from a new
    generator seeded with ``seed`` and writes into a new buffer, so that
    repeated calls (finite differences) see the same negatives."""
    return learner.triplet_grad(theta, cfg, x, y, protos, tcfg, np.random.default_rng(seed),
                                np.zeros_like(theta), metric)
