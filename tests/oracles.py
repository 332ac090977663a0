"""Test-side maths and call helpers that the program itself never needs."""

import numpy as np

from hyperfl import learner
from hyperfl.poincare import project_to_ball_arr


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


def mobius_add_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Mobius addition a (+) b of ball points, ball-clamped:
    ((1 + 2<a,b> + ||b||^2) a + (1 - ||a||^2) b) / (1 + 2<a,b> + ||a||^2 ||b||^2)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a2 = np.sum(a * a, axis=-1, keepdims=True)
    b2 = np.sum(b * b, axis=-1, keepdims=True)
    ab = np.sum(a * b, axis=-1, keepdims=True)
    num = (1.0 + 2.0 * ab + b2) * a + (1.0 - a2) * b
    den = 1.0 + 2.0 * ab + a2 * b2
    return project_to_ball_arr(num / den)
