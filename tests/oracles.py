"""Test-side maths and call helpers that the program itself never needs."""

import numpy as np

from hyperfl import learner
from hyperfl.poincare import (
    _project_to_ball_arr,
    dist_grad_wrt_point_arr,
    distance_to_set_arr,
    exp_map_origin_arr,
    exp_map_origin_jvp_transpose_arr,
)


def sq_norms(x):
    """Squared row norms, reduced over the last axis as the program does."""
    x = np.asarray(x, dtype=np.float64)
    return np.add.reduce(x * x, axis=-1)


def exp0(z):
    """The ball points of ``poincare.exp_map_origin_arr`` of rows ``z``,
    their norms taken here."""
    z = np.asarray(z, dtype=np.float64)
    return exp_map_origin_arr(z, np.sqrt(sq_norms(z)))[0]


def distances(p, w, metric="geodesic"):
    """``poincare.distance_to_set_arr``, the squared norms taken here."""
    return distance_to_set_arr(p, sq_norms(p), w, sq_norms(w), metric)


def dist_grad(p, w, metric="geodesic"):
    """``poincare.dist_grad_wrt_point_arr``, the squared norms taken here."""
    return dist_grad_wrt_point_arr(p, sq_norms(p), w, sq_norms(w), metric)


def pullback(z, v):
    """``poincare.exp_map_origin_jvp_transpose_arr``, the norms of ``z`` taken here."""
    return exp_map_origin_jvp_transpose_arr(z, np.sqrt(sq_norms(z)), v)


def log0(p):
    """Inverse of ``exp0``, row-wise: artanh(||p||) p/||p||."""
    p = np.asarray(p, dtype=np.float64)
    r = np.linalg.norm(p, axis=-1, keepdims=True)
    return np.divide(np.arctanh(r), r, out=np.ones_like(r), where=r > 0) * p


def draw_negatives(y, num_classes, rounds=1, seed=0):
    """(rounds, B) negatives for the labels ``y``, drawn as ``learner.local_train``
    draws one step's: one ``sample_negative`` call on the label block, here
    from a new generator seeded with ``seed``."""
    y = np.asarray(y, dtype=np.int64)
    return learner.sample_negative(y[None].repeat(rounds, 0), num_classes,
                                   np.random.default_rng(seed))


def sampled_triplet_loss(theta, cfg, x, y, neg, protos, margin, metric="geodesic"):
    """The batch-mean triplet loss that ``learner.triplet_grad`` differentiates:
    per sample, the hinge averaged over its negatives, one (R, B) row of
    ``neg`` per round."""
    y = np.asarray(y, dtype=np.int64)
    d = distances(exp0(learner.forward_batch(theta, cfg, np.asarray(x, dtype=np.float64))),
                  protos.weights, metric)
    rows = np.arange(y.shape[0])
    gap = d[rows, y] - d[rows, neg] + margin
    return float(np.sum(np.maximum(gap, 0.0)) / neg.size)


def fresh_triplet_grad(theta, cfg, x, y, neg, protos, margin, metric="geodesic"):
    """The sampled loss and one ``learner.triplet_grad`` step on the
    negatives ``neg``, the step writing into a new buffer."""
    grad = learner.triplet_grad(theta, cfg, x, y, neg, protos, margin, np.zeros_like(theta),
                                metric)
    return sampled_triplet_loss(theta, cfg, x, y, neg, protos, margin, metric), grad


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
    return _project_to_ball_arr(num / den)[0]
