"""Test-side maths and call helpers that the program itself never needs."""

import numpy as np

from hyperfl import learner
from hyperfl.poincare import (
    _project_to_ball_arr,
    dist_grad_wrt_point_arr,
    distance_to_set_arr,
    exp_map_origin_arr,
    exp_map_origin_jvp_transpose_arr,
    metric_kernels,
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
    """``poincare.dist_grad_wrt_point_arr`` for the row pairs (p_i, w_i), each
    of weight 1, the differences and squared norms taken here."""
    p, w = np.asarray(p, dtype=np.float64), np.asarray(w, dtype=np.float64)
    diff = (p - w)[None]
    return dist_grad_wrt_point_arr(p, sq_norms(p), diff, sq_norms(diff), sq_norms(w)[None],
                                   np.ones(diff.shape[:2]), metric)


def step_distances(p, w, metric="geodesic"):
    """The ``metric`` distances of the row pairs (p_i, w_i) as the training
    step takes them: ``poincare``'s elementwise distance of each pair's
    squared norms and u = ||p_i - w_i||^2."""
    p, w = np.asarray(p, dtype=np.float64), np.asarray(w, dtype=np.float64)
    return metric_kernels(metric)[0](sq_norms(p), sq_norms(w), sq_norms(p - w))


def pair_distance(p2, w2, u, metric="geodesic"):
    """The ``metric`` distance of a pair from ||p||^2, ||w||^2 and u =
    ||p - w||^2, written out: sqrt(u), or arcosh(1 + x) = log1p(x + sqrt(x (x
    + 2))) with x = 2u/((1-||p||^2)(1-||w||^2))."""
    if metric == "euclidean":
        return np.sqrt(u)
    x = 2.0 * u / ((1.0 - p2) * (1.0 - w2))
    return np.log1p(x + np.sqrt(x * (x + 2.0)))


def pair_grad_scales(p2, w2, u, weight, metric="geodesic"):
    """One pair's share of a weighted distance gradient in p, written out:
    (s, e) with weight grad_p d(p, w) = s (p - w) + (e/a) p, a = 1-||p||^2.
    Geodesic: s = weight 4/(ab sqrt(x (x + 2))) with b = 1-||w||^2 and x =
    2u/(ab), e = s u; Euclidean: s = weight/sqrt(u), e = 0.  A pair with u
    <= 1e-24 (d = 0, not differentiable) adds nothing."""
    if u <= 1e-24:
        return 0.0, 0.0
    if metric == "euclidean":
        return weight / np.sqrt(u), 0.0
    a = 1.0 - p2
    ab = a * (1.0 - w2)
    x = 2.0 * u / ab
    s = 4.0 * weight / (ab * np.sqrt(x * (x + 2.0)))
    return s, s * u


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
    ``neg`` per round, each distance taken from p - w."""
    y = np.asarray(y, dtype=np.int64)
    p = exp0(learner.forward_batch(theta, cfg, np.asarray(x, dtype=np.float64)))
    cols = np.concatenate((y[None], neg))
    d = pair_distance(sq_norms(p), protos.sq_norms[cols],
                      sq_norms(p - protos.weights[cols]), metric)
    gap = d[0] - d[1:] + margin
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
