"""Poincare-ball geometry at curvature -1 (open unit ball), as batched kernels.

Conventions:
    ball point   x : ||x||_2 < 1; kernels clamp their outputs to 1 - EPS_BALL
    tangent vec  z : any finite vector, read as tangent at the origin

    distance(a, b)   = arcosh(1 + 2||a-b||^2 / ((1-||a||^2)(1-||b||^2)))
    exp0(z)          = tanh(||z||) z / ||z||

Distances take a metric name.  ``metric_kernels`` is the one place that
resolves it: "geodesic" is the ball distance above, "euclidean" the flat
alternative ||a - b||.  Each is one elementwise function of ||a||^2, ||b||^2
and u = ||a - b||^2.  The training step takes u from the difference a - b,
which it shares with the gradient kernel and which stays accurate as a nears
b; scoring takes every u from one inner-product matrix.

Every kernel works row-wise on float64 arrays and is pure (no shared mutable
state).  A kernel takes the row norms it reads (||z||, ||p||^2, ||w||^2) from
its caller, which computes each once and shares it between kernels; the exp
map returns ||p||^2 with the points.
"""

from __future__ import annotations

import numpy as np

# Boundary clamp: points are kept at norm <= 1 - EPS_BALL so that the
# distance formula (which diverges at the boundary) stays finite.
EPS_BALL = 1e-5

# Below this squared separation the distance gradient is treated as sitting
# at the non-differentiable minimum d = 0.
_ZERO_DIST_SQ = 1e-24


def _project_to_ball_arr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radially clamp rows of ``x`` to norm <= 1 - EPS_BALL; returns the
    clamped rows and their squared norms.

    Rows already inside the limit are returned bit-identical.
    """
    sq = np.add.reduce(x * x, axis=-1)
    norms = np.sqrt(sq)[..., None]
    limit = 1.0 - EPS_BALL
    over = norms > limit
    if not over.any():
        return x, sq
    x = x * np.where(over, limit / np.maximum(norms, limit), 1.0)
    return x, np.add.reduce(x * x, axis=-1)


def exp_map_origin_arr(z: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exp map at the origin, ball-clamped, for ``z`` of shape
    (..., B, n) and its row norms ``r`` = ||z|| of shape (..., B); returns
    the ball points p and their squared norms ||p||^2."""
    r = r[..., None]
    scale = np.divide(np.tanh(r), r, out=np.ones_like(r), where=r > 0)
    return _project_to_ball_arr(z * scale)


def _geodesic(p2: np.ndarray, w2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Geodesic distance from the squared norms ``p2`` = ||p||^2, ``w2`` =
    ||w||^2 and the squared separation ``u`` = ||p - w||^2, elementwise:
    arcosh(1 + x) with x = 2u/((1-||p||^2)(1-||w||^2)), taken as
    log1p(x + sqrt(x (x + 2))), which keeps its accuracy as x -> 0."""
    x = 2.0 * u / ((1.0 - p2) * (1.0 - w2))
    return np.log1p(x + np.sqrt(x * (x + 2.0)))


def _euclidean(p2: np.ndarray, w2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Euclidean counterpart of ``_geodesic``: sqrt(u)."""
    return np.sqrt(u)


def _geodesic_grad(p2: np.ndarray, w2: np.ndarray, u: np.ndarray, weight: np.ndarray):
    """Pair scales (s, t) of the weighted geodesic gradient: with a =
    1-||p||^2, b = 1-||w||^2 and x = 2u/(ab), the gradient of d(p, w) in p is

        (4 / (ab sqrt(x (x + 2)))) [(p - w) + (u/a) p],

    so s = weight 4/(ab sqrt(x (x + 2))) per pair scales p - w, and t = sum
    over pairs of s u/a scales p.  ``live`` pairs (u > _ZERO_DIST_SQ) only."""
    a = 1.0 - p2
    ab = a * (1.0 - w2)
    x = 2.0 * u / ab
    live = u > _ZERO_DIST_SQ
    s = np.divide(4.0 * weight, ab * np.sqrt(x * (x + 2.0)), out=np.zeros_like(u), where=live)
    # summed in pair order: a reduction over a lone sample's pairs would pair them up
    return s, np.cumsum(s * u, axis=0)[-1] / a


def _euclidean_grad(p2: np.ndarray, w2: np.ndarray, u: np.ndarray, weight: np.ndarray):
    """Pair scales of the weighted Euclidean gradient, (p - w)/||p - w|| per
    pair: s = weight/sqrt(u) on ``live`` pairs, and no term along p."""
    live = u > _ZERO_DIST_SQ
    return np.divide(weight, np.sqrt(u), out=np.zeros_like(u), where=live), None


# Metric name -> (distance from ||p||^2, ||w||^2 and u = ||p - w||^2,
# elementwise; the pair scales of its weighted gradient in p).
_METRICS = {
    "geodesic": (_geodesic, _geodesic_grad),
    "euclidean": (_euclidean, _euclidean_grad),
}


def metric_kernels(metric: str):
    """The (distance, grad) kernels of ``metric``; a ValueError names an
    unknown metric."""
    try:
        return _METRICS[metric]
    except (KeyError, TypeError):
        raise ValueError(f"unknown metric {metric!r}; expected one of {tuple(_METRICS)}") from None


def distance_to_set_arr(
    p: np.ndarray, p2: np.ndarray, w: np.ndarray, w2: np.ndarray, metric: str = "geodesic"
) -> np.ndarray:
    """(..., B, C) ``metric`` distances from each row of ``p`` (..., B, n) to
    each row of ``w`` (C, n) or (..., C, n), given the squared row norms
    ``p2`` (..., B) and ``w2`` (C,) or (..., C).

    One ``np.matmul`` takes every inner product, and u = ||p||^2 + ||w||^2 -
    2 p.w: cheap for every pair, but it cancels as p nears w, so only
    scoring, which reads an argmin or a mean, uses it.  A leading axis
    stacks independent (B, n) by (C, n) products, each with the bits of its
    own call.
    """
    distance, _ = metric_kernels(metric)
    p2, w2 = p2[..., None], w2[..., None, :]
    return distance(p2, w2, np.maximum(p2 + w2 - 2.0 * (p @ w.mT), 0.0))


def dist_grad_wrt_point_arr(
    p: np.ndarray,
    p2: np.ndarray,
    diff: np.ndarray,
    u: np.ndarray,
    w2: np.ndarray,
    weight: np.ndarray,
    metric: str = "geodesic",
) -> np.ndarray:
    """sum_k weight[k] grad_p d(p, w_k): the weighted gradient in p of the
    ``metric`` distances from each row of ``p`` (B, n) to K prototypes, given
    per pair k the shared ``diff`` = p - w_k (K, B, n), ``u`` = ||diff||^2
    and ``w2`` = ||w_k||^2 (K, B), and ||p||^2 ``p2`` (B,).

    The (K, B) weights are folded into scalar pair scales first, so the only
    (n-wide) work is one sum over the pairs, taken in pair order from zero.
    A pair with u <= _ZERO_DIST_SQ sits at the non-differentiable minimum
    d = 0 and adds nothing.
    """
    s, t = metric_kernels(metric)[1](p2, w2, u, weight)
    grad = np.add.reduce(s[..., None] * diff, axis=0)
    if t is not None:
        grad += t[:, None] * p
    return grad


def exp_map_origin_jvp_transpose_arr(z: np.ndarray, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pull a gradient at p = exp0(z) back to z: returns J_exp0(z)^T v, for
    rows ``z`` with norms ``r`` = ||z|| (B,).

    With g(r) = tanh(r)/r, the Jacobian is g I + (g'(r)/r) z z^T
    (symmetric), so the transpose product is g v + (g'(r)/r) (z . v) z.
    Rows with r < 1e-4 use the series expansions g ~ 1 - r^2/3,
    g'/r ~ -2/3, evaluated only when such a row exists.
    """
    r = r[..., None]
    small = r < 1e-4
    any_small = small.any()
    r_safe = np.where(small, 1.0, r) if any_small else r
    t = np.tanh(r_safe)
    g = t / r_safe
    gp_over_r = (r_safe * (1.0 - t * t) - t) / r_safe**3
    if any_small:
        g = np.where(small, 1.0 - r * r / 3.0, g)
        gp_over_r = np.where(small, -2.0 / 3.0 + 8.0 * r * r / 15.0, gp_over_r)
    zv = np.add.reduce(z * v, axis=-1, keepdims=True)
    return g * v + gp_over_r * zv * z
