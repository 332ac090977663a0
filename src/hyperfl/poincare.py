"""Poincare-ball geometry at curvature -1 (open unit ball), as batched kernels.

Conventions:
    ball point   x : ||x||_2 < 1; kernels clamp their outputs to 1 - EPS_BALL
    tangent vec  z : any finite vector, read as tangent at the origin

    distance(a, b)   = arcosh(1 + 2||a-b||^2 / ((1-||a||^2)(1-||b||^2)))
    exp0(z)          = tanh(||z||) z / ||z||

Distances take a metric name.  ``metric_kernels`` is the one place that
resolves it: "geodesic" is the ball distance above, "euclidean" the flat
alternative ||a - b||, each with its gradient in the point.

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


def _geodesic_from_inner(p2: np.ndarray, w2: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """Geodesic distance from the squared norms ``p2``, ``w2`` and the inner
    product ``pw``, elementwise over their broadcast shape.

    Elementwise, so an entry's bits depend only on its three inputs: fed
    entries gathered from the set-wide quantities it reproduces the matching
    entries of ``distance_to_set_arr``.
    """
    sq = np.maximum(p2 + w2 - 2.0 * pw, 0.0)
    arg = 1.0 + 2.0 * sq / ((1.0 - p2) * (1.0 - w2))
    return np.arccosh(np.maximum(arg, 1.0))


def _euclidean_from_inner(p2: np.ndarray, w2: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """Euclidean counterpart of ``_geodesic_from_inner``."""
    return np.sqrt(np.maximum(p2 + w2 - 2.0 * pw, 0.0))


def _geodesic_grad(p: np.ndarray, p2: np.ndarray, w: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Gradient of the geodesic distance(p, w) with respect to p, row-wise,
    given the squared row norms ``p2`` = ||p||^2 and ``w2`` = ||w||^2.

    With u = ||p-w||^2, a = 1-||p||^2, b = 1-||w||^2 and
    A = 1 + 2u/(ab):

        dA/dp = (4/(ab)) [(p - w) + (u/a) p]
        dd/dp = dA/dp / sqrt(A^2 - 1)

    Rows with u ~ 0 come back as zero; callers decide whether that needs
    flagging.
    """
    diff = p - w
    u = np.add.reduce(diff * diff, axis=-1, keepdims=True)
    a = 1.0 - p2[:, None]
    b = 1.0 - w2[:, None]
    ab = a * b
    a_minus_1 = 2.0 * u / ab
    big_a = 1.0 + a_minus_1
    # A^2 - 1 = (A-1)(A+1) = (2u/ab)(A+1): evaluate in factored form so the
    # u -> 0 cancellation against the (p - w) numerator stays accurate.
    root = np.sqrt(np.maximum(a_minus_1 * (big_a + 1.0), 0.0))
    d_a = (4.0 / ab) * (diff + (u / a) * p)
    grad = np.divide(d_a, root, out=np.zeros_like(d_a), where=root > 0)
    grad[(u <= _ZERO_DIST_SQ).ravel()] = 0.0
    return grad


def _euclidean_grad(p: np.ndarray, p2: np.ndarray, w: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Unit vector (p - w)/||p - w|| row-wise; zero where p = w.  The
    squared norms go unused."""
    diff = p - w
    r = np.linalg.norm(diff, axis=-1, keepdims=True)
    return np.divide(diff, r, out=np.zeros_like(diff), where=r > 0)


# Metric name -> (distance from ||p||^2, ||w||^2 and p.w, elementwise; the
# distance's gradient in p from p, ||p||^2, w and ||w||^2, row-wise).
_METRICS = {
    "geodesic": (_geodesic_from_inner, _geodesic_grad),
    "euclidean": (_euclidean_from_inner, _euclidean_grad),
}


def metric_kernels(metric: str):
    """The (from_inner, grad) kernels of ``metric``; a ValueError names an
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

    One ``np.matmul`` takes every inner product; a leading axis stacks
    independent (B, n) by (C, n) products, each with the bits of its own call.
    """
    from_inner, _ = metric_kernels(metric)
    return from_inner(p2[..., None], w2[..., None, :], p @ w.mT)


def dist_grad_wrt_point_arr(
    p: np.ndarray, p2: np.ndarray, w: np.ndarray, w2: np.ndarray, metric: str = "geodesic"
) -> np.ndarray:
    """Gradient of the ``metric`` distance(p, w) with respect to p, row-wise,
    for (B, n) rows ``p`` and ``w`` with squared norms ``p2`` and ``w2`` (B,)."""
    return metric_kernels(metric)[1](p, p2, w, w2)


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
