"""Poincare-ball geometry at curvature -1 (open unit ball).

Conventions:
    ball point   x : ||x||_2 < 1, clamped at construction to 1 - EPS_BALL
    tangent vec  z : any finite vector, read as tangent at the origin
    conformal factor lambda_x = 2 / (1 - ||x||^2)

    mobius_add(a, b) = ((1 + 2<a,b> + ||b||^2) a + (1 - ||a||^2) b)
                       / (1 + 2<a,b> + ||a||^2 ||b||^2)
    distance(a, b)   = arcosh(1 + 2||a-b||^2 / ((1-||a||^2)(1-||b||^2)))
    exp0(z)          = tanh(||z||) z / ||z||
    log0(p)          = artanh(||p||) p / ||p||

Everything is float64 and pure (no shared mutable state).  The scalar
operations work on BallPoint/TangentVector wrappers; the ``*_arr`` kernels
are the batched equivalents used in training loops.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Boundary clamp: points are kept at norm <= 1 - EPS_BALL so that the
# distance formula (which diverges at the boundary) stays finite.
EPS_BALL = 1e-5

# Below this squared separation the distance gradient is treated as sitting
# at the non-differentiable minimum d = 0.
_ZERO_DIST_SQ = 1e-24


class ZeroDistanceGradientWarning(RuntimeWarning):
    """Raised when the distance gradient is requested at d = 0."""


def _as_vector(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def project_to_ball_arr(x: np.ndarray) -> np.ndarray:
    """Radially clamp rows of ``x`` to norm <= 1 - EPS_BALL.

    Rows already inside the limit are returned bit-identical.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    limit = 1.0 - EPS_BALL
    over = norms > limit
    if not np.any(over):
        return x
    scale = np.where(over, limit / np.maximum(norms, limit), 1.0)
    return x * scale


@dataclass(frozen=True)
class BallPoint:
    """A point strictly inside the unit Poincare ball.

    Construction clamps the norm to 1 - EPS_BALL, so any finite vector is
    accepted and the stored coordinates always satisfy the ball invariant.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = project_to_ball_arr(_as_vector(self.coords))
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at the origin (plain Euclidean vector, any norm)."""

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.coords)
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def _check_dims(a, b, op: str):
    if a.dim != b.dim:
        raise ValueError(f"{op}: dimension mismatch ({a.dim} vs {b.dim})")


def mobius_add(a: BallPoint, b: BallPoint) -> BallPoint:
    """Mobius addition a (+) b on the unit ball."""
    _check_dims(a, b, "mobius_add")
    x, y = a.coords, b.coords
    x2 = float(x @ x)
    y2 = float(y @ y)
    xy = float(x @ y)
    num = (1.0 + 2.0 * xy + y2) * x + (1.0 - x2) * y
    den = 1.0 + 2.0 * xy + x2 * y2
    return BallPoint(num / den)


def conformal_factor(p: BallPoint) -> float:
    """lambda_p = 2 / (1 - ||p||^2); equals 2 at the origin, >= 2 everywhere."""
    sq = float(p.coords @ p.coords)
    return 2.0 / (1.0 - sq)


def geodesic_distance(a: BallPoint, b: BallPoint) -> float:
    """Geodesic distance between two ball points.

    The arcosh argument is clamped to >= 1 so that rounding noise on
    near-identical points cannot produce NaN.
    """
    _check_dims(a, b, "geodesic_distance")
    x, y = a.coords, b.coords
    diff = x - y
    arg = 1.0 + 2.0 * float(diff @ diff) / (
        (1.0 - float(x @ x)) * (1.0 - float(y @ y))
    )
    return float(np.arccosh(max(arg, 1.0)))


def exp_map_origin(z: TangentVector) -> BallPoint:
    """Map a tangent vector at the origin onto the ball: tanh(||z||) z/||z||.

    The zero vector maps to the origin by convention (the 0/0 direction is
    never formed).
    """
    v = z.coords
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return BallPoint(np.zeros_like(v))
    return BallPoint(np.tanh(r) / r * v)


def log_map_origin(p: BallPoint) -> TangentVector:
    """Inverse of exp_map_origin: artanh(||p||) p/||p||."""
    v = p.coords
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return TangentVector(np.zeros_like(v))
    return TangentVector(np.arctanh(r) / r * v)


def exp_map_origin_arr(z: np.ndarray) -> np.ndarray:
    """Row-wise exp map at the origin for a (B, n) array, ball-clamped."""
    z = np.asarray(z, dtype=np.float64)
    r = np.linalg.norm(z, axis=-1, keepdims=True)
    scale = np.divide(np.tanh(r), r, out=np.ones_like(r), where=r > 0)
    return project_to_ball_arr(z * scale)


def distance_arr(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise geodesic distance between (B, n) arrays of ball points."""
    diff = p - q
    num = np.sum(diff * diff, axis=-1)
    den = (1.0 - np.sum(p * p, axis=-1)) * (1.0 - np.sum(q * q, axis=-1))
    return np.arccosh(np.maximum(1.0 + 2.0 * num / den, 1.0))


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


def distance_to_set_arr(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Distances from each row of ``p`` (B, n) to each row of ``w`` (C, n).

    Returns a (B, C) matrix.
    """
    p2 = np.sum(p * p, axis=-1)[:, None]
    w2 = np.sum(w * w, axis=-1)[None, :]
    return _geodesic_from_inner(p2, w2, p @ w.T)


def euclidean_distance_to_set_arr(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, C) Euclidean distances; the optional flat-metric variant."""
    p2 = np.sum(p * p, axis=-1)[:, None]
    w2 = np.sum(w * w, axis=-1)[None, :]
    return _euclidean_from_inner(p2, w2, p @ w.T)


def dist_grad_wrt_point_arr(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of distance(p, w) with respect to p, row-wise.

    With u = ||p-w||^2, a = 1-||p||^2, b = 1-||w||^2 and
    A = 1 + 2u/(ab):

        dA/dp = (4/(ab)) [(p - w) + (u/a) p]
        dd/dp = dA/dp / sqrt(A^2 - 1)

    Rows with u ~ 0 come back as zero; callers decide whether that needs
    flagging.
    """
    diff = p - w
    u = np.sum(diff * diff, axis=-1, keepdims=True)
    a = 1.0 - np.sum(p * p, axis=-1, keepdims=True)
    b = 1.0 - np.sum(w * w, axis=-1, keepdims=True)
    ab = a * b
    big_a = 1.0 + 2.0 * u / ab
    # A^2 - 1 = (A-1)(A+1) = (2u/ab)(A+1): evaluate in factored form so the
    # u -> 0 cancellation against the (p - w) numerator stays accurate.
    root = np.sqrt(np.maximum((2.0 * u / ab) * (big_a + 1.0), 0.0))
    d_a = (4.0 / ab) * (diff + (u / a) * p)
    grad = np.divide(d_a, root, out=np.zeros_like(d_a), where=root > 0)
    grad[(u <= _ZERO_DIST_SQ).ravel()] = 0.0
    return grad


def euclidean_grad_wrt_point_arr(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    diff = p - w
    r = np.linalg.norm(diff, axis=-1, keepdims=True)
    return np.divide(diff, r, out=np.zeros_like(diff), where=r > 0)


def exp_map_origin_jvp_transpose_arr(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pull a gradient at p = exp0(z) back to z: returns J_exp0(z)^T v.

    With r = ||z||, g(r) = tanh(r)/r, the Jacobian is
    g I + (g'(r)/r) z z^T (symmetric), so the transpose product is
    g v + (g'(r)/r) (z . v) z.  Small r uses the series expansions
    g ~ 1 - r^2/3, g'/r ~ -2/3.
    """
    r = np.linalg.norm(z, axis=-1, keepdims=True)
    small = r < 1e-4
    r_safe = np.where(small, 1.0, r)
    t = np.tanh(r_safe)
    g = np.where(small, 1.0 - r * r / 3.0, t / r_safe)
    gp_over_r = np.where(
        small,
        -2.0 / 3.0 + 8.0 * r * r / 15.0,
        (r_safe * (1.0 - t * t) - t) / r_safe**3,
    )
    zv = np.sum(z * v, axis=-1, keepdims=True)
    return g * v + gp_over_r * zv * z


def geodesic_distance_grad(a_tangent: TangentVector, b: BallPoint) -> TangentVector:
    """Gradient of z -> distance(exp0(z), b) with respect to z.

    At the minimum (exp0(z) coincides with b) the distance is not
    differentiable; the zero vector is returned as the minimum-norm
    subgradient and a ZeroDistanceGradientWarning is emitted.
    """
    _check_dims(a_tangent, b, "geodesic_distance_grad")
    z = a_tangent.coords[None, :]
    p = exp_map_origin_arr(z)
    diff = p - b.coords[None, :]
    if float(np.sum(diff * diff)) <= _ZERO_DIST_SQ:
        warnings.warn(
            "distance gradient requested at d = 0; returning zero subgradient",
            ZeroDistanceGradientWarning,
            stacklevel=2,
        )
        return TangentVector(np.zeros(a_tangent.dim))
    grad_p = dist_grad_wrt_point_arr(p, b.coords[None, :])
    grad_z = exp_map_origin_jvp_transpose_arr(z, grad_p)
    return TangentVector(grad_z[0])
