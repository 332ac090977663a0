from decimal import Decimal, localcontext

import numpy as np
import pytest

from hyperfl import poincare as pb
from hyperfl.poincare import _project_to_ball_arr
from oracles import (
    dist_grad,
    distances,
    exp0,
    log0,
    mobius_add_arr,
    pullback,
    sq_norms,
    step_distances,
)

RNG = np.random.default_rng(20240601)


def random_ball_point(rng, dim, max_norm=0.9):
    v = rng.standard_normal(dim)
    v *= rng.uniform(0.0, max_norm) / max(np.linalg.norm(v), 1e-12)
    return v


def random_tangent(rng, dim, max_norm=5.0):
    v = rng.standard_normal(dim)
    v *= rng.uniform(0.0, max_norm) / max(np.linalg.norm(v), 1e-12)
    return v


def dist(a, b):
    return float(distances(a[None, :], b[None, :])[0, 0])


class TestMobiusAdd:
    def test_zero_is_identity(self):
        a = np.array([0.3, -0.2, 0.1])
        out = mobius_add_arr(a, np.zeros(3))
        assert np.array_equal(out, a)

    def test_left_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_ball_point(rng, 4)
            out = mobius_add_arr(a, -a)
            assert np.max(np.abs(out)) < 1e-12

    def test_one_dimensional_formula(self):
        # scalar Mobius sum (r1 + r2) / (1 + r1 r2) evaluated by hand:
        # (0.3 + 0.4) / (1 + 0.12) = 0.625
        a = np.array([0.3, 0.0])
        b = np.array([0.4, 0.0])
        out = mobius_add_arr(a, b)
        assert out == pytest.approx([0.625, 0.0], abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mobius_add_arr(np.zeros(2), np.zeros(3))


class TestGeodesicDistance:
    def test_identical_points(self):
        x = np.array([0.2, 0.5])
        assert dist(x, x) == 0.0

    def test_distance_from_origin_closed_form(self):
        # d(0, x) = 2 artanh(||x||); at ||x|| = 0.5 this is ln 3
        x = np.array([0.5, 0.0])
        d = dist(np.zeros(2), x)
        assert d == pytest.approx(np.log(3.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_ball_point(rng, 3), random_ball_point(rng, 3)
            assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a, b, c = (random_ball_point(rng, 4) for _ in range(3))
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = random_ball_point(rng, 3), random_ball_point(rng, 3)
            d = dist(a, b)
            assert d >= 0.0
            if np.max(np.abs(a - b)) > 1e-9:
                assert d > 0.0


class TestExpLogMaps:
    def test_exp_of_zero_is_origin(self):
        out = exp0(np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_exp_norm_is_tanh(self):
        z = np.array([0.6, 0.8])  # unit norm
        out = exp0(z)
        assert np.linalg.norm(out) == pytest.approx(np.tanh(1.0), abs=1e-12)
        # direction preserved
        assert np.allclose(out / np.linalg.norm(out), z)

    def test_log_of_origin(self):
        out = log0(np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_log_norm_is_artanh(self):
        z = np.array([0.6, 0.8]) * np.tanh(1.0)
        out = log0(z)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_roundtrip_tangent_to_tangent(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            z = random_tangent(rng, 5, max_norm=5.0)
            back = log0(exp0(z))
            assert np.max(np.abs(back - z)) < 1e-9

    def test_roundtrip_ball_to_ball(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            p = random_ball_point(rng, 5, max_norm=1.0 - 1e-4)
            back = exp0(log0(p))
            assert np.max(np.abs(back - p)) < 1e-9

    def test_conformality_at_origin(self):
        # for tiny tangent vectors the geometry is Euclidean scaled by
        # lambda_0 = 2: d(exp0(u), exp0(v)) ~ 2 ||u - v||
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.standard_normal(3) * 1e-3
            v = rng.standard_normal(3) * 1e-3
            d = dist(exp0(u), exp0(v))
            expected = 2.0 * np.linalg.norm(u - v)
            assert d == pytest.approx(expected, rel=0.01)


class TestClamping:
    def test_construction_clamps_to_ball(self):
        p = _project_to_ball_arr(np.array([5.0, 0.0]))[0]
        assert np.linalg.norm(p) <= 1.0 - pb.EPS_BALL + 1e-15

    def test_no_nan_for_extreme_inputs(self):
        huge = _project_to_ball_arr(np.full(3, 1e12))[0]
        near = _project_to_ball_arr(np.array([1.0 - 1e-12, 0.0, 0.0]))[0]
        for a in (huge, near):
            for b in (huge, near):
                assert np.isfinite(dist(a, b))
            assert np.all(np.isfinite(mobius_add_arr(a, near)))

    def test_exp_map_output_stays_inside(self):
        z = np.full(4, 1e6)
        out = exp0(z)
        assert np.linalg.norm(out) <= 1.0 - pb.EPS_BALL + 1e-15


def distance_grad(z, b):
    """Gradient of z -> d(exp0(z), b), as the training step chains it."""
    z = z[None, :]
    grad_p = dist_grad(exp0(z), b[None, :])
    return pullback(z, grad_p)[0]


def central_difference_grad(z, b, h=1e-5):
    g = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (dist(exp0(zp), b) - dist(exp0(zm), b)) / (2 * h)
    return g


class TestDistanceGradient:
    def test_radial_configuration_is_collinear(self):
        # anchor on the ray through b: by symmetry the gradient is radial
        b = np.array([0.5, 0.0, 0.0])
        z = np.array([1.2, 0.0, 0.0])
        g = distance_grad(z, b)
        assert abs(g[1]) < 1e-12 and abs(g[2]) < 1e-12
        assert abs(g[0]) > 0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            z = rng.standard_normal(4) * rng.uniform(0.1, 2.0)
            b = random_ball_point(rng, 4, max_norm=0.9)
            analytic = distance_grad(z, b)
            fd = central_difference_grad(z, b)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-4

    def test_zero_distance_returns_zero(self):
        # d is not differentiable at its minimum; the kernel returns the
        # minimum-norm subgradient
        b = np.array([0.4, 0.3])
        g = distance_grad(log0(b), b)
        assert np.array_equal(g, np.zeros(2))


class TestMetricTable:
    def test_euclidean_gradient_matches_central_differences(self):
        rng = np.random.default_rng(9)
        p = np.stack([random_ball_point(rng, 4) for _ in range(6)])
        w = np.stack([random_ball_point(rng, 4) for _ in range(6)])
        h = 1e-6
        fd = np.empty_like(p)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            up, down = np.linalg.norm(p + e - w, axis=1), np.linalg.norm(p - e - w, axis=1)
            fd[:, j] = (up - down) / (2 * h)
        analytic = dist_grad(p, w, "euclidean")
        assert np.max(np.abs(analytic - fd)) < 1e-7

    @pytest.mark.parametrize("metric", ["cosine", "Geodesic", ""])
    def test_unknown_metric_named_by_every_entry(self, metric):
        # an unknown name is refused, never read as one of the known metrics
        p, w = np.zeros((1, 2)), np.full((1, 2), 0.5)
        with pytest.raises(ValueError, match=f"unknown metric {metric!r}"):
            pb.distance_to_set_arr(p, sq_norms(p), w, sq_norms(w), metric)
        with pytest.raises(ValueError, match=f"unknown metric {metric!r}"):
            dist_grad(p, w, metric)


def decimal_geodesic(p, w, digits=50):
    """d(p, w) and its gradient in p for one pair of float64 points, in
    ``digits``-digit decimal arithmetic on the points' exact values: with u =
    ||p - w||^2, a = 1 - ||p||^2, b = 1 - ||w||^2 and A = 1 + 2u/(ab),
    d = acosh(A) = ln(A + sqrt(A^2 - 1)) and its gradient is
    (4 / (ab sqrt(A^2 - 1))) [(p - w) + (u/a) p]."""
    with localcontext() as ctx:
        ctx.prec = digits
        pd = [Decimal(float(v)) for v in p]
        wd = [Decimal(float(v)) for v in w]
        diff = [x - y for x, y in zip(pd, wd)]
        u = sum(x * x for x in diff)
        a = 1 - sum(x * x for x in pd)
        b = 1 - sum(x * x for x in wd)
        big_a = 1 + 2 * u / (a * b)
        root = (big_a * big_a - 1).sqrt()
        scale = 4 / (a * b * root)
        grad = [scale * (x + u / a * y) for x, y in zip(diff, pd)]
        return float((big_a + root).ln()), np.array([float(g) for g in grad])


class TestNearCoincidentPoints:
    """The training step's distance and gradient, both from p - w, stay
    accurate as a point nears a prototype, against a 50-digit oracle; the
    inner-product form the scoring matrix uses cancels there instead."""

    @pytest.mark.parametrize("separation", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_distance_and_gradient_match_decimal_oracle(self, separation):
        rng = np.random.default_rng(27)
        n = 16
        for _ in range(20):
            w = rng.standard_normal(n)
            w *= 0.9 / np.linalg.norm(w)
            step = rng.standard_normal(n)
            p = w + separation * step / np.linalg.norm(step)
            want_d, want_g = decimal_geodesic(p, w)
            got_d = step_distances(p[None], w[None])[0]
            got_g = dist_grad(p[None], w[None])[0]
            assert abs(got_d - want_d) <= 1e-13 * want_d
            assert np.linalg.norm(got_g - want_g) <= 1e-13 * np.linalg.norm(want_g)

    @pytest.mark.parametrize("r", [6.11, 6.5, 8.0, 20.0, 1e3, 1e8])
    def test_gradient_finite_past_the_ball_clamp(self, r):
        # tangent norms above artanh(1 - 1e-5) ~ 6.10 land on the clamp,
        # whose projection the pullback does not differentiate
        assert np.arctanh(1.0 - pb.EPS_BALL) < 6.11
        rng = np.random.default_rng(6)
        z = rng.standard_normal((8, 16))
        z *= r / np.linalg.norm(z, axis=1, keepdims=True)
        p = exp0(z)
        assert np.allclose(np.linalg.norm(p, axis=1), 1.0 - pb.EPS_BALL, rtol=0, atol=1e-15)
        # prototypes at 0.9, on the clamp, and within 1e-8 of the point
        w = np.concatenate((0.9 * p[:3] / np.linalg.norm(p[:3], axis=1, keepdims=True),
                            exp0(rng.standard_normal((3, 16)) * 50.0), p[6:] * (1.0 - 1e-8)))
        for metric in ("geodesic", "euclidean"):
            d = step_distances(p, w, metric)
            g = pullback(z, dist_grad(p, w, metric))
            assert np.isfinite(d).all() and np.isfinite(g).all()
