import numpy as np
import pytest

from hyperfl.aggregation import (
    aggregate,
    compute_deviations,
    min_norm_weights,
    pareto_gap,
)


def pv(values):
    return np.asarray(values, dtype=float).ravel()


def random_gram(rng, k, dim):
    deltas = [pv(rng.standard_normal(dim)) for _ in range(k)]
    return compute_deviations(pv(np.zeros(dim)), deltas)[1]


def fractions(counts):
    """Data fractions N_k / sum N, as ``run_experiment`` computes them."""
    counts = np.asarray(counts, dtype=np.float64)
    return counts / counts.sum()


def grid_min_norm_sq(gram, resolution=0.001):
    """Exhaustive oracle over the 2-simplex at the given resolution (K = 3)."""
    steps = np.arange(0.0, 1.0 + resolution / 2, resolution)
    p1, p2 = np.meshgrid(steps, steps, indexing="ij")
    mask = p1 + p2 <= 1.0 + 1e-12
    p1, p2 = p1[mask], p2[mask]
    p3 = 1.0 - p1 - p2
    v = gram
    vals = (
        v[0, 0] * p1**2 + v[1, 1] * p2**2 + v[2, 2] * p3**2
        + 2 * v[0, 1] * p1 * p2 + 2 * v[0, 2] * p1 * p3 + 2 * v[1, 2] * p2 * p3
    )
    return float(np.min(vals))


class TestComputeDeviations:
    def test_zero_when_locals_equal_global(self):
        g = pv([1.0, 2.0, 3.0])
        deltas, gram = compute_deviations(g, [g.copy(), g.copy()])
        assert np.array_equal(deltas, np.zeros((2, 3)))
        assert np.array_equal(gram, np.zeros((2, 2)))

    def test_orthogonal_deltas(self):
        g = pv([0.0, 0.0])
        _, gram = compute_deviations(g, [pv([1.0, 0.0]), pv([0.0, 1.0])])
        assert np.array_equal(gram, np.eye(2))

    def test_gram_matches_brute_force(self):
        rng = np.random.default_rng(0)
        g = pv(rng.standard_normal(50))
        locals_ = [pv(rng.standard_normal(50)) for _ in range(6)]
        deltas, gram = compute_deviations(g, locals_)
        for i in range(6):
            for j in range(6):
                direct = float(np.dot(deltas[i], deltas[j]))
                assert gram[i, j] == direct  # bit-exact vs the dot oracle

    @pytest.mark.parametrize("k", [1, 31, 32, 33, 70])
    def test_tiled_gram_matches_brute_force(self, k):
        # a (K, P) block over one to three Gram tiles: every entry, the tiles'
        # corners included, is the dot oracle of the two rows
        rng = np.random.default_rng(k)
        block = rng.standard_normal((k, 203))
        deltas, gram = compute_deviations(pv(rng.standard_normal(203)), block)
        for i in range(k):
            for j in range(i, k):
                direct = float(np.dot(deltas[i], deltas[j]))
                assert gram[i, j] == direct and gram[j, i] == direct

    def test_gram_symmetric_nonneg_diag(self):
        rng = np.random.default_rng(1)
        gram = random_gram(rng, 5, 20)
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diag(gram) >= 0)


def two_client_weight(d_tau, d_vir):
    """Min-norm weight on ``d_tau`` against ``d_vir``: ``min_norm_weights``
    at K = 2, where the min-norm point is one segment's closest point to 0."""
    _, gram = compute_deviations(pv(np.zeros(len(d_tau))), [pv(d_tau), pv(d_vir)])
    return float(min_norm_weights(gram, fractions([1, 1]))[0][0])


class TestLineSearch:
    def test_orthogonal_pair_balances(self):
        # minimizing q^2 + (1-q)^2 gives q = 0.5; verified against a grid scan
        q = two_client_weight([1.0, 0.0], [0.0, 1.0])
        assert q == pytest.approx(0.5, abs=1e-12)
        grid = np.linspace(0, 1, 100001)
        vals = grid**2 + (1 - grid) ** 2
        assert abs(grid[np.argmin(vals)] - q) < 1e-4

    def test_collinear_clamps_to_one(self):
        # raw value (dvir - dtau).dvir / ||diff||^2 = 6/4 = 1.5, clamped to 1
        assert two_client_weight([1.0, 0.0], [3.0, 0.0]) == 1.0

    def test_smaller_virtual_already_optimal(self):
        # (dtau - dvir).dvir = 2 >= 0 keeps the virtual combination
        assert two_client_weight([3.0, 0.0], [1.0, 0.0]) == 0.0

    def test_identical_inputs_return_zero(self):
        # a flat objective: the starting data weights are already stationary
        # and stay
        d = [0.7, -0.1]
        assert two_client_weight(d, list(d)) == 0.5

    def test_both_zero_returns_zero(self):
        # stationary again: the starting data weights stay
        assert two_client_weight([0.0, 0.0], [0.0, 0.0]) == 0.5

    def test_interior_matches_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            q = two_client_weight(a, b)
            grid = np.linspace(0, 1, 20001)
            vals = np.sum((grid[:, None] * a + (1 - grid)[:, None] * b) ** 2, axis=1)
            assert abs(q - grid[np.argmin(vals)]) < 1e-4


class TestMinNormWeights:
    def test_single_client(self):
        gram = random_gram(np.random.default_rng(4), 1, 8)
        p, steps = min_norm_weights(gram, fractions([5]))
        assert np.array_equal(p, [1.0])
        assert steps == 0

    def test_identical_deltas_keep_data_weights(self):
        d = np.random.default_rng(5).standard_normal(10)
        _, gram = compute_deviations(pv(np.zeros(10)), [pv(d), pv(d), pv(d)])
        p, _ = min_norm_weights(gram, fractions([3, 2, 1]))
        assert np.allclose(p, [0.5, 1 / 3, 1 / 6])

    def test_two_client_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d1, d2 = rng.standard_normal(10), rng.standard_normal(10)
            _, gram = compute_deviations(pv(np.zeros(10)), [pv(d1), pv(d2)])
            p, _ = min_norm_weights(gram, fractions([1, 1]))
            q = float(np.clip(np.dot(d2 - d1, d2) / np.dot(d1 - d2, d1 - d2), 0.0, 1.0))
            assert abs(p[0] - q) < 1e-9
            assert abs(p[1] - (1 - q)) < 1e-9

    def test_three_client_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gram = random_gram(rng, 3, 10)
            p, _ = min_norm_weights(gram, fractions([1, 1, 1]))
            achieved = float(p @ gram @ p)
            assert achieved <= grid_min_norm_sq(gram) + 1e-3

    def test_simplex_preserved(self):
        rng = np.random.default_rng(8)
        for k in (2, 3, 5, 10):
            gram = random_gram(rng, k, 4 * k)
            p, _ = min_norm_weights(gram, fractions(rng.integers(1, 9, k)))
            assert abs(float(np.sum(p)) - 1.0) < 1e-9
            assert np.all(p >= 0)

    def test_stationarity_certificate(self):
        rng = np.random.default_rng(10)
        for k in (2, 3, 5, 10, 20):
            for _ in range(20):
                gram = random_gram(rng, k, max(10, 3 * k))
                p, _ = min_norm_weights(gram, fractions(rng.integers(1, 9, k)))
                row = gram @ p
                combined_sq = float(p @ row)
                bound = combined_sq - 1e-6 * float(np.max(np.diag(gram)))
                assert np.all(row >= bound)
                assert pareto_gap(gram, p) <= 1e-6 * float(np.max(np.diag(gram)))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        base = [rng.standard_normal(16) for _ in range(4)]
        _, gram1 = compute_deviations(pv(np.zeros(16)), [pv(d) for d in base])
        _, gram2 = compute_deviations(pv(np.zeros(16)), [pv(250.0 * d) for d in base])
        p1, _ = min_norm_weights(gram1, fractions([1, 2, 3, 4]))
        p2, _ = min_norm_weights(gram2, fractions([1, 2, 3, 4]))
        assert np.max(np.abs(p1 - p2)) < 1e-9
        m1 = sum(float(a) * d for a, d in zip(p1, base))
        m2 = sum(float(a) * (250.0 * d) for a, d in zip(p2, base))
        assert np.allclose(m2, 250.0 * m1, rtol=1e-8, atol=1e-10)


class TestExactSolver:
    """The solver reaches stationarity to rounding, within its budget, on a
    cross-device-sized problem and on degenerate hulls, and its weights stay
    on the simplex."""

    def assert_exact(self, deltas, counts=None):
        dim = deltas.shape[1]
        _, gram = compute_deviations(pv(np.zeros(dim)), [pv(d) for d in deltas])
        p, steps = min_norm_weights(
            gram, fractions(np.ones(len(deltas)) if counts is None else counts)
        )
        assert pareto_gap(gram, p) <= 1e-12 * float(np.max(np.diag(gram)))
        assert steps < 500
        assert abs(float(np.sum(p)) - 1.0) <= 1e-9
        assert np.all(p >= 0)
        return p

    def test_cross_device_size(self):
        # 300 nearly orthogonal deviations: the optimum weights almost all of them
        self.assert_exact(np.random.default_rng(17).standard_normal((300, 1608)))

    def test_more_clients_than_dimensions(self):
        rng = np.random.default_rng(18)
        self.assert_exact(rng.standard_normal((40, 4)))
        self.assert_exact(rng.standard_normal((40, 4)) + 2.0)

    def test_duplicate_deltas(self):
        base = np.random.default_rng(19).standard_normal((5, 12))
        p = self.assert_exact(np.repeat(base, 4, axis=0), np.arange(1, 21))
        assert np.count_nonzero(p) <= 5

    def test_near_twins_stop_within_budget(self):
        # twins 1e-9 apart are one point to rounding in the Gram matrix; a
        # corral holding both is degenerate and the major step that adds the
        # second makes no progress (seed 4 would cycle to the budget)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            base = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 24))
            self.assert_exact(np.vstack([base, base * (1 + 1e-9)]))

    def test_one_zero_delta_takes_all_weight(self):
        deltas = np.random.default_rng(20).standard_normal((10, 12))
        deltas[3] = 0.0
        p = self.assert_exact(deltas)
        assert np.array_equal(p, np.eye(10)[3])


class TestStart:
    """The data fractions the solver starts from are the caller's: it never
    writes into them, and returns them as they are when they are stationary."""

    def test_start_unchanged_by_a_solve(self):
        rng = np.random.default_rng(21)
        for k in (2, 3, 10, 40):
            gram = random_gram(rng, k, 12)
            start = fractions(rng.integers(1, 9, k))
            before = start.copy()
            p, steps = min_norm_weights(gram, start)
            assert steps > 0 and not np.array_equal(p, start)
            assert start.tobytes() == before.tobytes()

    def test_stationary_start_returned_as_it_is(self):
        # identical deltas: every simplex vector is a min-norm point
        d = np.random.default_rng(22).standard_normal(10)
        _, gram = compute_deviations(pv(np.zeros(10)), [pv(d)] * 3)
        start = fractions([3, 2, 1])
        before = start.copy()
        p, steps = min_norm_weights(gram, start)
        assert steps == 0
        assert p.tobytes() == before.tobytes() == start.tobytes()


class TestAggregate:
    def test_one_hot_recovers_client(self):
        rng = np.random.default_rng(14)
        g = pv(rng.standard_normal(9))
        locals_ = [pv(rng.standard_normal(9)) for _ in range(3)]
        deltas, _ = compute_deviations(g, locals_)
        for k in range(3):
            out = aggregate(g, deltas, np.eye(3)[k])
            assert np.max(np.abs(out - locals_[k])) < 1e-15

    def test_identical_locals_win_regardless_of_weights(self):
        rng = np.random.default_rng(15)
        g = pv(rng.standard_normal(5))
        common = pv(rng.standard_normal(5))
        deltas, _ = compute_deviations(g, [common.copy() for _ in range(3)])
        out = aggregate(g, deltas, fractions([5, 2, 1]))
        assert np.max(np.abs(out - common)) < 1e-12

    def test_data_weights_reduce_to_plain_average(self):
        rng = np.random.default_rng(16)
        g = pv(rng.standard_normal(40))
        locals_ = [pv(rng.standard_normal(40)) for _ in range(4)]
        counts = np.array([4, 1, 2, 3], dtype=float)
        deltas, _ = compute_deviations(g, locals_)
        out = aggregate(g, deltas, fractions(counts))
        direct = sum(
            (c / counts.sum()) * loc for c, loc in zip(counts, locals_)
        )
        assert np.max(np.abs(out - direct)) < 1e-12

    def test_nonfinite_result_rejected(self):
        # a client at +max from a global at -max: the deviation overflows
        big = np.finfo(np.float64).max
        g = pv([-big, 0.0])
        with np.errstate(over="ignore"):
            deltas, _ = compute_deviations(g, [pv([big, 0.0])])
        with pytest.raises(ValueError, match="not finite"):
            aggregate(g, deltas, np.ones(1))


def test_pareto_gap_zero_at_optimum():
    # optimum of two orthogonal unit deltas is the midpoint
    gram = np.eye(2)
    assert pareto_gap(gram, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)
