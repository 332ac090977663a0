import numpy as np
import pytest

from hyperfl.aggregation import (
    aggregate,
    compute_deviations,
    fedavg_weights,
    min_norm_weights,
    pareto_gap,
)


def pv(values):
    return np.asarray(values, dtype=float).ravel()


def random_dev(rng, k, dim):
    deltas = [pv(rng.standard_normal(dim)) for _ in range(k)]
    return compute_deviations(pv(np.zeros(dim)), deltas)


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
        dev = compute_deviations(g, [g.copy(), g.copy()])
        assert np.array_equal(dev.deltas, np.zeros((2, 3)))
        assert np.array_equal(dev.gram, np.zeros((2, 2)))

    def test_orthogonal_deltas(self):
        g = pv([0.0, 0.0])
        dev = compute_deviations(g, [pv([1.0, 0.0]), pv([0.0, 1.0])])
        assert np.array_equal(dev.gram, np.eye(2))

    def test_gram_matches_brute_force(self):
        rng = np.random.default_rng(0)
        g = pv(rng.standard_normal(50))
        locals_ = [pv(rng.standard_normal(50)) for _ in range(6)]
        dev = compute_deviations(g, locals_)
        for i in range(6):
            for j in range(6):
                direct = float(np.dot(dev.deltas[i], dev.deltas[j]))
                assert dev.gram[i, j] == direct  # bit-exact vs the dot oracle

    @pytest.mark.parametrize("k", [1, 31, 32, 33, 70])
    def test_tiled_gram_matches_brute_force(self, k):
        # a (K, P) block over one to three Gram tiles: every entry, the tiles'
        # corners included, is the dot oracle of the two rows
        rng = np.random.default_rng(k)
        block = rng.standard_normal((k, 203))
        dev = compute_deviations(pv(rng.standard_normal(203)), block)
        for i in range(k):
            for j in range(i, k):
                direct = float(np.dot(dev.deltas[i], dev.deltas[j]))
                assert dev.gram[i, j] == direct and dev.gram[j, i] == direct

    def test_gram_symmetric_nonneg_diag(self):
        rng = np.random.default_rng(1)
        dev = random_dev(rng, 5, 20)
        assert np.array_equal(dev.gram, dev.gram.T)
        assert np.all(np.diag(dev.gram) >= 0)


def two_client_weight(d_tau, d_vir):
    """Min-norm weight on ``d_tau`` against ``d_vir``: ``min_norm_weights``
    at K = 2, where the min-norm point is one segment's closest point to 0."""
    dev = compute_deviations(pv(np.zeros(len(d_tau))), [pv(d_tau), pv(d_vir)])
    return float(min_norm_weights(dev, [1, 1]).p[0])


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
        dev = random_dev(np.random.default_rng(4), 1, 8)
        w = min_norm_weights(dev, [5])
        assert np.array_equal(w.p, [1.0])
        assert w.cu_iterations == 0

    def test_identical_deltas_keep_data_weights(self):
        d = np.random.default_rng(5).standard_normal(10)
        dev = compute_deviations(pv(np.zeros(10)), [pv(d), pv(d), pv(d)])
        w = min_norm_weights(dev, [3, 2, 1])
        assert np.allclose(w.p, [0.5, 1 / 3, 1 / 6])

    def test_two_client_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d1, d2 = rng.standard_normal(10), rng.standard_normal(10)
            dev = compute_deviations(pv(np.zeros(10)), [pv(d1), pv(d2)])
            w = min_norm_weights(dev, [1, 1])
            q = float(np.clip(np.dot(d2 - d1, d2) / np.dot(d1 - d2, d1 - d2), 0.0, 1.0))
            assert abs(w.p[0] - q) < 1e-9
            assert abs(w.p[1] - (1 - q)) < 1e-9

    def test_three_client_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dev = random_dev(rng, 3, 10)
            w = min_norm_weights(dev, [1, 1, 1])
            achieved = float(w.p @ dev.gram @ w.p)
            assert achieved <= grid_min_norm_sq(dev.gram) + 1e-3

    def test_simplex_preserved(self):
        rng = np.random.default_rng(8)
        for k in (2, 3, 5, 10):
            dev = random_dev(rng, k, 4 * k)
            w = min_norm_weights(dev, rng.integers(1, 9, k))
            assert abs(float(np.sum(w.p)) - 1.0) < 1e-9
            assert np.all(w.p >= 0)

    def test_stationarity_certificate(self):
        rng = np.random.default_rng(10)
        for k in (2, 3, 5, 10, 20):
            for _ in range(20):
                dev = random_dev(rng, k, max(10, 3 * k))
                w = min_norm_weights(dev, rng.integers(1, 9, k))
                row = dev.gram @ w.p
                combined_sq = float(w.p @ row)
                bound = combined_sq - 1e-6 * float(np.max(np.diag(dev.gram)))
                assert np.all(row >= bound)
                assert w.pareto_gap <= 1e-6 * float(np.max(np.diag(dev.gram)))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        base = [rng.standard_normal(16) for _ in range(4)]
        dev1 = compute_deviations(pv(np.zeros(16)), [pv(d) for d in base])
        dev2 = compute_deviations(pv(np.zeros(16)), [pv(250.0 * d) for d in base])
        w1 = min_norm_weights(dev1, [1, 2, 3, 4])
        w2 = min_norm_weights(dev2, [1, 2, 3, 4])
        assert np.max(np.abs(w1.p - w2.p)) < 1e-9
        m1 = sum(float(a) * d for a, d in zip(w1.p, base))
        m2 = sum(float(a) * (250.0 * d) for a, d in zip(w2.p, base))
        assert np.allclose(m2, 250.0 * m1, rtol=1e-8, atol=1e-10)


class TestExactSolver:
    """The solver reaches stationarity to rounding, within its budget, on a
    cross-device-sized problem and on degenerate hulls."""

    def assert_exact(self, deltas, counts=None):
        dim = deltas.shape[1]
        dev = compute_deviations(pv(np.zeros(dim)), [pv(d) for d in deltas])
        w = min_norm_weights(dev, np.ones(len(deltas)) if counts is None else counts)
        assert w.pareto_gap <= 1e-12 * float(np.max(np.diag(dev.gram)))
        assert w.cu_iterations < 500
        return w

    def test_cross_device_size(self):
        # 300 nearly orthogonal deviations: the optimum weights almost all of them
        self.assert_exact(np.random.default_rng(17).standard_normal((300, 1608)))

    def test_more_clients_than_dimensions(self):
        rng = np.random.default_rng(18)
        self.assert_exact(rng.standard_normal((40, 4)))
        self.assert_exact(rng.standard_normal((40, 4)) + 2.0)

    def test_duplicate_deltas(self):
        base = np.random.default_rng(19).standard_normal((5, 12))
        w = self.assert_exact(np.repeat(base, 4, axis=0), np.arange(1, 21))
        assert np.count_nonzero(w.p) <= 5

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
        w = self.assert_exact(deltas)
        assert np.array_equal(w.p, np.eye(10)[3])


class TestFedavgWeights:
    def test_equal_counts(self):
        assert np.array_equal(fedavg_weights([1, 1]).p, [0.5, 0.5])

    def test_three_to_one(self):
        assert np.array_equal(fedavg_weights([3, 1]).p, [0.75, 0.25])

    def test_sums_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            counts = rng.integers(1, 1000, rng.integers(1, 12))
            assert float(np.sum(fedavg_weights(counts).p)) == pytest.approx(1.0, abs=1e-12)


class TestAggregate:
    def test_one_hot_recovers_client(self):
        rng = np.random.default_rng(14)
        g = pv(rng.standard_normal(9))
        locals_ = [pv(rng.standard_normal(9)) for _ in range(3)]
        dev = compute_deviations(g, locals_)
        for k in range(3):
            p = np.zeros(3)
            p[k] = 1.0
            w = fedavg_weights([1, 1, 1])
            w.p = p
            out = aggregate(g, dev, w)
            assert np.max(np.abs(out - locals_[k])) < 1e-15

    def test_identical_locals_win_regardless_of_weights(self):
        rng = np.random.default_rng(15)
        g = pv(rng.standard_normal(5))
        common = pv(rng.standard_normal(5))
        dev = compute_deviations(g, [common.copy() for _ in range(3)])
        w = fedavg_weights([5, 2, 1])
        out = aggregate(g, dev, w)
        assert np.max(np.abs(out - common)) < 1e-12

    def test_data_weights_reduce_to_plain_average(self):
        rng = np.random.default_rng(16)
        g = pv(rng.standard_normal(40))
        locals_ = [pv(rng.standard_normal(40)) for _ in range(4)]
        counts = np.array([4, 1, 2, 3], dtype=float)
        dev = compute_deviations(g, locals_)
        out = aggregate(g, dev, fedavg_weights(counts))
        direct = sum(
            (c / counts.sum()) * loc for c, loc in zip(counts, locals_)
        )
        assert np.max(np.abs(out - direct)) < 1e-12

    def test_nonfinite_result_rejected(self):
        # a client at +max from a global at -max: the deviation overflows
        big = np.finfo(np.float64).max
        g = pv([-big, 0.0])
        with np.errstate(over="ignore"):
            dev = compute_deviations(g, [pv([big, 0.0])])
        with pytest.raises(ValueError, match="not finite"):
            aggregate(g, dev, fedavg_weights([1]))


def test_pareto_gap_zero_at_optimum():
    # optimum of two orthogonal unit deltas is the midpoint
    gram = np.eye(2)
    assert pareto_gap(gram, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)
