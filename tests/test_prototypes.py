import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import prototypes
from hyperfl.prototypes import (
    PrototypeSet,
    TammesReport,
    build_prototypes,
    load_prototypes,
    max_pairwise_cosine,
    optimize_prototypes,
    random_prototypes,
    random_unit_rows,
    save_prototypes,
    tammes_loss,
    tammes_loss_grad,
)
from oracles import distances

SIMPLEX_CASES = [(2, 2), (3, 2), (4, 3), (5, 4), (10, 20), (21, 20)]


class TestTammesLoss:
    def test_antipodal_pair(self):
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert tammes_loss(w) == pytest.approx(-1.0, abs=1e-12)

    def test_equilateral_triangle(self):
        angles = np.deg2rad([0.0, 120.0, 240.0])
        w = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert tammes_loss(w) == pytest.approx(-0.5, abs=1e-12)

    def test_identical_rows_worst_case(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert tammes_loss(w) == pytest.approx(1.0, abs=1e-12)


class TestOptimizePrototypes:
    def test_two_classes_become_antipodal(self):
        w, report = optimize_prototypes(2, 3, seed=0)
        assert report.max_pairwise_cosine == pytest.approx(-1.0, abs=1e-6)

    def test_tetrahedron(self):
        # analytic simplex optimum -1/(C-1) for C <= n+1
        _, report = optimize_prototypes(4, 3, seed=0)
        assert report.max_pairwise_cosine <= -1.0 / 3.0 + 1e-2

    @pytest.mark.parametrize("c,n", SIMPLEX_CASES)
    def test_simplex_bound(self, c, n):
        _, report = optimize_prototypes(c, n, seed=11)
        assert report.max_pairwise_cosine <= -1.0 / (c - 1) + 1e-2

    def test_seed_stability_of_optimum(self):
        _, r1 = optimize_prototypes(10, 20, seed=1)
        _, r2 = optimize_prototypes(10, 20, seed=2)
        assert abs(r1.max_pairwise_cosine - r2.max_pairwise_cosine) < 5e-2

    def test_deterministic(self):
        w1, _ = optimize_prototypes(6, 5, seed=42)
        w2, _ = optimize_prototypes(6, 5, seed=42)
        assert np.array_equal(w1, w2)

    def test_rows_stay_unit(self):
        w, _ = optimize_prototypes(7, 6, seed=3)
        assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) < 1e-9

    def test_pairwise_cosines_nearly_equal_for_simplex(self):
        # simplex symmetry: every pair ends within 1e-2 of every other pair
        for c, n in [(4, 3), (5, 4), (10, 20)]:
            w, _ = optimize_prototypes(c, n, seed=9)
            m = w @ w.T
            off = m[~np.eye(c, dtype=bool)]
            assert off.max() - off.min() < 1e-2

    def test_one_gram_matrix_per_iterate(self, monkeypatch):
        # the loss and the subgradient of an iterate share its Gram matrix:
        # one for the start, one per step, and two for the report
        calls = 0
        gram = prototypes._shifted_gram

        def counted(w):
            nonlocal calls
            calls += 1
            return gram(w)

        monkeypatch.setattr(prototypes, "_shifted_gram", counted)
        optimize_prototypes(5, 4, seed=0)
        assert calls == prototypes._MAX_ITERS + 3

    def test_budget_exhaustion_returns_best(self, monkeypatch):
        monkeypatch.setattr(prototypes, "_MAX_ITERS", 5)
        _, report = optimize_prototypes(10, 3, seed=0)
        assert report.iterations == 5
        assert not report.converged
        assert np.isfinite(report.final_loss)


class TestContract:
    def test_row_norms_equal_slope(self):
        w, _ = optimize_prototypes(5, 4, seed=0)
        ps = PrototypeSet(weights=0.9 * w, slope=0.9)
        assert np.max(np.abs(np.linalg.norm(ps.weights, axis=1) - 0.9)) < 1e-12

    def test_cosines_unchanged(self):
        w, _ = optimize_prototypes(6, 4, seed=1)
        ps = PrototypeSet(weights=0.37 * w, slope=0.37)
        before = w @ w.T
        scaled = ps.weights / 0.37
        after = scaled @ scaled.T
        assert np.max(np.abs(before - after)) < 1e-12

    def test_slope_range_enforced(self):
        w, _ = optimize_prototypes(3, 3, seed=2)
        for bad in (0.0, -0.5, 1.0, 1.5):
            # s = 1 would pin the prototypes on the open ball's boundary
            with pytest.raises(ValueError):
                PrototypeSet(weights=bad * w, slope=bad)

    def test_scaling_is_exact_multiplication(self):
        w, _ = optimize_prototypes(3, 3, seed=2)
        ps = PrototypeSet(weights=0.5 * w, slope=0.5)
        assert np.array_equal(ps.weights, 0.5 * w)


class TestGeodesicSeparation:
    def test_contracted_prototypes_separated(self):
        for c, n in [(4, 3), (5, 4)]:
            ps, _ = build_prototypes(c, n, 0.9, seed=4)
            dists = []
            for i in range(c):
                for j in range(i + 1, c):
                    pair = distances(ps.weights[i : i + 1], ps.weights[j : j + 1])
                    dists.append(pair[0, 0])
            dists = np.array(dists)
            assert np.all(dists > 0)
            # simplex case: all pairwise geodesic distances agree
            assert dists.max() - dists.min() < 1e-3


class TestPrototypeSet:
    def test_validates_row_norms(self):
        with pytest.raises(ValueError):
            PrototypeSet(weights=np.array([[0.9, 0.0], [0.5, 0.0]]), slope=0.9)

    def test_rejects_single_class(self):
        # a negative needs a class other than the true one
        with pytest.raises(ValueError, match="C >= 2"):
            PrototypeSet(weights=np.array([[0.9, 0.0, 0.0]]), slope=0.9)

    @pytest.mark.parametrize("slope", [0.0, -0.5, 1.0, 1.5, np.nan])
    def test_rejects_slope_out_of_range(self, slope):
        # rows at norm |slope| (NaN rows for NaN), so only the range can fail
        w = abs(slope) * np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="slope"):
            PrototypeSet(weights=w, slope=slope)

    def test_rejects_nan_rows(self):
        with pytest.raises(ValueError):
            PrototypeSet(weights=np.full((3, 2), np.nan), slope=0.9)

    def test_immutable(self):
        ps, _ = build_prototypes(3, 3, 0.9, seed=0)
        with pytest.raises(ValueError):
            ps.weights[0, 0] = 0.0

    def test_random_prototypes_shape(self):
        ps = random_prototypes(7, 5, 0.8, seed=3)
        assert ps.weights.shape == (7, 5)
        assert np.max(np.abs(np.linalg.norm(ps.weights, axis=1) - 0.8)) < 1e-12


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        ps, _ = build_prototypes(5, 4, 0.9, seed=17)
        path = tmp_path / "protos.bin"
        save_prototypes(ps, path)
        back = load_prototypes(path)
        assert np.array_equal(back.weights, ps.weights)
        assert back.slope == ps.slope
        assert back.seed == ps.seed

    def test_truncated_file_rejected(self, tmp_path):
        ps, _ = build_prototypes(4, 3, 0.9, seed=0)
        path = tmp_path / "protos.bin"
        save_prototypes(ps, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(ValueError):
            load_prototypes(path)

    def test_nan_payload_rejected(self, tmp_path):
        ps, _ = build_prototypes(3, 2, 0.9, seed=0)
        raw = ps.to_bytes()
        header = raw[: len(raw) - ps.weights.nbytes]
        path = tmp_path / "protos.bin"
        path.write_bytes(header + np.full(ps.weights.size, np.nan, dtype="<f8").tobytes())
        with pytest.raises(ValueError):
            load_prototypes(path)

    @pytest.mark.parametrize("c, n, field", [(-3, 2, "'C'"), (3, -2, "'n'"), (-3, -2, "'C'")])
    def test_negative_shape_names_file_and_field(self, tmp_path, c, n, field):
        # with both negative C * n is positive: a payload-size check alone
        # lets the header through
        path = tmp_path / "protos.bin"
        header = struct.pack("<qqdq", c, n, 0.9, 0)
        path.write_bytes(b"HFPROTO1" + header + bytes(8 * abs(c * n)))
        with pytest.raises(ValueError, match=field) as err:
            load_prototypes(path)
        assert str(path) in str(err.value)

    def test_slope_out_of_range_names_slope(self, tmp_path):
        # rows at norm 1.5 match the header slope; every distance to them
        # would come out 0, so each sample would be predicted as class 0
        path = tmp_path / "protos.bin"
        w = 1.5 * np.array([[1.0, 0.0], [-1.0, 0.0]])
        path.write_bytes(b"HFPROTO1" + struct.pack("<qqdq", 2, 2, 1.5, 0)
                         + w.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="slope") as err:
            load_prototypes(path)
        assert str(path) in str(err.value)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a prototype file at all")
        with pytest.raises(ValueError):
            load_prototypes(path)


def test_build_prototypes_is_deterministic():
    a, _ = build_prototypes(6, 4, 0.9, seed=123)
    b, _ = build_prototypes(6, 4, 0.9, seed=123)
    assert np.array_equal(a.weights, b.weights)
    assert a.to_bytes() == b.to_bytes()


def test_max_pairwise_cosine_matches_loss_for_symmetric_config():
    angles = np.deg2rad([0.0, 120.0, 240.0])
    w = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert max_pairwise_cosine(w) == pytest.approx(-0.5, abs=1e-12)


# Oracles for the Tammes subgradient: the original row-by-row loop, and the
# optimizer driven by a plainly written (H + H^T) W / C step with the original
# explicit -2I Gram matrix.


def reference_tammes_loss_grad(w):
    w = np.asarray(w, dtype=np.float64)
    c = w.shape[0]
    m = w @ w.T - 2.0 * np.eye(c)
    grad = np.zeros_like(w)
    for i in range(c):
        j = int(np.argmax(m[i]))
        if j == i:  # degenerate: every pair already at cosine -1
            grad[i] += 2.0 * w[i] / c
        else:
            grad[i] += w[j] / c
            grad[j] += w[i] / c
    return grad


def _reference_loss(w):
    m = w @ w.T - 2.0 * np.eye(w.shape[0])
    return float(np.mean(np.max(m, axis=1)))


def reference_subgradient(w):
    """(H + H^T) W / C, H[i, j] = 1 where j is row i's argmax partner."""
    c = w.shape[0]
    m = w @ w.T - 2.0 * np.eye(c)
    h = np.zeros((c, c))
    h[np.arange(c), np.argmax(m, axis=1)] = 1.0
    return (h + h.T) @ (w / c)


def reference_optimize_prototypes(c, n, seed):
    """2,000 steps: step size 0.1 for the first half, then a geometric decay
    to 1e-6; converged means no 1e-7 improvement in the last 50 steps."""
    max_iters, hold, lr, lr_final, tol, patience = 2000, 1000, 0.1, 1e-6, 1e-7, 50
    rng = np.random.default_rng(seed)
    w = random_unit_rows(c, n, rng)
    best_w = w.copy()
    best_loss = _reference_loss(w)
    decay = (lr_final / lr) ** (1.0 / (max_iters - hold))
    last_progress = 0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if iterations > hold:
            lr *= decay
        w = w - lr * reference_subgradient(w)
        w = w / np.linalg.norm(w, axis=1, keepdims=True)
        loss = _reference_loss(w)
        improvement = best_loss - loss
        if improvement >= 0:
            best_loss = loss
            best_w = w.copy()
        if improvement >= tol:
            last_progress = iterations
    m = best_w @ best_w.T - 2.0 * np.eye(c)
    report = TammesReport(
        final_loss=best_loss,
        max_pairwise_cosine=float(np.max(m)),
        iterations=iterations,
        converged=iterations - last_progress >= patience,
    )
    return best_w, report


class TestBatchedGradientMatchesReference:
    """The subgradient product agrees with the row loop up to rounding; the
    optimizer keeps the bytes of a plainly written product step."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        c=st.integers(2, 120),
        n=st.integers(2, 20),
        seed=st.integers(0, 2**32 - 1),
        duplicates=st.integers(0, 8),
    )
    def test_gradient_matches_row_loop(self, c, n, seed, duplicates):
        rng = np.random.default_rng(seed)
        w = random_unit_rows(c, n, rng)
        # copied rows tie at cosine 1, so argmax picks the lowest copy
        for _ in range(min(duplicates, c - 1)):
            w[rng.integers(c)] = w[rng.integers(c)]
        loss, grad = tammes_loss_grad(w)
        assert loss == _reference_loss(w)
        # each entry sums at most C terms, each at most 2/C in size
        atol = 2 * c * np.finfo(float).eps
        np.testing.assert_allclose(grad, reference_tammes_loss_grad(w), rtol=0, atol=atol)

    def test_antipodal_pair_argmax_is_self(self):
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loss, got = tammes_loss_grad(w)
        assert loss == _reference_loss(w)
        assert np.array_equal(got, [[0.5, 0.0], [0.5, 0.0]])

    @pytest.mark.parametrize("c,n", [(2, 3), (5, 4), (10, 8), (100, 16)])
    def test_optimizer_bytes(self, c, n):
        for seed in range(3):
            w, report = optimize_prototypes(c, n, seed)
            ref_w, ref = reference_optimize_prototypes(c, n, seed)
            assert w.tobytes() == ref_w.tobytes()
            assert report.final_loss == ref.final_loss
            assert report.iterations == ref.iterations
            assert report.converged == ref.converged
            assert report.max_pairwise_cosine == ref.max_pairwise_cosine
