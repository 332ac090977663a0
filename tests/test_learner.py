from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import federation, learner, poincare
from hyperfl.data import ClientShard, LabeledDataset, PartitionSpec, make_synthetic, split_local
from hyperfl.learner import (
    ExtractorConfig,
    TripletConfig,
    forward_batch,
    init_params,
    local_train,
    mean_triplet_loss,
    predict_batch,
    sample_negative,
    triplet_grad,
)
from hyperfl.prototypes import PrototypeSet, build_prototypes
from oracles import dist_grad, distances, exp0, fresh_triplet_grad, log0, pullback, sq_norms


def antipodal_protos(radius=0.9):
    w = np.array([[radius, 0.0], [-radius, 0.0]])
    return PrototypeSet(weights=w, slope=radius)


def linear_cfg(din, dout):
    return ExtractorConfig(input_dim=din, hidden=(), output_dim=dout)


@pytest.fixture(scope="module")
def protos3():
    ps, _ = build_prototypes(3, 3, 0.9, seed=5)
    return ps


def flat(*tensors):
    """Parameters packed in ``ExtractorConfig.spans`` order: w0, b0, w1, b1, ..."""
    return np.concatenate([np.asarray(t, dtype=np.float64).ravel() for t in tensors])


def constant_feature(z):
    """A linear extractor (one input) whose tangent feature is always ``z``."""
    return flat(np.zeros((z.size, 1)), z), linear_cfg(1, z.size)


class TestExtract:
    def test_zero_parameters_give_zero_feature(self):
        cfg = ExtractorConfig(input_dim=4, hidden=(6,), output_dim=3)
        theta = np.zeros(sum(np.prod(shape) for _, _, shape in cfg.spans))
        out = forward_batch(theta, cfg, np.array([[1.0, -2.0, 0.5, 3.0]]))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_identity_layer_passes_basis_vector(self):
        cfg = linear_cfg(3, 3)
        theta = flat(np.eye(3), np.zeros(3))
        out = forward_batch(theta, cfg, np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(out, [[1.0, 0.0, 0.0]])

    def test_deterministic(self):
        cfg = ExtractorConfig(input_dim=5, hidden=(7,), output_dim=2)
        x = np.arange(5.0)[None, :]
        a = forward_batch(init_params(cfg, 3), cfg, x)
        b = forward_batch(init_params(cfg, 3), cfg, x)
        assert np.array_equal(a, b)

    def test_layer_views_follow_layout(self):
        # init_params writes weights and biases through the layer views: the
        # bias slices (odd positions of spans) are zero, the weight slices not
        cfg = ExtractorConfig(input_dim=4, hidden=(6, 5), output_dim=3)
        theta = init_params(cfg, 7)
        offset = 0
        for i, (start, stop, shape) in enumerate(cfg.spans):
            assert start == offset and stop - start == int(np.prod(shape))
            offset = stop
            assert theta[start:stop].any() == (i % 2 == 0), i
        assert [shape for _, _, shape in cfg.spans] == [(6, 4), (6,), (5, 6), (5,), (3, 5), (3,)]
        assert offset == theta.size == cfg.num_params

    def test_dimension_checked(self):
        cfg = linear_cfg(3, 2)
        with pytest.raises(ValueError):
            forward_batch(init_params(cfg, 0), cfg, np.zeros((1, 4)))


class TestTripletLoss:
    def test_anchor_on_positive_prototype(self, protos3):
        # every other prototype is further than the margin, whichever is drawn
        theta, cfg = constant_feature(log0(protos3.weights[0]))
        loss, _ = fresh_triplet_grad(theta, cfg, np.ones((1, 1)), np.array([0]), protos3,
                                     TripletConfig(margin=3.0), seed=0)
        assert loss == 0.0

    def test_equidistant_anchor_pays_margin(self):
        ps = antipodal_protos()
        theta, cfg = constant_feature(np.zeros(2))
        loss, _ = fresh_triplet_grad(theta, cfg, np.ones((1, 1)), np.array([0]), ps,
                                     TripletConfig(margin=3.0), seed=0)
        assert loss == pytest.approx(3.0, abs=1e-12)


class TestTripletGrad:
    def test_inactive_hinges_give_zero_gradient(self):
        # anchors sit exactly on their class prototypes; the prototype pair is
        # further apart than the margin, so every hinge is off
        ps = antipodal_protos()
        cfg = linear_cfg(2, 2)
        z0 = log0(ps.weights[0])
        z1 = log0(ps.weights[1])
        theta = flat(np.stack([z0, z1], axis=1), np.zeros(2))
        x = np.eye(2)
        y = np.array([0, 1])
        loss, grad = fresh_triplet_grad(theta, cfg, x, y, ps, TripletConfig(margin=3.0), seed=0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_single_layer_matches_finite_differences(self):
        ps = antipodal_protos()
        cfg = linear_cfg(2, 2)
        tcfg = TripletConfig(margin=3.0)
        rng = np.random.default_rng(0)
        theta = init_params(cfg, 1)
        theta += 0.2 * rng.standard_normal(theta.size)
        x = rng.standard_normal((1, 2))
        y = np.array([0])
        _, grad = fresh_triplet_grad(theta, cfg, x, y, ps, tcfg, seed=7)
        h = 1e-5
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, _ = fresh_triplet_grad(tp, cfg, x, y, ps, tcfg, seed=7)
            lm, _ = fresh_triplet_grad(tm, cfg, x, y, ps, tcfg, seed=7)
            fd[i] = (lp - lm) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grad - fd) / denom) < 1e-4

    def test_repeated_sample_batch_equals_single(self):
        # C = 2 makes the sampled negative deterministic, so batch mean over
        # identical rows must equal the single-sample gradient
        ps = antipodal_protos()
        cfg = linear_cfg(2, 2)
        tcfg = TripletConfig(margin=3.0)
        theta = init_params(cfg, 2)
        x = np.array([[0.4, -1.2]])
        y = np.array([1])
        _, g1 = fresh_triplet_grad(theta, cfg, x, y, ps, tcfg, seed=3)
        _, gb = fresh_triplet_grad(theta, cfg, np.repeat(x, 8, axis=0), np.repeat(y, 8), ps,
                                   tcfg, seed=3)
        assert np.max(np.abs(g1 - gb)) < 1e-12

    def test_gradient_oracle_small_mlp(self, protos3):
        # 20 random draws on a [4 -> 8 -> 3] extractor, C = 3, m = 3
        cfg = ExtractorConfig(input_dim=4, hidden=(8,), output_dim=3)
        tcfg = TripletConfig(margin=3.0)
        rng = np.random.default_rng(12)
        for draw in range(20):
            theta = init_params(
                ExtractorConfig(input_dim=4, hidden=(8,), output_dim=3), draw
            )
            theta += 0.3 * rng.standard_normal(theta.size)
            x = rng.standard_normal((5, 4))
            y = rng.integers(0, 3, 5)
            _, grad = fresh_triplet_grad(theta, cfg, x, y, protos3, tcfg, seed=11)
            h = 1e-5
            fd = np.zeros_like(theta)
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                lp, _ = fresh_triplet_grad(tp, cfg, x, y, protos3, tcfg, seed=11)
                lm, _ = fresh_triplet_grad(tm, cfg, x, y, protos3, tcfg, seed=11)
                fd[i] = (lp - lm) / (2 * h)
            both_small = (np.abs(fd) < 1e-8) & (np.abs(grad) < 1e-8)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.where(both_small, 0.0, rel)) < 1e-4

    def test_euclidean_metric_gradient(self):
        ps = antipodal_protos()
        cfg = linear_cfg(2, 2)
        tcfg = TripletConfig(margin=1.0)
        theta = init_params(cfg, 4)
        x = np.array([[1.0, 0.5]])
        y = np.array([0])
        _, grad = fresh_triplet_grad(theta, cfg, x, y, ps, tcfg, seed=5, metric="euclidean")
        h = 1e-5
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, _ = fresh_triplet_grad(tp, cfg, x, y, ps, tcfg, seed=5, metric="euclidean")
            lm, _ = fresh_triplet_grad(tm, cfg, x, y, ps, tcfg, seed=5, metric="euclidean")
            fd[i] = (lp - lm) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-4


class TestSampleNegative:
    def test_two_classes_forced(self):
        rng = np.random.default_rng(0)
        assert all(sample_negative(0, 2, rng) == 1 for _ in range(100))

    def test_never_returns_true_class(self):
        rng = np.random.default_rng(1)
        assert all(sample_negative(4, 7, rng) != 4 for _ in range(10000))

    def test_uniform_over_other_classes(self):
        # binomial 3-sigma band around 1/9 of 1e5 draws
        rng = np.random.default_rng(2)
        draws = np.array([sample_negative(3, 10, rng) for _ in range(100000)])
        counts = np.bincount(draws, minlength=10)
        assert counts[3] == 0
        expected = 100000 / 9
        sigma = np.sqrt(100000 * (1 / 9) * (8 / 9))
        others = np.delete(counts, 3)
        assert np.all(np.abs(others - expected) < 3 * sigma)

    def test_missing_class_still_reachable(self):
        # a client without class 2 locally still draws prototype 2 as negative
        rng = np.random.default_rng(3)
        local_labels = [0, 1, 3]  # class 2 absent from the shard
        draws = [sample_negative(int(rng.choice(local_labels)), 4, rng) for _ in range(2000)]
        assert draws.count(2) > 0


    def test_batch_draw_matches_scalar_draws(self):
        # one batched draw consumes the stream exactly like one scalar draw per
        # label; a scalar label gives a 0-d array
        y = np.random.default_rng(4).integers(0, 10, 33)
        batched, scalar = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            neg = sample_negative(y, 10, batched)
            assert neg.shape == y.shape
            assert np.array_equal(neg, [sample_negative(int(label), 10, scalar) for label in y])
        # a (rounds, batch) block, as triplet_grad draws it: round-major
        block = sample_negative(np.broadcast_to(y, (4, y.size)), 10, batched)
        assert block.shape == (4, y.size)
        assert np.array_equal(
            block, [[sample_negative(int(label), 10, scalar) for label in y] for _ in range(4)]
        )
        one = sample_negative(7, 10, batched)
        assert one.shape == () and one == sample_negative(7, 10, scalar)


def make_blob_shard(seed=0):
    ds = make_synthetic(num_classes=2, dim=2, per_class=60, spread=0.2, hierarchy_depth=0, seed=seed)
    return split_local(ds, seed=seed)


class TestLocalTrain:
    def setup_method(self):
        self.ps = antipodal_protos()
        self.cfg = ExtractorConfig(input_dim=2, hidden=(8,), output_dim=2)
        self.tcfg = TripletConfig(margin=3.0)

    def test_zero_lr_is_identity(self):
        shard = make_blob_shard()
        theta = init_params(self.cfg, 0)
        out = local_train(theta, shard.train, self.ps, self.cfg, self.tcfg, 3, 16, lr=0.0, seed=1)
        assert np.array_equal(out, theta)

    def test_zero_epochs_is_identity(self):
        shard = make_blob_shard()
        theta = init_params(self.cfg, 0)
        out = local_train(theta, shard.train, self.ps, self.cfg, self.tcfg, 0, 16, lr=0.3, seed=1)
        assert np.array_equal(out, theta)

    def test_loss_decreases_on_separable_blobs(self):
        shard = make_blob_shard(seed=3)
        theta = init_params(self.cfg, 0)
        before = mean_triplet_loss(theta, self.cfg, shard.train.features, shard.train.labels,
                                   self.ps.weights, self.ps.sq_norms, margin=3.0)
        out = local_train(theta, shard.train, self.ps, self.cfg, self.tcfg, 5, 16, lr=0.3, seed=1)
        after = mean_triplet_loss(out, self.cfg, shard.train.features, shard.train.labels,
                                  self.ps.weights, self.ps.sq_norms, margin=3.0)
        assert after < before

    def test_bitwise_reproducible(self):
        shard = make_blob_shard(seed=4)
        theta = init_params(self.cfg, 0)
        a = local_train(theta, shard.train, self.ps, self.cfg, self.tcfg, 4, 16, lr=0.3, seed=9)
        b = local_train(theta, shard.train, self.ps, self.cfg, self.tcfg, 4, 16, lr=0.3, seed=9)
        assert np.array_equal(a, b)

    def test_input_params_not_mutated(self):
        shard = make_blob_shard(seed=5)
        theta = init_params(self.cfg, 0)
        snapshot = theta.copy()
        local_train(theta, shard.train, self.ps, self.cfg, self.tcfg, 2, 16, lr=0.3, seed=2)
        assert np.array_equal(theta, snapshot)

    def test_never_hashes_the_config(self, monkeypatch):
        # the layout is an attribute of the config object, not a lookup keyed
        # by it: no SGD step hashes the config
        shard = make_blob_shard(seed=6)
        theta = init_params(self.cfg, 0)
        calls = []
        config_hash = ExtractorConfig.__hash__

        def counted(cfg):
            calls.append(cfg)
            return config_hash(cfg)

        monkeypatch.setattr(ExtractorConfig, "__hash__", counted)
        out = local_train(theta, shard.train, self.ps, self.cfg, self.tcfg, 2, 8, lr=0.3, seed=3)
        assert not np.array_equal(out, theta)  # the steps moved theta
        assert calls == []


class TestPredict:
    def test_anchor_on_prototype_recovers_class(self, protos3):
        cfg = linear_cfg(3, 3)
        for c in range(3):
            z = log0(protos3.weights[c])
            theta = flat(np.diag(z), np.zeros(3))
            assert predict_batch(theta, cfg, protos3.weights, protos3.sq_norms,
                                 np.ones((1, 3)))[0] == c

    def test_tie_breaks_to_lowest_class(self):
        # zero features are equidistant from antipodal prototypes
        ps = antipodal_protos()
        cfg = linear_cfg(2, 2)
        theta = flat(np.zeros((2, 2)), np.zeros(2))
        assert predict_batch(theta, cfg, ps.weights, ps.sq_norms, np.array([[1.0, 2.0]]))[0] == 0

    def test_representation_stays_in_ball(self):
        cfg = ExtractorConfig(input_dim=3, hidden=(4,), output_dim=2)
        theta = init_params(cfg, 0)
        theta += 1e6  # absurd weights still give a valid ball point
        z = forward_batch(theta, cfg, np.ones((1, 3)))
        p = exp0(z)
        assert np.linalg.norm(p) <= 1.0 - poincare.EPS_BALL + 1e-15

    def test_predict_batch_matches_scalar(self, protos3):
        cfg = ExtractorConfig(input_dim=3, hidden=(5,), output_dim=3)
        theta = init_params(cfg, 1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3))
        batch = predict_batch(theta, cfg, protos3.weights, protos3.sq_norms, x)
        singles = [predict_batch(theta, cfg, protos3.weights, protos3.sq_norms, xi[None, :])[0]
                   for xi in x]
        assert np.array_equal(batch, singles)


def test_mean_triplet_loss_matches_single_negative_for_two_classes():
    ps = antipodal_protos()
    cfg = ExtractorConfig(input_dim=2, hidden=(4,), output_dim=2)
    theta = init_params(cfg, 2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 2))
    y = rng.integers(0, 2, 30)
    ds = LabeledDataset(x, y, 2)
    # with C = 2 the expectation over negatives is the sampled loss itself
    expected, _ = fresh_triplet_grad(theta, cfg, x, y, ps, TripletConfig(margin=3.0), seed=0)
    got = mean_triplet_loss(theta, cfg, ds.features, ds.labels, ps.weights, ps.sq_norms,
                            margin=3.0)
    assert got == pytest.approx(expected, abs=1e-12)


def test_single_instance_shard_still_trains():
    ps = antipodal_protos()
    cfg = linear_cfg(2, 2)
    ds = LabeledDataset(np.ones((1, 2)), np.zeros(1, dtype=int), 2)
    out = local_train(init_params(cfg, 0), ds, ps, cfg, TripletConfig(), 1, 4, 0.1, seed=0)
    assert out.shape == init_params(cfg, 0).shape


def random_protos(num_classes, dim, seed, slope=0.9):
    w = np.random.default_rng(seed).standard_normal((num_classes, dim))
    return PrototypeSet(weights=slope * w / np.linalg.norm(w, axis=1, keepdims=True), slope=slope)


# each activation's derivative, expressed through the activation's output
REFERENCE_ACT_PRIME = {
    "tanh": lambda h: 1.0 - h * h,
    "relu": lambda h: (h > 0).astype(np.float64),
    "identity": np.ones_like,
}


def reference_triplet_grad(theta, cfg, x, y, protos, tcfg, rng, metric):
    """Per-sample reference for triplet_grad: one scalar RNG draw per
    sample, and a fresh concatenated gradient per call."""
    b, c = x.shape[0], protos.num_classes
    z, acts, layers = learner._forward_cached(theta, cfg, x)
    p = exp0(z)
    d_all = distances(p, protos.weights, metric)
    d_pos = d_all[np.arange(b), y]
    loss_acc = np.zeros(b)
    d_p_acc = np.zeros_like(p)
    grad_pos = dist_grad(p, protos.weights[y], metric)
    for _ in range(tcfg.negatives_per_sample):
        neg = []
        for label in y:
            j = int(rng.integers(c - 1))
            neg.append(j + 1 if j >= label else j)
        neg = np.array(neg)
        gap = d_pos - d_all[np.arange(b), neg] + tcfg.margin
        active = gap > 0.0
        loss_acc += np.maximum(gap, 0.0)
        if np.any(active):
            grad_neg = dist_grad(
                p[active], protos.weights[neg[active]], metric
            )
            d_p_acc[active] += grad_pos[active] - grad_neg
    scale = 1.0 / (b * tcfg.negatives_per_sample)
    d_z = pullback(z, d_p_acc * scale)
    grads = []
    delta = d_z
    for i in reversed(range(len(layers))):
        grads[:0] = [delta.T @ acts[i], delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ layers[i][0]) * REFERENCE_ACT_PRIME[cfg.activation](acts[i])
    return float(np.sum(loss_acc) * scale), flat(*grads)


def reference_local_train(theta_in, train, protos, cfg, tcfg, epochs, batch_size, lr,
                          seed, metric="geodesic"):
    rng = np.random.default_rng(seed)
    theta = theta_in.copy()
    n = train.size
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            _, grad = reference_triplet_grad(
                theta, cfg, train.features[idx], train.labels[idx], protos,
                tcfg, rng, metric,
            )
            theta -= lr * grad
    return theta


class TestBitExactAgainstReference:
    """local_train and triplet_grad reproduce the reference step bit for bit."""

    @pytest.mark.parametrize("num_classes", [2, 5, 100])
    @pytest.mark.parametrize("negatives", [1, 4])
    @pytest.mark.parametrize("epochs", [2, 3])
    def test_local_train_bitwise_equal(self, num_classes, negatives, epochs):
        dim = 3 if num_classes < 100 else 8
        protos = random_protos(num_classes, dim, seed=num_classes)
        rng = np.random.default_rng(num_classes + negatives)
        # 37 samples in batches of 8 leave a ragged last batch of 5
        ds = LabeledDataset(rng.standard_normal((37, 6)), rng.integers(0, num_classes, 37),
                            num_classes)
        cfg = ExtractorConfig(input_dim=6, hidden=(7,), output_dim=dim)
        tcfg = TripletConfig(margin=3.0, negatives_per_sample=negatives)
        theta = init_params(cfg, 1)
        args = (theta, ds, protos, cfg, tcfg, epochs, 8, 0.3)
        got = local_train(*args, seed=11)
        want = reference_local_train(*args, seed=11)
        assert not np.array_equal(got, theta)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("metric", ["geodesic", "euclidean"])
    def test_triplet_grad_bitwise_equal(self, protos3, metric):
        cfg = ExtractorConfig(input_dim=4, hidden=(5, 6), output_dim=3, activation="relu")
        tcfg = TripletConfig(margin=3.0, negatives_per_sample=2)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((9, 4)), rng.integers(0, 3, 9)
        theta = init_params(cfg, 0)
        grad = triplet_grad(theta, cfg, x, y, protos3, tcfg, np.random.default_rng(1),
                            np.zeros_like(theta), metric)
        _, ref_grad = reference_triplet_grad(theta, cfg, x, y, protos3, tcfg,
                                             np.random.default_rng(1), metric)
        assert grad.tobytes() == ref_grad.tobytes()


    @pytest.mark.parametrize("seed", range(8))
    def test_many_rounds_on_one_sample(self, seed):
        # eight or more rounds on a single sample: a reduction over the rounds
        # would pair their hinges up instead of adding them in draw order
        protos = random_protos(100, 8, seed=seed)
        cfg = ExtractorConfig(input_dim=6, hidden=(7,), output_dim=8)
        tcfg = TripletConfig(margin=3.0, negatives_per_sample=12)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((1, 6)), rng.integers(0, 100, 1)
        theta = init_params(cfg, seed)
        theta += rng.standard_normal(theta.size)
        grad = triplet_grad(theta, cfg, x, y, protos, tcfg, np.random.default_rng(seed),
                            np.zeros_like(theta))
        _, ref_grad = reference_triplet_grad(theta, cfg, x, y, protos, tcfg,
                                             np.random.default_rng(seed), "geodesic")
        assert grad.tobytes() == ref_grad.tobytes()


class TestNoActiveHinge:
    @pytest.mark.parametrize("negatives", [1, 3])
    def test_triplet_grad_bitwise_equal(self, negatives):
        # anchors sit on their own prototypes and every pair of prototypes is
        # further apart than the margin: no hinge is active in any round
        protos = random_protos(6, 4, seed=3)
        cfg = linear_cfg(6, 4)
        z = log0(protos.weights)
        theta = flat(z.T, np.zeros(4))
        y = np.array([0, 3, 5, 1, 1, 2, 4])
        x = np.eye(6)[y]
        tcfg = TripletConfig(margin=0.1, negatives_per_sample=negatives)
        grad = triplet_grad(theta, cfg, x, y, protos, tcfg, np.random.default_rng(2),
                            np.zeros_like(theta))
        ref_loss, ref_grad = reference_triplet_grad(theta, cfg, x, y, protos, tcfg,
                                                    np.random.default_rng(2), "geodesic")
        assert ref_loss == 0.0
        assert grad.tobytes() == ref_grad.tobytes()
        assert not grad.any()


def steerable_net(target_z, k, activation):
    """An (input, 2n, n) extractor and a batch whose tangent features are
    ``target_z``: w0 = I and w1 = k [I, -I], so z = k act(x+) - k act(x-)
    with x+- = act^-1(max(+-z, 0) / k), which needs |z| < k under tanh."""
    n = target_z.shape[1]
    parts = np.concatenate((np.maximum(target_z, 0.0), np.maximum(-target_z, 0.0)), axis=1) / k
    x = np.arctanh(parts) if activation == "tanh" else parts
    cfg = ExtractorConfig(input_dim=2 * n, hidden=(2 * n,), output_dim=n, activation=activation)
    theta = flat(np.eye(2 * n), np.zeros(2 * n), k * np.hstack((np.eye(n), -np.eye(n))),
                 np.zeros(n))
    return theta, cfg, x


class TestStepMatchesReference:
    """triplet_grad has the bits of the per-sample reference on both of its
    paths: steps with an active hinge, and steps without one (anchors on
    their own prototypes), with rows on the ball clamp and rows small enough
    for the series branch of the pullback."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        b=st.integers(1, 40),
        c=st.integers(2, 60),
        n=st.integers(2, 12),
        rounds=st.integers(1, 5),
        activation=st.sampled_from(["tanh", "relu", "identity"]),
        metric=st.sampled_from(["geodesic", "euclidean"]),
        on_prototypes=st.booleans(),
        clamped=st.integers(0, 3),
        tiny=st.integers(0, 3),
        prefilled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_loss_and_gradient_bytes(self, b, c, n, rounds, activation, metric, on_prototypes,
                                     clamped, tiny, prefilled, seed):
        rng = np.random.default_rng(seed)
        protos = random_protos(c, n, seed=seed)
        y = rng.integers(0, c, b)
        k = 8.0
        no_hinge = False
        if on_prototypes:
            z = log0(protos.weights[y])
            # half the closest distinct prototypes' distance: no hinge is active
            d = distances(protos.weights, protos.weights, metric)
            closest = d[~np.eye(c, dtype=bool)].min()
            no_hinge = closest > 1e-4  # else two prototypes (nearly) coincide
            margin = 0.5 * closest if no_hinge else 0.5
        else:
            z = np.clip(rng.standard_normal((b, n)), -k + 0.1, k - 0.1)
            margin = float(rng.uniform(0.1, 3.0))
            unit = rng.standard_normal((b, n))
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
            # tangent norms in (6.5, 7.5) land on the clamp at 1 - 1e-5; norms
            # below 1e-4 take the series branch of the pullback
            for i in rng.integers(0, b, clamped):
                z[i] = rng.uniform(6.5, 7.5) * unit[i]
            for i in rng.integers(0, b, tiny):
                z[i] = rng.uniform(1e-7, 9e-5) * unit[i]
        theta, cfg, x = steerable_net(z, k, activation)
        if not on_prototypes:
            (w0, _), (w1, _) = learner._layers(theta, cfg)
            w0 += 1e-3 * rng.standard_normal(w0.shape)
            w1 += 1e-3 * k * rng.standard_normal(w1.shape)
        tcfg = TripletConfig(margin=margin, negatives_per_sample=rounds)
        out = np.full_like(theta, np.nan) if prefilled else np.zeros_like(theta)
        grad = triplet_grad(theta, cfg, x, y, protos, tcfg, np.random.default_rng(seed),
                            out, metric)
        ref_loss, ref_grad = reference_triplet_grad(theta, cfg, x, y, protos, tcfg,
                                                    np.random.default_rng(seed), metric)
        assert grad.tobytes() == ref_grad.tobytes()
        if no_hinge:
            assert ref_loss == 0.0 and not grad.any()


class TestMixedSteps:
    def test_local_train_bitwise_equal(self, monkeypatch):
        # a model trained at margin 3 and stepped at margin 0.5: most steps
        # have no active hinge, some do
        ds = make_synthetic(num_classes=4, dim=6, per_class=40, spread=0.15, hierarchy_depth=1,
                            seed=0)
        train = split_local(ds, seed=0).train
        protos = random_protos(4, 3, seed=1)
        cfg = ExtractorConfig(input_dim=6, hidden=(8,), output_dim=3)
        trained = local_train(init_params(cfg, 1), train, protos, cfg, TripletConfig(margin=3.0),
                              10, 16, 0.3, seed=0)
        active = []  # per step: whether any hinge was active (a nonzero gradient)
        step = learner.triplet_grad

        def recorded(*args, **kwargs):
            grad = step(*args, **kwargs)
            active.append(bool(grad.any()))
            return grad

        monkeypatch.setattr(learner, "triplet_grad", recorded)
        tcfg = TripletConfig(margin=0.5, negatives_per_sample=2)
        args = (trained, train, protos, cfg, tcfg, 4, 8, 0.3)
        got = local_train(*args, seed=5)
        want = reference_local_train(*args, seed=5)
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, trained)
        assert False in active and True in active


class TestGatheredDistances:
    """Each gathered pair distance has the bits of the matching entry of the
    (B, C) matrix, at the ball boundary and for near-coincident points too."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        b=st.integers(1, 40),
        c=st.integers(2, 120),
        n=st.integers(1, 20),
        rounds=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        clamped=st.integers(0, 10),
        coincident=st.integers(0, 10),
    )
    def test_pair_distance_bytes(self, b, c, n, rounds, seed, clamped, coincident):
        rng = np.random.default_rng(seed)
        w = exp0(rng.standard_normal((c, n)))
        p = exp0(rng.standard_normal((b, n)))
        # rounds == 0 stands for a single (B,) row of class indices
        cols = rng.integers(0, c, (max(rounds, 1), b))
        if rounds == 0:
            cols = cols[0]
        rows = np.atleast_2d(cols)
        # huge tangent vectors land on the clamp at norm 1 - 1e-5
        for _ in range(clamped):
            p[rng.integers(b)] = exp0(1e3 * rng.standard_normal((1, n)))
            w[rng.integers(c)] = exp0(1e3 * rng.standard_normal((1, n)))
        # p on, or within rounding of, a prototype it is measured against
        for _ in range(coincident):
            i = rng.integers(b)
            target = w[rows[rng.integers(rows.shape[0]), i]]
            p[i] = target * (1.0 + float(rng.choice([0.0, 1e-16, -1e-12, 1e-9])))
        full_rows = np.arange(b)
        for metric in ("geodesic", "euclidean"):
            full = distances(p, w, metric)
            got = learner._distances_at(p, sq_norms(p), w, sq_norms(w), cols, metric)
            assert got.shape == cols.shape
            assert got.tobytes() == full[full_rows, cols].tobytes()

    def test_unknown_metric_rejected(self):
        p = np.zeros((2, 3))
        with pytest.raises(ValueError, match="metric"):
            w = np.eye(3) * 0.5
            learner._distances_at(p, sq_norms(p), w, sq_norms(w), np.array([0, 1]), "cosine")


class TestGradientBuffer:
    def setup_method(self):
        self.ps, _ = build_prototypes(4, 3, 0.9, seed=2)
        self.cfg = ExtractorConfig(input_dim=5, hidden=(6,), output_dim=3)
        self.tcfg = TripletConfig(margin=3.0, negatives_per_sample=2)
        rng = np.random.default_rng(3)
        self.x, self.y = rng.standard_normal((10, 5)), rng.integers(0, 4, 10)

    def test_prefilled_buffer_matches_fresh_gradient(self):
        theta = init_params(self.cfg, 2)
        out = np.full_like(theta, np.nan)
        grad = triplet_grad(theta, self.cfg, self.x, self.y, self.ps, self.tcfg,
                            np.random.default_rng(4), out)
        _, fresh = fresh_triplet_grad(theta, self.cfg, self.x, self.y, self.ps, self.tcfg,
                                      seed=4)
        assert grad is out
        assert out.tobytes() == fresh.tobytes()

    def test_buffer_shape_mismatch_rejected(self):
        theta = init_params(self.cfg, 2)
        other = init_params(ExtractorConfig(input_dim=5, hidden=(7,), output_dim=3), 0)
        with pytest.raises(ValueError, match="layout expects"):
            triplet_grad(theta, self.cfg, self.x, self.y, self.ps, self.tcfg,
                         np.random.default_rng(4), other)


class TestDivergenceFailsFast:
    def test_huge_weights_overflow_gradient(self):
        ps = antipodal_protos()
        cfg = ExtractorConfig(input_dim=2, hidden=(8,), output_dim=2, activation="identity")
        theta = init_params(cfg, 0)
        theta *= 1e150  # finite, but the backward pass overflows
        x, y = np.array([[1.0, -0.5], [0.3, 2.0]]), np.array([0, 1])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            fresh_triplet_grad(theta, cfg, x, y, ps, TripletConfig(), seed=0)

    @pytest.mark.parametrize(
        "case",
        ["z_overflows", "norm_overflows", "inf_input", "hidden_overflow_zeroed",
         "inf_hidden_weight"],
    )
    def test_raises_without_active_hinge(self, case):
        # the zero gradient of a step with no active hinge is NaN in the
        # backward pass wherever 0 * inf meets it; in all but the first case
        # the tangent features z stay finite
        ps = antipodal_protos()
        target = log0(ps.weights[:1])[0]  # z of an anchor on prototype 0
        if case == "z_overflows":
            cfg = ExtractorConfig(input_dim=2, hidden=(8,), output_dim=2, activation="identity")
            theta = init_params(cfg, 0)
            theta *= 1e200
            x = np.array([[1.0, -0.5]])
        elif case == "norm_overflows":
            # ||z|| overflows, so p = 0: a stand-in for PrototypeSet (whose
            # rows share one norm) puts the positive nearer the origin
            w = np.array([[0.1, 0.0], [-0.99, 0.0]])
            ps = SimpleNamespace(weights=w, sq_norms=sq_norms(w), num_classes=2, dim=2)
            theta, cfg = constant_feature(np.array([1e200, 1e200]))
            x = np.zeros((1, 1))
        elif case == "inf_input":
            # every weight on the infinite input is nonzero: h = tanh(inf) = 1
            cfg = ExtractorConfig(input_dim=2, hidden=(2,), output_dim=2)
            theta = flat(np.array([[1.0, 0.0], [1.0, 1.0]]), np.zeros(2),
                         np.outer(target, [1.0, 0.0]), np.zeros(2))
            x = np.array([[np.inf, 0.0]])
        else:
            # relu: an overflowing hidden layer that the next one zeroes;
            # tanh: an infinite hidden weight, as an overflowing update leaves
            relu = case == "hidden_overflow_zeroed"
            cfg = ExtractorConfig(input_dim=2, hidden=(2, 2), output_dim=2,
                                  activation="relu" if relu else "tanh")
            theta = flat(1e10 * np.eye(2) if relu else np.eye(2), np.zeros(2),
                         -np.ones((2, 2)) if relu else np.diag([np.inf, np.inf]), np.zeros(2),
                         np.zeros((2, 2)), target)
            x = np.array([[1e300, 1e300]]) if relu else np.array([[0.5, -0.5]])
        with np.errstate(all="ignore"):
            z = forward_batch(theta, cfg, x)
            p = exp0(z)
            d = distances(p, ps.weights)[0]
            assert np.isfinite(z).all() == (case != "z_overflows")
            assert not d[0] - d[1] + 3.0 > 0.0  # no active hinge (NaN compares False)
            with pytest.raises(ValueError, match="not finite"):
                fresh_triplet_grad(theta, cfg, x, np.array([0]), ps, TripletConfig(), seed=0)

    def test_huge_learning_rate_raises_in_local_train(self):
        ps = antipodal_protos()
        cfg = ExtractorConfig(input_dim=2, hidden=(8,), output_dim=2)
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.standard_normal((20, 2)), rng.integers(0, 2, 20), 2)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            local_train(init_params(cfg, 0), ds, ps, cfg, TripletConfig(), 3, 8, 1e200)

    def test_overflowing_update_raises_naming_client(self):
        # the one step's gradient is finite (its largest entry is about 1.4),
        # but lr times it overflows to inf
        ps = antipodal_protos()
        cfg = ExtractorConfig(input_dim=2, hidden=(8,), output_dim=2)
        rng = np.random.default_rng(1)
        ds = LabeledDataset(100.0 * rng.standard_normal((12, 2)), rng.integers(0, 2, 12), 2)
        # the client is its index in the shard list: only index 7 is trained
        shards = [None] * 7 + [ClientShard(train=ds, test=None)]
        run = federation.ExperimentConfig(
            dataset="unused.txt", partition=PartitionSpec(alpha=1.0), extractor=cfg,
            triplet=TripletConfig(), rounds=1, batch_size=16,
            lr=float(np.finfo(np.float64).max),
        )
        out = np.empty((8, cfg.num_params))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^client 7: "):
            federation._train(run, init_params(cfg, 0), shards, [ps] * 8, 0, 1, [7], out)
