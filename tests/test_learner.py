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
    init_params,
    local_train,
    mean_triplet_loss,
    predict_batch,
    sample_negative,
    triplet_grad,
)
from hyperfl.prototypes import PrototypeSet, build_prototypes
from oracles import (
    distances,
    draw_negatives,
    exp0,
    features,
    fresh_triplet_grad,
    log0,
    pair_distance,
    pair_grad_scales,
    pullback,
    sampled_triplet_loss,
    sq_norms,
)


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
        out = features(theta, cfg, np.array([[1.0, -2.0, 0.5, 3.0]]))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_identity_layer_passes_basis_vector(self):
        cfg = linear_cfg(3, 3)
        theta = flat(np.eye(3), np.zeros(3))
        out = features(theta, cfg, np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(out, [[1.0, 0.0, 0.0]])

    def test_deterministic(self):
        cfg = ExtractorConfig(input_dim=5, hidden=(7,), output_dim=2)
        x = np.arange(5.0)[None, :]
        a = features(init_params(cfg, 3), cfg, x)
        b = features(init_params(cfg, 3), cfg, x)
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
            features(init_params(cfg, 0), cfg, np.zeros((1, 4)))


class TestTripletLoss:
    def test_anchor_on_positive_prototype(self, protos3):
        # every other prototype is further than the margin: both, one round each
        theta, cfg = constant_feature(log0(protos3.weights[0]))
        loss, _ = fresh_triplet_grad(theta, cfg, np.ones((1, 1)), np.array([0]),
                                     np.array([[1], [2]]), protos3, 3.0)
        assert loss == 0.0

    def test_equidistant_anchor_pays_margin(self):
        ps = antipodal_protos()
        theta, cfg = constant_feature(np.zeros(2))
        loss, _ = fresh_triplet_grad(theta, cfg, np.ones((1, 1)), np.array([0]), np.array([[1]]),
                                     ps, 3.0)
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
        loss, grad = fresh_triplet_grad(theta, cfg, x, y, 1 - y[None], ps, 3.0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_single_layer_matches_finite_differences(self):
        ps = antipodal_protos()
        cfg = linear_cfg(2, 2)
        rng = np.random.default_rng(0)
        theta = init_params(cfg, 1)
        theta += 0.2 * rng.standard_normal(theta.size)
        x = rng.standard_normal((1, 2))
        y, neg = np.array([0]), np.array([[1]])
        _, grad = fresh_triplet_grad(theta, cfg, x, y, neg, ps, 3.0)
        h = 1e-5
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, _ = fresh_triplet_grad(tp, cfg, x, y, neg, ps, 3.0)
            lm, _ = fresh_triplet_grad(tm, cfg, x, y, neg, ps, 3.0)
            fd[i] = (lp - lm) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grad - fd) / denom) < 1e-4

    def test_repeated_sample_batch_equals_single(self):
        # the batch mean over identical rows, with identical negatives, must
        # equal the single-sample gradient
        ps = antipodal_protos()
        cfg = linear_cfg(2, 2)
        theta = init_params(cfg, 2)
        x = np.array([[0.4, -1.2]])
        y = np.array([1])
        _, g1 = fresh_triplet_grad(theta, cfg, x, y, 1 - y[None], ps, 3.0)
        yb = np.repeat(y, 8)
        _, gb = fresh_triplet_grad(theta, cfg, np.repeat(x, 8, axis=0), yb, 1 - yb[None], ps, 3.0)
        assert np.max(np.abs(g1 - gb)) < 1e-12

    def test_gradient_oracle_small_mlp(self, protos3):
        # 20 random draws on a [4 -> 8 -> 3] extractor, C = 3, m = 3
        cfg = ExtractorConfig(input_dim=4, hidden=(8,), output_dim=3)
        rng = np.random.default_rng(12)
        for draw in range(20):
            theta = init_params(
                ExtractorConfig(input_dim=4, hidden=(8,), output_dim=3), draw
            )
            theta += 0.3 * rng.standard_normal(theta.size)
            x = rng.standard_normal((5, 4))
            y = rng.integers(0, 3, 5)
            neg = draw_negatives(y, 3, seed=11)
            _, grad = fresh_triplet_grad(theta, cfg, x, y, neg, protos3, 3.0)
            h = 1e-5
            fd = np.zeros_like(theta)
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                lp, _ = fresh_triplet_grad(tp, cfg, x, y, neg, protos3, 3.0)
                lm, _ = fresh_triplet_grad(tm, cfg, x, y, neg, protos3, 3.0)
                fd[i] = (lp - lm) / (2 * h)
            both_small = (np.abs(fd) < 1e-8) & (np.abs(grad) < 1e-8)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.where(both_small, 0.0, rel)) < 1e-4

    def test_euclidean_metric_gradient(self):
        ps = antipodal_protos()
        cfg = linear_cfg(2, 2)
        theta = init_params(cfg, 4)
        x = np.array([[1.0, 0.5]])
        y, neg = np.array([0]), np.array([[1]])
        _, grad = fresh_triplet_grad(theta, cfg, x, y, neg, ps, 1.0, "euclidean")
        h = 1e-5
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, _ = fresh_triplet_grad(tp, cfg, x, y, neg, ps, 1.0, "euclidean")
            lm, _ = fresh_triplet_grad(tm, cfg, x, y, neg, ps, 1.0, "euclidean")
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
        # a (rounds, batch) block, as local_train draws it: round-major
        block = sample_negative(y[None].repeat(4, 0), 10, batched)
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
        z = features(theta, cfg, np.ones((1, 3)))
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
    expected = sampled_triplet_loss(theta, cfg, x, y, 1 - y[None], ps, 3.0)
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


def reference_triplet_grad(theta, cfg, x, y, neg, protos, margin, metric):
    """Per-pair reference for triplet_grad: the sampled loss and a fresh
    gradient from a loop over each sample's positive and R negatives, one
    pair at a time.  A pair's weight is +k on the positive, k the sample's
    number of active rounds, -1 on an active negative and 0 otherwise, times
    the loss scale 1/(B R); the pairs' gradient terms are summed in pair
    order from zero."""
    _, _, _, acts, layers = learner._embed(theta, cfg, x)
    z = acts[-1]
    p = exp0(z)
    scale = 1.0 / neg.size
    loss = 0.0
    d_p = np.zeros_like(p)
    for i in range(x.shape[0]):
        p2 = sq_norms(p[i])
        pairs = [y[i], *neg[:, i]]
        diffs = [p[i] - protos.weights[c] for c in pairs]
        us = [sq_norms(diff) for diff in diffs]
        w2s = [protos.sq_norms[c] for c in pairs]
        d = [pair_distance(p2, w2, u, metric) for w2, u in zip(w2s, us)]
        gaps = [d[0] - d_neg + margin for d_neg in d[1:]]
        loss += sum(max(gap, 0.0) for gap in gaps)
        active = [gap > 0.0 for gap in gaps]
        if not any(active):
            continue
        weights = [sum(active) * scale] + [-scale if a else 0.0 for a in active]
        acc, t = np.zeros_like(p[i]), 0.0
        for diff, u, w2, weight in zip(diffs, us, w2s, weights):
            s, e = pair_grad_scales(p2, w2, u, weight, metric)
            acc = acc + s * diff
            t = t + e
        d_p[i] = acc + (t / (1.0 - p2)) * p[i] if metric == "geodesic" else acc
    d_z = pullback(z, d_p)
    grads = []
    delta = d_z
    for i in reversed(range(len(layers))):
        grads[:0] = [delta.T @ acts[i], delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ layers[i][0]) * REFERENCE_ACT_PRIME[cfg.activation](acts[i])
    return float(loss * scale), flat(*grads)


def reference_local_train(theta_in, train, protos, cfg, tcfg, epochs, batch_size, lr,
                          seed, metric="geodesic"):
    """Per-sample reference for local_train: per epoch one permutation, then
    per batch one scalar RNG draw per label per round, round-major."""
    rng = np.random.default_rng(seed)
    theta = theta_in.copy()
    n = train.size
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            y = train.labels[idx]
            neg = np.empty((tcfg.negatives_per_sample, y.size), dtype=np.int64)
            for r in range(tcfg.negatives_per_sample):
                for i, label in enumerate(y):
                    j = int(rng.integers(protos.num_classes - 1))
                    neg[r, i] = j + 1 if j >= label else j
            _, grad = reference_triplet_grad(
                theta, cfg, train.features[idx], y, neg, protos, tcfg.margin, metric
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
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((9, 4)), rng.integers(0, 3, 9)
        neg = draw_negatives(y, 3, rounds=2, seed=1)
        theta = init_params(cfg, 0)
        grad = triplet_grad(theta, cfg, x, y, neg, protos3, 3.0, np.zeros_like(theta), metric)
        _, ref_grad = reference_triplet_grad(theta, cfg, x, y, neg, protos3, 3.0, metric)
        assert grad.tobytes() == ref_grad.tobytes()


    @pytest.mark.parametrize("seed", range(8))
    def test_many_rounds_on_one_sample(self, seed):
        # eight or more rounds on a single sample: a reduction over the rounds
        # would pair their hinges up instead of adding them in draw order
        protos = random_protos(100, 8, seed=seed)
        cfg = ExtractorConfig(input_dim=6, hidden=(7,), output_dim=8)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((1, 6)), rng.integers(0, 100, 1)
        neg = draw_negatives(y, 100, rounds=12, seed=seed)
        theta = init_params(cfg, seed)
        theta += rng.standard_normal(theta.size)
        grad = triplet_grad(theta, cfg, x, y, neg, protos, 3.0, np.zeros_like(theta))
        _, ref_grad = reference_triplet_grad(theta, cfg, x, y, neg, protos, 3.0, "geodesic")
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
        neg = draw_negatives(y, 6, rounds=negatives, seed=2)
        grad = triplet_grad(theta, cfg, x, y, neg, protos, 0.1, np.zeros_like(theta))
        ref_loss, ref_grad = reference_triplet_grad(theta, cfg, x, y, neg, protos, 0.1,
                                                    "geodesic")
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
    """triplet_grad has the bits of the per-pair reference on both of its
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
        neg = draw_negatives(y, c, rounds, seed=seed)
        out = np.full_like(theta, np.nan) if prefilled else np.zeros_like(theta)
        grad = triplet_grad(theta, cfg, x, y, neg, protos, margin, out, metric)
        ref_loss, ref_grad = reference_triplet_grad(theta, cfg, x, y, neg, protos, margin, metric)
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


class TestStepKernelCalls:
    """The step measures each of its pairs once, from p - w: a step with an
    active hinge makes one distance-gradient call and takes no (B, C)
    distance matrix; a step without one makes neither call."""

    def kernel_calls(self, monkeypatch, *step_args):
        calls = {"distance_to_set_arr": 0, "dist_grad_wrt_point_arr": 0}
        for name in calls:
            fn = getattr(poincare, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(poincare, name, counted)
        grad = fresh_triplet_grad(*step_args)[1]
        return calls, grad

    @pytest.mark.parametrize("metric", ["geodesic", "euclidean"])
    def test_active_step_makes_one_gradient_call(self, protos3, monkeypatch, metric):
        cfg = ExtractorConfig(input_dim=4, hidden=(5,), output_dim=3)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((11, 4)), rng.integers(0, 3, 11)
        neg = draw_negatives(y, 3, rounds=3, seed=3)
        calls, grad = self.kernel_calls(monkeypatch, init_params(cfg, 0), cfg, x, y, neg,
                                        protos3, 3.0, metric)
        assert grad.any()
        assert calls == {"distance_to_set_arr": 0, "dist_grad_wrt_point_arr": 1}

    def test_step_without_active_hinge_makes_no_kernel_call(self, monkeypatch):
        # anchors on their own prototypes, margin below every prototype gap
        protos = random_protos(6, 4, seed=3)
        theta = flat(log0(protos.weights).T, np.zeros(4))
        y = np.array([0, 3, 5, 1])
        neg = draw_negatives(y, 6, rounds=2, seed=2)
        calls, grad = self.kernel_calls(monkeypatch, theta, linear_cfg(6, 4), np.eye(6)[y], y,
                                        neg, protos, 0.1)
        assert not grad.any()
        assert calls == {"distance_to_set_arr": 0, "dist_grad_wrt_point_arr": 0}

    def test_unknown_metric_rejected(self, protos3):
        cfg = linear_cfg(2, 3)
        theta = init_params(cfg, 0)
        with pytest.raises(ValueError, match="unknown metric 'cosine'"):
            triplet_grad(theta, cfg, np.ones((2, 2)), np.array([0, 1]), np.array([[1, 2]]),
                         protos3, 3.0, np.zeros_like(theta), "cosine")


class TestGradientBuffer:
    def setup_method(self):
        self.ps, _ = build_prototypes(4, 3, 0.9, seed=2)
        self.cfg = ExtractorConfig(input_dim=5, hidden=(6,), output_dim=3)
        rng = np.random.default_rng(3)
        self.x, self.y = rng.standard_normal((10, 5)), rng.integers(0, 4, 10)
        self.neg = draw_negatives(self.y, 4, rounds=2, seed=4)

    def test_prefilled_buffer_matches_fresh_gradient(self):
        theta = init_params(self.cfg, 2)
        out = np.full_like(theta, np.nan)
        grad = triplet_grad(theta, self.cfg, self.x, self.y, self.neg, self.ps, 3.0, out)
        _, fresh = fresh_triplet_grad(theta, self.cfg, self.x, self.y, self.neg, self.ps, 3.0)
        assert grad is out
        assert out.tobytes() == fresh.tobytes()

    def test_buffer_shape_mismatch_rejected(self):
        theta = init_params(self.cfg, 2)
        other = init_params(ExtractorConfig(input_dim=5, hidden=(7,), output_dim=3), 0)
        with pytest.raises(ValueError, match="layout expects"):
            triplet_grad(theta, self.cfg, self.x, self.y, self.neg, self.ps, 3.0, other)


class TestDivergenceFailsFast:
    def test_huge_weights_overflow_gradient(self):
        ps = antipodal_protos()
        cfg = ExtractorConfig(input_dim=2, hidden=(8,), output_dim=2, activation="identity")
        theta = init_params(cfg, 0)
        theta *= 1e150  # finite, but the backward pass overflows
        x, y = np.array([[1.0, -0.5], [0.3, 2.0]]), np.array([0, 1])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            fresh_triplet_grad(theta, cfg, x, y, 1 - y[None], ps, 3.0)

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
            z = features(theta, cfg, x)
            p = exp0(z)
            d = distances(p, ps.weights)[0]
            assert np.isfinite(z).all() == (case != "z_overflows")
            assert not d[0] - d[1] + 3.0 > 0.0  # no active hinge (NaN compares False)
            with pytest.raises(ValueError, match="not finite"):
                fresh_triplet_grad(theta, cfg, x, np.array([0]), np.array([[1]]), ps, 3.0)

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
