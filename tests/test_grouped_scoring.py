"""Scoring clients in groups of one split size gives the bits of one call per client.

The round loop scores the loss metric on every train split and the P-FL
accuracy on every test split once per group of clients whose split has the
same size, stacking their models, inputs and prototype sets on a leading
axis.  These properties check that the stacked calls equal the per-client
calls bit for bit: ragged sizes (1-row groups and groups of one among
them), both metrics, every activation, zero to two hidden layers, and a
shared prototype set as well as one set per client.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import federation, learner
from hyperfl.data import ClientShard, LabeledDataset
from hyperfl.federation import evaluate_pfl
from hyperfl.learner import ExtractorConfig, TripletConfig
from hyperfl.prototypes import random_prototypes
from oracles import distances, exp0, features

NUM_CLASSES, DIM = 4, 3


def reference_loss(theta, cfg, ds, protos, margin, metric):
    """The loss metric of one client, written out per sample."""
    p = exp0(features(theta, cfg, ds.features))
    d_all = distances(p, protos.weights, metric)
    idx = np.arange(ds.size)
    gaps = np.maximum(d_all[idx, ds.labels][:, None] - d_all + margin, 0.0)
    gaps[idx, ds.labels] = 0.0
    return float(np.mean(np.sum(gaps, axis=1) / (protos.num_classes - 1)))


def dataset(rng, size):
    return LabeledDataset(rng.standard_normal((size, DIM)),
                          rng.integers(0, NUM_CLASSES, size), NUM_CLASSES)


# (train size, test size or None) per client: few sizes, so groups form
split_sizes = st.lists(
    st.tuples(st.sampled_from([1, 2, 3, 5]), st.sampled_from([None, 1, 2, 4])),
    min_size=1, max_size=10,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sizes=split_sizes,
    metric=st.sampled_from(["geodesic", "euclidean"]),
    activation=st.sampled_from(["tanh", "relu", "identity"]),
    hidden=st.sampled_from([(), (5,), (4, 3)]),
    per_client_sets=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_scoring_equals_per_client_calls(sizes, metric, activation, hidden,
                                                 per_client_sets, seed):
    rng = np.random.default_rng(seed)
    cfg = ExtractorConfig(input_dim=DIM, hidden=hidden, output_dim=2, activation=activation)
    shards = [ClientShard(dataset(rng, n), None if m is None else dataset(rng, m))
              for n, m in sizes]
    shared = random_prototypes(NUM_CLASSES, 2, 0.9, seed)
    protos = ([random_prototypes(NUM_CLASSES, 2, 0.9, seed + 1 + k) for k in range(len(shards))]
              if per_client_sets else [shared] * len(shards))
    theta = learner.init_params(cfg, seed % 1000)
    models = theta + 0.3 * rng.standard_normal((len(shards), theta.size))
    margin = float(rng.uniform(0.1, 3.0))

    losses = np.full(len(shards), np.nan)
    groups = 0
    for ks, x, y, w, w2 in federation._size_groups([s.train for s in shards], protos):
        losses[ks] = learner.mean_triplet_loss(models[ks], cfg, x, y, w, w2, margin, metric)
        groups += 1
    assert groups == len({n for n, _ in sizes})
    for k, shard in enumerate(shards):
        single = learner.mean_triplet_loss(
            models[k], cfg, shard.train.features, shard.train.labels, protos[k].weights,
            protos[k].sq_norms, margin, metric,
        )
        assert losses[k].tobytes() == single.tobytes()
        assert float(single) == reference_loss(models[k], cfg, shard.train, protos[k], margin,
                                               metric)

    for ks, x, y, w, w2 in federation._size_groups([s.test for s in shards], protos):
        stacked = learner.predict_batch(models[ks], cfg, w, w2, x, metric)
        for k, pred in zip(ks, stacked, strict=True):
            test = shards[k].test
            single = learner.predict_batch(models[k], cfg, protos[k].weights, protos[k].sq_norms,
                                           test.features, metric)
            assert pred.tobytes() == single.tobytes()
            p = exp0(features(models[k], cfg, test.features))
            assert np.array_equal(pred, np.argmin(distances(p, protos[k].weights, metric), axis=1))

    tcfg = TripletConfig(margin=margin)
    tuned = np.stack([learner.local_train(theta, shard.train, protos[k], cfg, tcfg, 1, 2, 0.3,
                                          seed=k, metric=metric)
                      for k, shard in enumerate(shards)])
    accs = evaluate_pfl(tuned, shards, protos, cfg, metric)
    for k, shard in enumerate(shards):
        if shard.test is None:
            assert accs[k] is None
            continue
        pred = learner.predict_batch(tuned[k], cfg, protos[k].weights, protos[k].sq_norms,
                                     shard.test.features, metric)
        assert accs[k] == float(np.mean(pred == shard.test.labels))


def test_group_of_one_stacks_views():
    rng = np.random.default_rng(0)
    shards = [ClientShard(dataset(rng, 3), None), ClientShard(dataset(rng, 4), None)]
    protos = [random_prototypes(NUM_CLASSES, 2, 0.9, 1)] * 2
    for ks, x, y, w, w2 in federation._size_groups([s.train for s in shards], protos):
        (k,) = ks
        for stacked, own in ((x, shards[k].train.features), (y, shards[k].train.labels),
                             (w, protos[k].weights), (w2, protos[k].sq_norms)):
            assert stacked.shape == (1, *own.shape) and np.shares_memory(stacked, own)
