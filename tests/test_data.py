import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import data
from hyperfl.data import (
    DatasetFormatError,
    LabeledDataset,
    PartitionSpec,
    dirichlet_partition,
    load_dataset,
    make_synthetic,
    partition_manifest,
    save_dataset,
    split_local,
    stratified_holdout,
)


class TestMakeSynthetic:
    def test_zero_spread_collapses_to_centers(self):
        ds = make_synthetic(3, 4, per_class=10, spread=0.0, hierarchy_depth=2, seed=0)
        for c in range(3):
            block = ds.features[ds.labels == c]
            assert np.max(np.abs(block - block[0])) == 0.0

    def test_exact_counts(self):
        ds = make_synthetic(3, 5, per_class=100, spread=0.2, seed=1)
        assert ds.size == 300
        assert np.array_equal(ds.class_counts(), [100, 100, 100])

    def test_seeds_change_features_not_histogram(self):
        a = make_synthetic(4, 3, per_class=20, spread=0.3, seed=1)
        b = make_synthetic(4, 3, per_class=20, spread=0.3, seed=2)
        assert not np.array_equal(a.features, b.features)
        assert np.array_equal(a.class_counts(), b.class_counts())

    def test_deterministic(self):
        a = make_synthetic(4, 3, per_class=20, spread=0.3, hierarchy_depth=1, seed=7)
        b = make_synthetic(4, 3, per_class=20, spread=0.3, hierarchy_depth=1, seed=7)
        assert np.array_equal(a.features, b.features)

    def test_classes_separated_when_spread_small(self):
        ds = make_synthetic(4, 8, per_class=50, spread=0.05, seed=3)
        centers = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        assert gaps[~np.eye(4, dtype=bool)].min() > 1.0


def row_multiset(ds):
    return sorted(map(tuple, np.column_stack([ds.features, ds.labels])))


class TestDirichletPartition:
    def test_partition_conserves_instances(self):
        ds = make_synthetic(5, 4, per_class=40, spread=0.2, seed=0)
        pools = dirichlet_partition(ds, PartitionSpec(num_clients=7, alpha=0.5), 1)
        assert sum(p.size for p in pools) == ds.size
        merged = sorted(sum((row_multiset(p) for p in pools), []))
        assert merged == row_multiset(ds)

    def test_per_class_counts_conserved(self):
        ds = make_synthetic(4, 3, per_class=33, spread=0.2, seed=2)
        pools = dirichlet_partition(ds, PartitionSpec(num_clients=5, alpha=0.3), 3)
        per_class = sum(p.class_counts() for p in pools)
        assert np.array_equal(per_class, ds.class_counts())

    def test_huge_alpha_approaches_uniform(self):
        # alpha -> infinity proxy: every client holds ~1/K of every class
        ds = make_synthetic(3, 3, per_class=400, spread=0.2, seed=4)
        fracs = []
        for seed in range(50):
            pools = dirichlet_partition(ds, PartitionSpec(num_clients=4, alpha=1e6), seed)
            for pool in pools:
                fracs.extend(pool.class_counts() / 400.0)
        fracs = np.array(fracs)
        assert np.all(np.abs(fracs - 0.25) < 0.02)

    def test_alpha_overflowing_the_gamma_sum_deals_every_instance_once(self):
        # at alpha 1e308 each class's Gamma draws sum to inf; the shares fall
        # back to equal ones, the alpha -> inf limit
        ds = make_synthetic(3, 4, per_class=16, spread=0.2, seed=0)
        pools = dirichlet_partition(ds, PartitionSpec(num_clients=3, alpha=1e308), 0)
        merged = sorted(sum((row_multiset(p) for p in pools), []))
        assert merged == row_multiset(ds)
        assert [p.class_counts().tolist() for p in pools] == [[6] * 3, [5] * 3, [5] * 3]

    def test_low_alpha_produces_missing_classes(self):
        ds = make_synthetic(10, 4, per_class=100, spread=0.2, seed=5)
        hits = 0
        for seed in range(50):
            pools = dirichlet_partition(ds, PartitionSpec(num_clients=10, alpha=0.1), seed)
            if any(np.any(pool.class_counts() == 0) for pool in pools):
                hits += 1
        assert hits >= 45  # at least 90% of seeds realize a missing class

    def test_deterministic(self):
        ds = make_synthetic(4, 3, per_class=50, spread=0.2, seed=6)
        spec = PartitionSpec(num_clients=6, alpha=0.4)
        a = dirichlet_partition(ds, spec, 9)
        b = dirichlet_partition(ds, spec, 9)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    def test_empty_clients_repaired(self, caplog):
        # tiny dataset + many clients + tiny alpha forces empty draws
        ds = make_synthetic(2, 2, per_class=10, spread=0.1, seed=7)
        pools = dirichlet_partition(ds, PartitionSpec(num_clients=5, alpha=0.05), 11)
        assert all(p.size >= 1 for p in pools)

    def test_too_few_instances_fail_at_first_unrepairable_client(self, caplog):
        # 3 instances over 5 clients: one error, naming the client and the
        # cause, and no warning about the same client before it
        ds = make_synthetic(3, 2, per_class=1, spread=0.1, seed=0)
        with pytest.raises(ValueError, match=r"partition\.num_clients .* 3 instances .*got 5"):
            dirichlet_partition(ds, PartitionSpec(num_clients=5, alpha=0.5), 0)
        assert not any("left empty" in r.getMessage() for r in caplog.records)

    def test_more_clients_than_instances_fail_before_dealing(self):
        # a million clients over 60 instances: refused up front, without a
        # list per client or a million Gamma variates per class
        ds = make_synthetic(3, 2, per_class=20, spread=0.1, seed=0)
        want = r"partition\.num_clients .* 60 instances .*got 1000000"
        with pytest.raises(ValueError, match=want):
            dirichlet_partition(ds, PartitionSpec(num_clients=10**6, alpha=0.5), 0)

    def test_dirichlet_mean_is_symmetric(self):
        # alpha = 0.5, K = 2: mean share of each class at client 0 is 1/2
        ds = make_synthetic(3, 3, per_class=60, spread=0.2, seed=8)
        shares = []
        for seed in range(200):
            pools = dirichlet_partition(ds, PartitionSpec(num_clients=2, alpha=0.5), seed)
            shares.append(pools[0].class_counts() / 60.0)
        assert abs(float(np.mean(shares)) - 0.5) < 0.05

    def test_heterogeneity_decreases_with_alpha(self):
        ds = make_synthetic(5, 3, per_class=100, spread=0.2, seed=9)

        def mean_max_share(alpha):
            vals = []
            for seed in range(50):
                pools = dirichlet_partition(
                    ds, PartitionSpec(num_clients=5, alpha=alpha), seed
                )
                counts = np.stack([p.class_counts() for p in pools])  # (K, C)
                vals.append(np.mean(counts.max(axis=0) / 100.0))
            return float(np.mean(vals))

        assert mean_max_share(0.1) > mean_max_share(5.0)


class TestSplitLocal:
    def test_hundred_instances_split_75_25(self):
        ds = make_synthetic(4, 3, per_class=25, spread=0.2, seed=0)
        shard = split_local(ds, seed=1)
        assert shard.train.size == 75
        assert shard.test.size == 25

    def test_single_class_pool(self):
        ds = make_synthetic(2, 2, per_class=20, spread=0.1, seed=1)
        only = ds.subset(np.flatnonzero(ds.labels == 0))
        shard = split_local(only, seed=2)
        assert shard.train.size == 15
        assert shard.test.size == 5

    def test_deterministic(self):
        ds = make_synthetic(3, 3, per_class=30, spread=0.2, seed=2)
        a = split_local(ds, seed=5)
        b = split_local(ds, seed=5)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.features, b.test.features)

    def test_disjoint_and_complete(self):
        ds = make_synthetic(3, 3, per_class=21, spread=0.2, seed=3)
        shard = split_local(ds, seed=4)
        merged = sorted(row_multiset(shard.train) + row_multiset(shard.test))
        assert merged == row_multiset(ds)

    def test_single_instance_pool_flagged(self):
        ds = LabeledDataset(np.ones((1, 2)), np.zeros(1, dtype=int), 2)
        shard = split_local(ds, seed=0)
        assert shard.train.size == 1
        assert shard.test is None

    def test_two_instances_keep_nonempty_test(self):
        ds = LabeledDataset(np.ones((2, 2)), np.zeros(2, dtype=int), 2)
        shard = split_local(ds, seed=0)
        assert shard.train.size == 1
        assert shard.test.size == 1

    def test_stratified_when_possible(self):
        ds = make_synthetic(4, 2, per_class=40, spread=0.2, seed=4)
        shard = split_local(ds, seed=6)
        assert np.array_equal(shard.train.class_counts(), [30, 30, 30, 30])


def test_stratified_holdout_counts():
    ds = make_synthetic(5, 4, per_class=100, spread=0.2, seed=5)
    rest, held = stratified_holdout(ds, 0.2, seed=0)
    assert rest.size == 400
    assert held.size == 100
    assert np.array_equal(held.class_counts(), [20] * 5)


class TestLargestRemainder:
    """One rounding routine deals classes to clients and splits each class
    between train and test: the counts sum to the target, no class gives
    more than it holds, and each count is within 1 of its ideal share."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(0, 40), min_size=1, max_size=12).filter(lambda s: sum(s) >= 2),
        frac=st.floats(0.0, 1.0),
    )
    def test_class_shares(self, sizes, frac):
        sizes = np.array(sizes)
        n = int(sizes.sum())
        target = min(max(int(round(frac * n)), 1), n - 1)
        ideal = sizes * (target / n)
        take = data._largest_remainder(ideal, target)
        assert take.sum() == target
        assert np.all((0 <= take) & (take <= sizes))
        assert np.all(np.abs(take - ideal) < 1.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        weights=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=30).filter(lambda w: sum(w) > 0),
        total=st.integers(0, 500),
    )
    def test_client_shares(self, weights, total):
        weights = np.array(weights)
        ideal = weights / weights.sum() * total
        counts = data._largest_remainder(ideal, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)
        assert np.all(np.abs(counts - ideal) < 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        labels=st.lists(st.integers(0, 5), min_size=2, max_size=80),
        frac=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
        holdout=st.booleans(),
    )
    def test_both_splits(self, labels, frac, seed, holdout):
        labels = np.array(labels)
        ds = LabeledDataset(np.arange(labels.size, dtype=float)[:, None], labels, 6)
        n = ds.size
        if holdout:
            kept, rest = stratified_holdout(ds, 1.0 - frac, seed=seed)
            keep = 1.0 - (1.0 - frac)  # the kept fraction, rounded as the split rounds it
        else:
            shard = split_local(ds, train_fraction=frac, seed=seed)
            kept, rest, keep = shard.train, shard.test, frac
        target = min(max(int(np.floor(keep * n + 0.5)), 1), n - 1)
        sizes = ds.class_counts()
        take = kept.class_counts()
        assert take.sum() == target
        assert np.array_equal(take + rest.class_counts(), sizes)
        assert np.all(take <= sizes)
        assert np.all(np.abs(take - sizes * (target / n)) < 1.0)
        # every instance lands on exactly one side
        assert sorted(np.concatenate((kept.features, rest.features))[:, 0]) == list(range(n))


def test_partition_manifest_contents():
    ds = make_synthetic(3, 3, per_class=30, spread=0.2, seed=6)
    spec = PartitionSpec(num_clients=4, alpha=0.5)
    pools = dirichlet_partition(ds, spec, 2)
    manifest = partition_manifest(pools, spec, 2)
    assert manifest["num_clients"] == 4
    assert manifest["seed"] == 2
    assert manifest["alpha"] == 0.5
    assert sum(manifest["client_sizes"]) == 90
    assert np.array_equal(np.sum(manifest["client_class_counts"], axis=0), [30, 30, 30])


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        ds = make_synthetic(3, 4, per_class=15, spread=0.3, hierarchy_depth=1, seed=7)
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    def test_truncated_file_named(self, tmp_path):
        ds = make_synthetic(2, 2, per_class=5, spread=0.2, seed=8)
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(path)

    def test_extra_records_named(self, tmp_path):
        # a record past the header's count is not silently dropped
        path = tmp_path / "data.txt"
        path.write_text("2 2 2\n0.0 0.0 0\n1.0 1.0 1\n2.0 2.0 1\n")
        with pytest.raises(DatasetFormatError, match="promises 2 records but 3") as err:
            load_dataset(path)
        assert str(path) in str(err.value)

    def test_label_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("2 2 2\n0.0 0.0 0\n1.0 1.0 5\n")
        with pytest.raises(DatasetFormatError, match="record 1"):
            load_dataset(path)

    def test_nonfinite_feature_names_row(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("2 2 2\n0.0 inf 0\n1.0 1.0 1\n")
        with pytest.raises(DatasetFormatError, match="record 0"):
            load_dataset(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"\xff2 2 2\n0.0 0.0 0\n1.0 1.0 1\n")
        with pytest.raises(DatasetFormatError, match="not UTF-8 text") as err:
            load_dataset(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("2 2\n0.0 0.0 0\n1.0 1.0 1\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(path)

    # d = 1e11 would size a 745 GiB feature array: field counts come first
    @pytest.mark.parametrize(
        "text", ["1 3 2\n0.0 0.0 0\n", "1 100000000000 2\n0.5 0\n"], ids=["short", "huge_dim"]
    )
    def test_wrong_field_count_named(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=r"record 0 has \d+ fields"):
            load_dataset(path)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.ones((2, 2)), np.array([0, 3]), 2)  # label out of range
    with pytest.raises(ValueError):
        LabeledDataset(np.full((1, 2), np.nan), np.array([0]), 1)
