import dataclasses
import hashlib
import json
import logging

import numpy as np
import pytest

from hyperfl import aggregation as agg
from hyperfl import data as data_mod
from hyperfl import federation, learner
from hyperfl import prototypes as prototypes_mod
from hyperfl.cli import main as cli_main
from hyperfl.data import (
    LabeledDataset,
    PartitionSpec,
    load_dataset,
    make_synthetic,
    save_dataset,
    split_local,
)
from hyperfl.federation import (
    VARIANTS,
    ExperimentConfig,
    ExperimentResult,
    SyntheticSpec,
    derive_seed,
    evaluate_gfl,
    evaluate_pfl,
    run_experiment,
)
from hyperfl.learner import ExtractorConfig, TripletConfig
from hyperfl.params import load_params, save_params
from hyperfl.prototypes import (
    build_prototypes,
    load_prototypes,
    random_prototypes,
    save_prototypes,
)
from oracles import log0


def tiny_config(seed=0, rounds=3, clients=4, lr=0.3, alpha=0.5):
    return ExperimentConfig(
        dataset=SyntheticSpec(num_classes=3, dim=6, per_class=60, spread=0.15, hierarchy_depth=1),
        partition=PartitionSpec(num_clients=clients, alpha=alpha),
        extractor=ExtractorConfig(input_dim=6, hidden=(12,), output_dim=3),
        triplet=TripletConfig(margin=3.0),
        rounds=rounds,
        slope=0.9,
        lr=lr,
        local_epochs=2,
        batch_size=32,
        seed=seed,
        finetune_epochs=1,
    )


class TestConfig:
    def test_dict_roundtrip(self):
        cfg = tiny_config(seed=5)
        back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_file_dataset_roundtrip(self):
        cfg = ExperimentConfig(
            dataset="some/file.txt",
            partition=PartitionSpec(num_clients=2, alpha=1.0),
            extractor=ExtractorConfig(input_dim=4, hidden=(), output_dim=2),
            triplet=TripletConfig(),
            rounds=1,
        )
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back.dataset == "some/file.txt"

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(rounds=0)
        with pytest.raises(ValueError, match="aggregator"):
            ExperimentConfig.from_dict({**tiny_config().to_dict(), "aggregator": "sum"})

    @pytest.mark.parametrize("kind", ["bogus", "File", None])
    def test_unknown_dataset_kind_rejected(self, kind):
        # a synthetic spec under another kind is not silently read as synthetic
        d = tiny_config().to_dict()
        d["dataset"]["kind"] = kind
        with pytest.raises(ValueError, match="dataset.kind"):
            ExperimentConfig.from_dict(d)


class TestRunExperiment:
    def test_single_client_averaged_returns_client_model(self):
        cfg = tiny_config(rounds=1, clients=1)
        captured = {}

        def hook(t, before, locals_, p, after):
            captured["client"] = locals_[0]
            captured["after"] = after

        res = run_experiment(cfg, "averaged", round_hook=hook)
        # theta + (theta_k - theta) cancels to the client model up to rounding
        assert np.max(np.abs(res.global_params - captured["client"])) < 1e-14

    def test_zero_lr_freezes_global_accuracy(self):
        cfg = tiny_config(rounds=3, lr=0.0)
        res = run_experiment(cfg)
        accs = {rec.gfl_accuracy for rec in res.records}
        assert len(accs) == 1

    def test_reproducible_records(self):
        cfg = tiny_config(seed=3)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.to_json_dict() for r in a.records] == [r.to_json_dict() for r in b.records]
        assert np.array_equal(a.global_params, b.global_params)

    def test_round_count_and_record_fields(self):
        cfg = tiny_config(rounds=4)
        res = run_experiment(cfg)
        assert [r.round for r in res.records] == [0, 1, 2, 3]
        for rec in res.records:
            assert 0.0 <= rec.gfl_accuracy <= 1.0
        assert [entry["round"] for entry in res.aggregation_log] == [0, 1, 2, 3]
        for entry in res.aggregation_log:
            assert len(entry["p"]) == 4
            assert abs(sum(entry["p"]) - 1.0) < 1e-9

    def test_averaged_weights_are_the_data_fractions(self):
        # the averaging baseline: p_k = N_k / sum N every round, no solver
        res = run_experiment(tiny_config(rounds=2), "averaged")
        counts = np.array([shard.n_train for shard in res.shards], dtype=np.float64)
        for entry in res.aggregation_log:
            assert entry["p"] == [float(n) / float(counts.sum()) for n in counts]
            assert abs(sum(entry["p"]) - 1.0) <= 1e-12
            assert entry["cu_iterations"] == 0 and entry["pareto_gap"] is None

    @pytest.mark.parametrize("metric", ["geodesic", "euclidean"])
    @pytest.mark.parametrize("variant", [None, *VARIANTS])
    def test_conservation_each_round(self, variant, metric):
        # aggregation equals its definition theta + sum_k p_k Delta_k, summed
        # here one client at a time, an order apart from aggregate's matmul,
        # under weights on the probability simplex
        cfg = dataclasses.replace(tiny_config(rounds=3), metric=metric)
        checks = []

        def hook(t, before, locals_, p, after):
            assert abs(float(np.sum(p)) - 1.0) <= 1e-9
            assert np.all(p >= 0)
            acc = before.copy()
            for p_k, theta_k in zip(p, locals_, strict=True):
                acc = acc + p_k * (theta_k - before)
            drift = float(np.max(np.abs(after - acc)))
            checks.append((drift, 1e-12 * max(1.0, float(np.max(np.abs(acc))))))

        run_experiment(cfg, variant, round_hook=hook)
        assert len(checks) == 3
        assert all(drift <= bound for drift, bound in checks), checks

    def test_prototypes_fixed_across_rounds(self):
        # a PrototypeSet is frozen over a read-only array, so no round can
        # change it; a second run re-serializes to the same bytes
        cfg = tiny_config(rounds=3)
        res = run_experiment(cfg)
        assert not res.prototypes.weights.flags.writeable
        again = run_experiment(cfg)
        assert res.prototypes.to_bytes() == again.prototypes.to_bytes()

    def test_input_dim_mismatch_rejected(self):
        cfg = tiny_config()
        bad = ExperimentConfig(
            dataset=cfg.dataset,
            partition=cfg.partition,
            extractor=ExtractorConfig(input_dim=5, hidden=(12,), output_dim=3),
            triplet=cfg.triplet,
            rounds=1,
        )
        with pytest.raises(ValueError):
            run_experiment(bad)

    def test_diverging_run_names_round_and_client(self):
        cfg = tiny_config(rounds=1, lr=float(np.finfo(np.float64).max))
        with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
            run_experiment(cfg)
        assert err.match(r"^round 0: client \d+: ")

    def test_failing_client_is_named_by_its_index(self, monkeypatch):
        # one shard object at indices 0, 2 and 3 of a hand-built list fails
        # to train: the error names the first index trained, which only the
        # list knows
        ds = make_synthetic(3, 6, per_class=40, spread=0.2, seed=0)
        good, bad = split_local(ds, seed=0), split_local(ds, seed=1)
        train = learner.local_train

        def failing(theta, split, *args, **kwargs):
            if split is bad.train:
                raise ValueError("training diverged")
            return train(theta, split, *args, **kwargs)

        monkeypatch.setattr(learner, "local_train", failing)
        cfg = tiny_config(rounds=1)
        protos = [build_prototypes(3, 3, 0.9, seed=0)[0]] * 4
        theta = learner.init_params(cfg.extractor, 0)
        out = np.zeros((4, theta.size))
        with pytest.raises(ValueError, match="^client 2: training diverged$"):
            federation._train(cfg, theta, [bad, good, bad, bad], protos, 0, 1, [1, 2, 3], out)
        assert out[1].any() and not out[2:].any()

    def test_aggregation_failure_names_round(self, monkeypatch):
        def fail(theta, deltas, p):
            raise ValueError("aggregated parameters are not finite")

        monkeypatch.setattr(agg, "aggregate", fail)
        with pytest.raises(ValueError, match="^round 0: aggregated parameters are not finite$"):
            run_experiment(tiny_config(rounds=1))

    def test_partition_notes_one_warning_per_kind(self, caplog):
        # 40 clients over 144 instances at alpha 0.05: empty clients are
        # repaired and single-instance clients have no local test split
        with caplog.at_level(logging.WARNING):
            res = run_experiment(tiny_config(rounds=1, clients=40, alpha=0.05))
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) <= 2
        untested = [k for k, shard in enumerate(res.shards) if shard.test is None]
        assert any(str(untested) in w for w in warnings)
        assert any("empty clients" in w for w in warnings)


class TestClientIsolation:
    def test_round_result_independent_of_completion_order(self):
        # one synchronous round assembled by hand, clients processed in two
        # different orders; the aggregate depends only on client indices
        ds = make_synthetic(3, 6, per_class=40, spread=0.2, seed=0)
        pools_spec = PartitionSpec(num_clients=3, alpha=1.0)
        from hyperfl.data import dirichlet_partition

        pools = dirichlet_partition(ds, pools_spec, 4)
        shards = [split_local(pools[k], seed=k) for k in range(3)]
        protos, _ = build_prototypes(3, 3, 0.9, seed=1)
        ext = ExtractorConfig(input_dim=6, hidden=(8,), output_dim=3)
        tcfg = TripletConfig(margin=3.0)
        theta = learner.init_params(ext, 2)

        def train_round(order):
            locals_by_k = {}
            for k in order:
                locals_by_k[k] = learner.local_train(
                    theta, shards[k].train, protos, ext, tcfg, 2, 16, 0.3, seed=100 + k
                )
            locals_ = [locals_by_k[k] for k in range(3)]
            deltas, gram = agg.compute_deviations(theta, locals_)
            counts = np.array([s.n_train for s in shards], dtype=np.float64)
            p, _ = agg.min_norm_weights(gram, counts / counts.sum())
            return agg.aggregate(theta, deltas, p)

        a = train_round([0, 1, 2])
        b = train_round([2, 0, 1])
        assert np.max(np.abs(a - b)) < 1e-12


class TestEvaluate:
    def test_gfl_perfect_when_predictor_matches_labels(self):
        # zero weights with the class-0 prototype as bias: every input lands
        # exactly on prototype 0, so every prediction is class 0
        protos, _ = build_prototypes(3, 3, 0.9, seed=0)
        ext = ExtractorConfig(input_dim=4, hidden=(), output_dim=3)
        bias = log0(protos.weights[0])
        theta = np.concatenate((np.zeros(3 * 4), bias))  # w0 = 0, b0 = bias
        test = LabeledDataset(np.random.default_rng(0).standard_normal((20, 4)),
                              np.zeros(20, dtype=int), 3)
        assert evaluate_gfl(theta, ext, protos, test) == 1.0

    def test_gfl_chance_level_for_random_model(self):
        protos, _ = build_prototypes(4, 4, 0.9, seed=1)
        ext = ExtractorConfig(input_dim=6, hidden=(8,), output_dim=4)
        theta = learner.init_params(ext, 5)
        rng = np.random.default_rng(2)
        test = LabeledDataset(rng.standard_normal((4000, 6)), rng.integers(0, 4, 4000), 4)
        acc = evaluate_gfl(theta, ext, protos, test)
        assert abs(acc - 0.25) < 0.05

    def test_pfl_zero_finetune_scores_global_model(self):
        ds = make_synthetic(3, 6, per_class=40, spread=0.2, seed=3)
        shards = [split_local(ds, seed=0)]
        protos, _ = build_prototypes(3, 3, 0.9, seed=0)
        ext = ExtractorConfig(input_dim=6, hidden=(8,), output_dim=3)
        theta = learner.init_params(ext, 1)
        tuned = finetune(theta, shards, [protos], ext, TripletConfig(margin=3.0), epochs=0)
        accs = evaluate_pfl(tuned, shards, [protos], ext)
        direct = evaluate_gfl(theta, ext, protos, shards[0].test)
        assert accs[0] == pytest.approx(direct, abs=1e-12)

    def test_pfl_leaves_global_untouched(self):
        ds = make_synthetic(3, 6, per_class=40, spread=0.2, seed=4)
        shards = [split_local(ds, seed=0)]
        protos, _ = build_prototypes(3, 3, 0.9, seed=0)
        ext = ExtractorConfig(input_dim=6, hidden=(8,), output_dim=3)
        theta = learner.init_params(ext, 1)
        digest = hashlib.sha256(theta.tobytes()).hexdigest()
        tuned = finetune(theta, shards, [protos], ext, TripletConfig(), epochs=2)
        evaluate_pfl(tuned, shards, [protos], ext)
        assert hashlib.sha256(theta.tobytes()).hexdigest() == digest
        assert not np.array_equal(tuned[0], theta)

    def test_pfl_skips_clients_without_test_split(self):
        ds = LabeledDataset(np.ones((1, 2)), np.zeros(1, dtype=int), 2)
        shard = split_local(ds, seed=0)  # single instance: no test split
        protos, _ = build_prototypes(2, 2, 0.9, seed=0)
        ext = ExtractorConfig(input_dim=2, hidden=(), output_dim=2)
        tuned = learner.local_train(learner.init_params(ext, 0), shard.train, protos, ext,
                                    TripletConfig(), 5, 4, 0.1, seed=derive_seed(0, "pfl", 0))
        assert evaluate_pfl(tuned[None], [shard], [protos], ext) == [None]

    def test_pfl_never_reads_an_untested_row(self):
        # clients 0 and 2 share a test size and are scored in one stacked
        # call around client 1, which has no test split
        ds = make_synthetic(3, 6, per_class=40, spread=0.2, seed=5)
        shards = [split_local(ds, seed=0), split_local(ds.subset(np.arange(1))),
                  split_local(ds, seed=1)]
        protos = [build_prototypes(3, 3, 0.9, seed=0)[0]] * 3
        ext = ExtractorConfig(input_dim=6, hidden=(8,), output_dim=3)
        tuned = finetune(learner.init_params(ext, 1), shards, protos, ext,
                         TripletConfig(margin=3.0), epochs=1)
        accs = evaluate_pfl(tuned, shards, protos, ext)
        assert accs[1] is None and None not in (accs[0], accs[2])
        tuned[1] = np.nan
        assert evaluate_pfl(tuned, shards, protos, ext) == accs

    def test_pfl_finetune_helps_single_class_client(self):
        # a client holding one class: finetuning on it should not hurt local
        # accuracy, checked across 10 seeds
        protos, _ = build_prototypes(3, 3, 0.9, seed=0)
        ext = ExtractorConfig(input_dim=6, hidden=(8,), output_dim=3)
        tcfg = TripletConfig(margin=3.0)
        wins = 0
        for seed in range(10):
            ds = make_synthetic(3, 6, per_class=40, spread=0.3, seed=seed)
            only = ds.subset(np.flatnonzero(ds.labels == 1))
            shard = split_local(only, seed=seed)
            theta = learner.init_params(
                ExtractorConfig(input_dim=6, hidden=(8,), output_dim=3), seed
            )
            before = evaluate_gfl(theta, ext, protos, shard.test)
            tuned = learner.local_train(theta, shard.train, protos, ext, tcfg, 5, 16, 0.3,
                                        seed=derive_seed(seed, "pfl", 0))
            after = evaluate_pfl(tuned[None], [shard], [protos], ext)[0]
            wins += after >= before
        assert wins >= 9


def finetune(theta, shards, protos, ext, tcfg, epochs):
    """Every client's P-FL finetune from ``theta``, trained as a round trains it."""
    cfg = dataclasses.replace(tiny_config(), extractor=ext, triplet=tcfg, batch_size=16)
    tuned = np.empty((len(shards), theta.size))
    federation._train(cfg, theta, shards, protos, 1, epochs, range(len(shards)), tuned)
    return tuned


def carry_config(local_epochs=2, finetune_epochs=2, **kwargs):
    return dataclasses.replace(
        tiny_config(**kwargs), local_epochs=local_epochs, finetune_epochs=finetune_epochs
    )


def fresh_local_train(cfg, theta, shard, protos, epochs, t, k):
    return learner.local_train(
        theta, shard.train, protos, cfg.extractor, cfg.triplet, epochs=epochs,
        batch_size=cfg.batch_size, lr=cfg.lr, seed=derive_seed(cfg.seed, "train", t, k),
        metric=cfg.metric,
    )


class TestPflIsNextLocalUpdate:
    """Round t's P-FL finetune is client k's round-t+1 local update: same
    start, same seed; with equal epochs it is trained once and carried over."""

    @pytest.mark.parametrize(
        "variant,finetune_epochs,clients,alpha",
        [(None, 2, 4, 0.5), (None, 1, 4, 0.5), ("fixed_only", 2, 4, 0.5),
         (None, 2, 10, 0.05)],
    )
    def test_pfl_scores_a_fresh_next_round_update(self, variant, finetune_epochs, clients, alpha):
        cfg = carry_config(finetune_epochs=finetune_epochs, rounds=3, clients=clients,
                           alpha=alpha)
        after = []
        res = run_experiment(
            cfg, variant, round_hook=lambda t, before, locals_, p, theta: after.append(theta)
        )
        scored = 0
        for t, rec in enumerate(res.records):
            for k, (shard, protos) in enumerate(zip(res.shards, res.client_prototypes)):
                if shard.test is None:
                    assert rec.pfl_accuracies[k] is None
                    continue
                tuned = fresh_local_train(cfg, after[t], shard, protos, finetune_epochs, t + 1, k)
                pred = learner.predict_batch(tuned, cfg.extractor, protos.weights, protos.sq_norms,
                                             shard.test.features)
                assert rec.pfl_accuracies[k] == float(np.mean(pred == shard.test.labels))
                scored += 1
        assert scored > 0

    @pytest.mark.parametrize(
        "variant,clients,alpha",
        [(None, 4, 0.5), ("fixed_only", 4, 0.5), ("averaged", 4, 0.5), (None, 10, 0.05)],
    )
    def test_carried_locals_equal_fresh_training(self, variant, clients, alpha):
        cfg = carry_config(rounds=3, clients=clients, alpha=alpha)
        seen = []
        res = run_experiment(
            cfg, variant,
            round_hook=lambda t, before, locals_, p, theta: seen.append((before, locals_)),
        )
        for t, (before, locals_) in enumerate(seen):
            for k, (shard, protos) in enumerate(zip(res.shards, res.client_prototypes)):
                want = fresh_local_train(cfg, before, shard, protos, cfg.local_epochs, t, k)
                assert locals_[k].tobytes() == want.tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(res.client_params, seen[-1][1], strict=True))

    @pytest.mark.parametrize(
        "variant,finetune_epochs,carried",
        [(None, 2, True), ("fixed_only", 2, True), ("shared_only", 2, False),
         (None, 1, False), (None, 3, False)],
    )
    def test_local_train_call_count(self, monkeypatch, variant, finetune_epochs, carried):
        rounds, clients = 3, 10
        cfg = carry_config(finetune_epochs=finetune_epochs, rounds=rounds, clients=clients,
                           alpha=0.05)
        calls = 0
        train = learner.local_train

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return train(*args, **kwargs)

        monkeypatch.setattr(learner, "local_train", counted)
        res = run_experiment(cfg, variant)
        tested = sum(shard.test is not None for shard in res.shards)
        assert 0 < tested < clients  # both P-FL paths are taken
        # every client trains and every tested client finetunes each round ...
        expected = rounds * (clients + tested)
        if carried:  # ... less the finetunes reused as the next round's update
            expected -= (rounds - 1) * tested
        assert calls == expected


class TestAblations:
    def test_averaged_with_single_client_matches_full(self):
        full = run_experiment(tiny_config(rounds=2, clients=1))
        avg = run_experiment(tiny_config(rounds=2, clients=1), "averaged")
        assert np.array_equal(full.global_params, avg.global_params)
        assert [r.gfl_accuracy for r in full.records] == [r.gfl_accuracy for r in avg.records]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_config(), "nonsense")

    def test_shared_only_rerandomizes_per_round(self):
        res = run_experiment(tiny_config(rounds=2), "shared_only")
        assert isinstance(res, ExperimentResult)

    def test_variants_share_partition_with_full(self):
        cfg = tiny_config(seed=8)
        full = run_experiment(cfg)
        var = run_experiment(cfg, "averaged")
        assert full.manifest == var.manifest

    def test_full_method_dominates_variants_on_benchmark(self):
        # desk-scale qualitative ordering over 5 seeds: the full method's mean
        # global accuracy is at least every variant's mean
        def bench_cfg(seed):
            return ExperimentConfig(
                dataset=SyntheticSpec(5, 16, 500, spread=0.15, hierarchy_depth=2),
                partition=PartitionSpec(num_clients=10, alpha=0.5),
                extractor=ExtractorConfig(input_dim=16, hidden=(32,), output_dim=4),
                triplet=TripletConfig(margin=3.0),
                rounds=15,
                slope=0.9, lr=0.3, local_epochs=5, batch_size=128,
                seed=seed,
            )

        seeds = range(5)
        full_mean = np.mean(
            [run_experiment(bench_cfg(s)).records[-1].gfl_accuracy for s in seeds]
        )
        for variant in ("geodesic_metric_only", "fixed_only", "shared_only", "averaged"):
            variant_mean = np.mean(
                [run_experiment(bench_cfg(s), variant).records[-1].gfl_accuracy for s in seeds]
            )
            assert full_mean >= variant_mean - 1e-12, variant


def test_monotone_setup_sanity():
    # separable synthetic data at alpha = 5: accuracy at the last round is at
    # least the round-1 accuracy in >= 4 of 5 seeds
    wins = 0
    for seed in range(5):
        cfg = tiny_config(seed=seed, rounds=6, alpha=5.0)
        res = run_experiment(cfg)
        wins += res.records[-1].gfl_accuracy >= res.records[1].gfl_accuracy
    assert wins >= 4


class TestPersistence:
    def test_output_files(self, tmp_path):
        cfg = tiny_config(rounds=2)
        run_experiment(cfg, out_dir=tmp_path / "run")
        out = tmp_path / "run"
        for name in (
            "rounds.jsonl", "timing.jsonl", "aggregation.jsonl", "manifest.json",
            "prototypes.bin", "global.params", "summary.json",
        ):
            assert (out / name).exists(), name
        lines = (out / "rounds.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert set(rec) == {
            "round", "gfl_accuracy", "pfl_accuracy_mean", "pfl_accuracies", "train_loss_mean",
        }
        dump = json.loads((out / "aggregation.jsonl").read_text().splitlines()[0])
        assert set(dump) == {"round", "p", "cu_iterations", "pareto_gap", "gram_diagonal"}
        # one fact, one file: the streams share only the key that joins them
        assert set(rec) & set(dump) == {"round"}

    def test_checkpoints_loadable(self, tmp_path):
        cfg = tiny_config(rounds=2)
        res = run_experiment(cfg, out_dir=tmp_path / "run")
        params = load_params(tmp_path / "run" / "global.params")
        assert np.array_equal(params.values, res.global_params)
        assert params.extractor == cfg.extractor
        protos = load_prototypes(tmp_path / "run" / "prototypes.bin")
        assert protos.to_bytes() == res.prototypes.to_bytes()


    @pytest.mark.parametrize("variant", [None, *VARIANTS])
    def test_manifest_records_tammes_report(self, tmp_path, variant):
        cfg = tiny_config(rounds=1)
        run_experiment(cfg, variant, out_dir=tmp_path)
        recorded = json.loads((tmp_path / "manifest.json").read_text())["tammes"]
        if variant not in (None, "averaged"):  # random prototypes: no Tammes set
            assert recorded is None
            return
        c, n = cfg.dataset.num_classes, cfg.extractor.output_dim
        _, report = build_prototypes(c, n, cfg.slope, derive_seed(cfg.seed, "protos"))
        assert recorded == {
            "max_pairwise_cosine": report.max_pairwise_cosine,
            "simplex_bound": -1 / (c - 1),
            "converged": report.converged,
        }

    def test_checkpoint_headers_name_model_and_prototypes(self, tmp_path):
        cfg = tiny_config(rounds=1)
        res = run_experiment(cfg, "fixed_only", out_dir=tmp_path)
        arch = {"input_dim": 6, "hidden": [12], "output_dim": 3, "activation": "tanh",
                "metric": "geodesic"}

        def header_model(path):
            return json.loads(path.read_bytes().split(b"\n")[1])["model"]

        def record(path):
            params = load_params(path)
            return params.extractor, params.metric, params.prototypes_sha256

        global_ckpt = tmp_path / "global.params"
        assert header_model(global_ckpt) == {**arch, "prototypes_sha256": res.prototypes.sha256()}
        assert record(global_ckpt) == (cfg.extractor, "geodesic", res.prototypes.sha256())
        assert res.prototypes.sha256() == hashlib.sha256(
            (tmp_path / "prototypes.bin").read_bytes()).hexdigest()
        for k, protos in enumerate(res.client_prototypes):
            client_ckpt = tmp_path / f"client_{k:03d}.params"
            assert header_model(client_ckpt) == {**arch, "prototypes_sha256": protos.sha256()}
            assert record(client_ckpt) == (cfg.extractor, "geodesic", protos.sha256())
            assert protos.sha256() != res.prototypes.sha256()  # fixed_only: own sets

    def test_checkpoints_round_trip_byte_for_byte(self, tmp_path):
        # pins the header's key order and formatting: a loaded record saves
        # back to the very bytes it was read from
        run_experiment(tiny_config(rounds=1), out_dir=tmp_path / "run")
        checkpoints = sorted((tmp_path / "run").glob("*.params"))
        assert len(checkpoints) == 5  # global + 4 clients
        for path in checkpoints:
            save_params(load_params(path), tmp_path / "again.params")
            assert (tmp_path / "again.params").read_bytes() == path.read_bytes(), path.name


@pytest.fixture(scope="module")
def relu_run(tmp_path_factory):
    """A relu, Euclidean run and its global test slice saved as a file.  At
    this seed the tanh/geodesic defaults score its model differently."""
    out = tmp_path_factory.mktemp("relu")
    ext = ExtractorConfig(input_dim=6, hidden=(12,), output_dim=3, activation="relu")
    cfg = dataclasses.replace(tiny_config(seed=1, rounds=2), metric="euclidean", extractor=ext)
    res = run_experiment(cfg, out_dir=out / "run")
    save_dataset(res.global_test, out / "test.txt")
    return res, out


def eval_argv(checkpoint, data, protos) -> list[str]:
    return ["eval", "--checkpoint", str(checkpoint), "--data", str(data), "--protos", str(protos)]


class TestEvalReadsHeader:
    def test_scores_with_the_trained_activation_and_metric(self, relu_run, capsys):
        res, out = relu_run
        ds = load_dataset(out / "test.txt")
        ext = res.config.extractor
        expected = evaluate_gfl(res.global_params, ext, res.prototypes, ds, "euclidean")
        tanh = dataclasses.replace(ext, activation="tanh")
        assert evaluate_gfl(res.global_params, tanh, res.prototypes, ds, "geodesic") != expected
        rc = cli_main(eval_argv(out / "run" / "global.params", out / "test.txt",
                                out / "run" / "prototypes.bin"))
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == expected

    def test_refuses_another_runs_prototypes(self, relu_run, tmp_path, capsys):
        _, out = relu_run
        run_experiment(tiny_config(seed=2, rounds=1), out_dir=tmp_path / "other")
        rc = cli_main(eval_argv(out / "run" / "global.params", out / "test.txt",
                                tmp_path / "other" / "prototypes.bin"))
        assert rc == 1
        assert "prototypes_sha256" in json.loads(capsys.readouterr().err)["message"]

    def test_refuses_checkpoint_without_model_fields(self, relu_run, tmp_path, capsys):
        # the header line of checkpoints written before headers named the model
        res, out = relu_run
        raw = (out / "run" / "global.params").read_bytes()
        magic, _, body = raw.split(b"\n", 2)
        layout = [[f"{'wb'[i % 2]}{i // 2}", list(shape)]
                  for i, (_, _, shape) in enumerate(res.config.extractor.spans)]
        layout_only = json.dumps({"layout": layout}).encode()
        old = tmp_path / "old.params"
        old.write_bytes(magic + b"\n" + layout_only + b"\n" + body)
        rc = cli_main(eval_argv(old, out / "test.txt", out / "run" / "prototypes.bin"))
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert str(old) in message and "'model'" in message

    def test_refuses_layout_that_does_not_match_the_model(self, relu_run, tmp_path, capsys):
        _, out = relu_run
        raw = (out / "run" / "global.params").read_bytes()
        magic, header, body = raw.split(b"\n", 2)
        header = json.loads(header)
        header["model"]["hidden"] = [7]
        wrong = tmp_path / "wrong.params"
        wrong.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + body)
        rc = cli_main(eval_argv(wrong, out / "test.txt", out / "run" / "prototypes.bin"))
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["message"]
        # 6-12-3 has 123 values; the header's 6-7-3 would need 73
        assert str(wrong) in message and "expected 584 payload bytes, found 984" in message

    def test_refuses_dataset_with_another_class_count(self, relu_run, tmp_path, capsys):
        # same dimension, seven classes against the run's three prototypes
        _, out = relu_run
        ds = make_synthetic(7, 6, per_class=10, spread=0.15, seed=0)
        save_dataset(ds, tmp_path / "seven.txt")
        rc = cli_main(eval_argv(out / "run" / "global.params", tmp_path / "seven.txt",
                                out / "run" / "prototypes.bin"))
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert "seven.txt" in message and "prototypes.bin" in message

    def test_fixed_only_client_checkpoint_needs_its_own_set(self, tmp_path, capsys):
        res = run_experiment(tiny_config(rounds=1), "fixed_only", out_dir=tmp_path / "run")
        save_dataset(res.global_test, tmp_path / "test.txt")
        client = tmp_path / "run" / "client_000.params"
        rc = cli_main(eval_argv(client, tmp_path / "test.txt", tmp_path / "run" / "prototypes.bin"))
        assert rc == 1
        capsys.readouterr()
        save_prototypes(res.client_prototypes[0], tmp_path / "client_000.bin")
        assert cli_main(eval_argv(client, tmp_path / "test.txt", tmp_path / "client_000.bin")) == 0

    def test_compares_prototypes_before_reading_the_dataset(self, relu_run, tmp_path, capsys,
                                                            monkeypatch):
        _, out = relu_run
        save_prototypes(random_prototypes(3, 3, 0.9, 7), tmp_path / "other.bin")

        def never(path):
            raise AssertionError(f"{path} was parsed")

        monkeypatch.setattr(data_mod, "load_dataset", never)
        rc = cli_main(eval_argv(out / "run" / "global.params", out / "test.txt",
                                tmp_path / "other.bin"))
        assert rc == 1
        assert "prototypes_sha256" in json.loads(capsys.readouterr().err)["message"]

    def test_takes_exactly_three_required_flags(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")  # keep the usage on one line
        with pytest.raises(SystemExit):
            cli_main(["eval", "--help"])
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: hyperfl eval [-h] --checkpoint CHECKPOINT --data DATA --protos PROTOS"


class TestCli:
    def test_protos_command(self, tmp_path, capsys):
        out = tmp_path / "p.bin"
        rc = cli_main(["protos", "--classes", "4", "--dim", "3", "--slope", "0.9",
                       "--seed", "2", "--out", str(out)])
        assert rc == 0
        protos = load_prototypes(out)
        assert protos.num_classes == 4
        info = json.loads(capsys.readouterr().out)
        assert info["max_pairwise_cosine"] <= -1 / 3 + 1e-2

    def test_protos_negative_seed_names_seed(self, tmp_path, capsys):
        out = tmp_path / "p.bin"
        rc = cli_main(["protos", "--classes", "4", "--dim", "3", "--seed", "-1",
                       "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "seed" in err["message"]
        assert not out.exists()

    def test_protos_seed_past_int64_names_seed(self, tmp_path, capsys):
        # the prototype file stores the seed as an int64
        out = tmp_path / "p.bin"
        rc = cli_main(["protos", "--classes", "3", "--dim", "2", "--seed", str(2**63),
                       "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "seed" in err["message"]
        assert not out.exists()

    def test_protos_refuses_slope_before_optimizing(self, tmp_path, capsys, monkeypatch):
        def never(c, n, seed):
            raise AssertionError("the optimizer ran")

        monkeypatch.setattr(prototypes_mod, "optimize_prototypes", never)
        out = tmp_path / "p.bin"
        rc = cli_main(["protos", "--classes", "300", "--dim", "16", "--slope", "1.5",
                       "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "slope must be in" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("out, error", [("file/p.bin", "NotADirectoryError"),
                                            ("missing/p.bin", "NotADirectoryError"),
                                            ("dir", "IsADirectoryError")])
    def test_protos_refuses_an_unusable_out_before_optimizing(self, tmp_path, capsys,
                                                              monkeypatch, out, error):
        calls = []
        monkeypatch.setattr(prototypes_mod, "optimize_prototypes",
                            lambda *args: calls.append(args))
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        rc = cli_main(["protos", "--classes", "200", "--dim", "16",
                       "--out", str(tmp_path / out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert calls == []

    @pytest.mark.parametrize("flag, words", [("--classes", "2 classes, got 1"),
                                             ("--dim", "2 dimensions, got 1")])
    def test_protos_names_the_size_below_two(self, tmp_path, capsys, flag, words):
        flags = {"--classes": "3", "--dim": "2", flag: "1"}
        argv = ["protos", "--out", str(tmp_path / "p.bin")]
        assert cli_main(argv + [x for item in flags.items() for x in item]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and err["message"] == f"need at least {words}"
        assert not (tmp_path / "p.bin").exists()

    def test_partition_command(self, tmp_path):
        ds = make_synthetic(3, 4, per_class=30, spread=0.2, seed=0)
        data_path = tmp_path / "ds.txt"
        save_dataset(ds, data_path)
        rc = cli_main(["partition", "--data", str(data_path), "--clients", "3",
                       "--alpha", "0.5", "--out", str(tmp_path / "parts")])
        assert rc == 0
        manifest = json.loads((tmp_path / "parts" / "partition.json").read_text())
        assert sum(manifest["client_sizes"]) == 90
        for k in range(3):
            assert (tmp_path / "parts" / f"client_{k:03d}.txt").exists()

    def test_partition_negative_seed_names_seed(self, tmp_path, capsys):
        data_path = tmp_path / "ds.txt"
        save_dataset(make_synthetic(3, 4, per_class=30, spread=0.2, seed=0), data_path)
        rc = cli_main(["partition", "--data", str(data_path), "--clients", "3",
                       "--alpha", "0.5", "--seed", "-1", "--out", str(tmp_path / "parts")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "partition seed must be nonnegative" in err["message"]
        assert not (tmp_path / "parts").exists()

    @pytest.mark.parametrize("out", ["file/parts", "file"])
    def test_partition_refuses_out_under_a_file_before_partitioning(self, tmp_path, capsys,
                                                                    monkeypatch, out):
        calls = []
        monkeypatch.setattr(data_mod, "dirichlet_partition", lambda *args: calls.append(args))
        data_path = tmp_path / "ds.txt"
        save_dataset(make_synthetic(3, 4, per_class=30, spread=0.2, seed=0), data_path)
        (tmp_path / "file").write_text("")
        rc = cli_main(["partition", "--data", str(data_path), "--clients", "3",
                       "--alpha", "0.5", "--out", str(tmp_path / out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NotADirectoryError"
        assert calls == []

    def test_run_refuses_a_one_record_dataset_at_the_holdout(self, tmp_path, capsys):
        data_path = tmp_path / "one.txt"
        save_dataset(make_synthetic(3, 6, per_class=1, spread=0.2, seed=0).subset([0]),
                     data_path)
        cfg_path = tmp_path / "cfg.json"
        cfg = dataclasses.replace(tiny_config(rounds=1), dataset=str(data_path))
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == ("global_test_fraction: the global holdout needs at least 2 "
                                  "instances, the dataset has 1")

    def test_run_and_eval_commands(self, tmp_path, capsys):
        cfg = tiny_config(rounds=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out_dir = tmp_path / "run"
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 0
        capsys.readouterr()

        # score the saved checkpoint on the full synthetic dataset
        ds = make_synthetic(3, 6, per_class=60, spread=0.15, hierarchy_depth=1,
                            seed=0)
        data_path = tmp_path / "eval.txt"
        save_dataset(ds, data_path)
        rc = cli_main(["eval", "--checkpoint", str(out_dir / "global.params"),
                       "--data", str(data_path),
                       "--protos", str(out_dir / "prototypes.bin")])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 <= result["accuracy"] <= 1.0

    def test_run_refuses_out_under_a_file_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        train = learner.local_train

        def counted(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(learner, "local_train", counted)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(rounds=2).to_dict()))
        (tmp_path / "file").write_text("")
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "file" / "run")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NotADirectoryError"
        assert calls == []

    def test_run_seed_override_changes_stream(self, tmp_path):
        cfg = tiny_config(rounds=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        cli_main(["run", "--config", str(cfg_path), "--seed", "99",
                  "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "rounds.jsonl").read_bytes()
        b = (tmp_path / "b" / "rounds.jsonl").read_bytes()
        assert a != b

    def test_error_record_on_failure(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(tmp_path / "missing.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_variant_flag(self, tmp_path):
        cfg = tiny_config(rounds=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(["run", "--config", str(cfg_path), "--variant", "averaged",
                       "--out", str(tmp_path / "v")])
        assert rc == 0
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert manifest["variant"] == "averaged"
