"""Exercises for the less-traveled configuration surfaces: multiple
negatives per anchor, the flat-metric option, zero-epoch finetuning and
old finetuning keys, file-backed datasets, and solver budget exhaustion."""

import copy
import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hyperfl import aggregation as agg
from hyperfl import learner
from hyperfl.cli import main as cli_main
from hyperfl.data import (
    LabeledDataset,
    PartitionSpec,
    make_synthetic,
    save_dataset,
    split_local,
)
from hyperfl.federation import (
    ExperimentConfig,
    SyntheticSpec,
    derive_seed,
    evaluate_pfl,
    run_experiment,
)
from hyperfl.learner import ExtractorConfig, TripletConfig
from hyperfl.prototypes import build_prototypes
from oracles import draw_negatives, fresh_triplet_grad


class TestMultipleNegatives:
    def test_gradient_matches_finite_differences(self):
        protos, _ = build_prototypes(4, 3, 0.9, seed=2)
        cfg = ExtractorConfig(input_dim=3, hidden=(6,), output_dim=3)
        rng = np.random.default_rng(1)
        theta = learner.init_params(cfg, 0)
        theta += 0.2 * rng.standard_normal(theta.size)
        x = rng.standard_normal((4, 3))
        y = rng.integers(0, 4, 4)
        neg = draw_negatives(y, 4, rounds=3, seed=13)
        _, grad = fresh_triplet_grad(theta, cfg, x, y, neg, protos, 3.0)
        h = 1e-5
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, _ = fresh_triplet_grad(tp, cfg, x, y, neg, protos, 3.0)
            lm, _ = fresh_triplet_grad(tm, cfg, x, y, neg, protos, 3.0)
            fd[i] = (lp - lm) / (2 * h)
        both_small = (np.abs(fd) < 1e-8) & (np.abs(grad) < 1e-8)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert float(np.max(np.where(both_small, 0.0, rel))) < 1e-4

    def test_loss_averages_over_draws(self):
        # with C = 2 every round has the same negative, so the five-round
        # loss must equal the one-round loss exactly
        w = np.array([[0.9, 0.0], [-0.9, 0.0]])
        from hyperfl.prototypes import PrototypeSet

        protos = PrototypeSet(weights=w, slope=0.9)
        cfg = ExtractorConfig(input_dim=2, hidden=(), output_dim=2)
        theta = learner.init_params(cfg, 1)
        x = np.array([[0.3, 0.7]])
        y = np.array([0])
        l1, g1 = fresh_triplet_grad(theta, cfg, x, y, draw_negatives(y, 2), protos, 3.0)
        l5, g5 = fresh_triplet_grad(theta, cfg, x, y, draw_negatives(y, 2, rounds=5), protos, 3.0)
        assert l1 == pytest.approx(l5, abs=1e-12)
        assert np.max(np.abs(g1 - g5)) < 1e-12


class TestEuclideanMetric:
    def test_predictions_use_flat_distance(self):
        # a point inside the ball can be geodesically closer to the outer
        # prototype yet Euclidean-closer to the inner one
        from hyperfl.prototypes import PrototypeSet

        w = np.array([[0.05, 0.0], [-0.9, 0.0]])
        norms = np.linalg.norm(w, axis=1)
        protos_in = PrototypeSet(weights=w * (0.9 / norms[:, None]), slope=0.9)
        cfg = ExtractorConfig(input_dim=2, hidden=(), output_dim=2)
        theta = np.concatenate((np.eye(2).ravel(), np.zeros(2)))  # w0 = I, b0 = 0
        x = np.array([0.2, 0.0])
        w, w2 = protos_in.weights, protos_in.sq_norms
        geo = learner.predict_batch(theta, cfg, w, w2, x[None, :], metric="geodesic")[0]
        euc = learner.predict_batch(theta, cfg, w, w2, x[None, :], metric="euclidean")[0]
        assert geo == euc == 0  # sanity: both agree on an easy case

    def test_full_run_with_euclidean_metric(self):
        # averaged aggregation: flat-metric hinges saturate fast, which would
        # let the min-norm weights freeze on a zero-deviation client
        cfg = ExperimentConfig(
            dataset=SyntheticSpec(3, 6, 60, spread=0.15, hierarchy_depth=1),
            partition=PartitionSpec(alpha=0.5, num_clients=3),
            extractor=ExtractorConfig(input_dim=6, hidden=(10,), output_dim=3),
            triplet=TripletConfig(margin=1.0),
            rounds=3,
            metric="euclidean",
            seed=2,
            local_epochs=2,
            batch_size=32,
        )
        res = run_experiment(cfg, "averaged")
        assert res.records[-1].gfl_accuracy > 0.5

    def test_unknown_metric_rejected(self):
        protos, _ = build_prototypes(3, 3, 0.9, seed=0)
        cfg = ExtractorConfig(input_dim=3, hidden=(), output_dim=3)
        with pytest.raises(ValueError):
            learner.predict_batch(learner.init_params(cfg, 0), cfg, protos.weights,
                                  protos.sq_norms, np.zeros((1, 3)), metric="cosine")


class TestStepGranularFinetune:
    """Finetuning runs whole epochs: zero epochs is zero steps, and config
    files from when steps could cap it still load."""

    def test_zero_steps_scores_global_model(self):
        ds = make_synthetic(3, 6, per_class=40, spread=0.2, seed=1)
        shard = split_local(ds, seed=0)
        protos, _ = build_prototypes(3, 3, 0.9, seed=0)
        ext = ExtractorConfig(input_dim=6, hidden=(8,), output_dim=3)
        theta = learner.init_params(ext, 1)
        tuned = learner.local_train(theta, shard.train, protos, ext, TripletConfig(), 0, 16,
                                    lr=0.3, seed=derive_seed(0, "pfl", 0))
        untuned = evaluate_pfl(tuned[None], [shard], [protos], ext)
        pred = learner.predict_batch(theta, ext, protos.weights, protos.sq_norms,
                                     shard.test.features)
        assert untuned == [float(np.mean(pred == shard.test.labels))]

    def test_config_carries_finetune_steps(self):
        d = small_config().to_dict()
        assert "finetune_steps" not in d
        assert ExperimentConfig.from_dict({**d, "finetune_steps": None}) == small_config()
        for value in (5, 0):
            with pytest.raises(ValueError, match="finetune_steps"):
                ExperimentConfig.from_dict({**d, "finetune_steps": value})


class TestFileBackedDataset:
    def test_run_from_dataset_file(self, tmp_path):
        ds = make_synthetic(3, 5, per_class=80, spread=0.15, hierarchy_depth=1, seed=4)
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        cfg = ExperimentConfig(
            dataset=str(path),
            partition=PartitionSpec(alpha=0.5, num_clients=3),
            extractor=ExtractorConfig(input_dim=5, hidden=(8,), output_dim=3),
            triplet=TripletConfig(),
            rounds=2,
            seed=5,
            local_epochs=2,
            batch_size=32,
        )
        res = run_experiment(cfg)
        assert len(res.records) == 2
        assert res.global_test.num_classes == 3
        # client pools plus the held-out slice account for every instance
        assert sum(s.train.size + (s.test.size if s.test else 0) for s in res.shards) \
            + res.global_test.size == ds.size

    @pytest.mark.parametrize("dataset", ["data.txt", SyntheticSpec(num_classes=3, dim=4, per_class=10)])
    def test_from_dict_leaves_caller_dict_alone(self, dataset):
        cfg = dataclasses.replace(small_config(), dataset=dataset)
        d = cfg.to_dict()
        snapshot = copy.deepcopy(d)
        # loading the same dict twice gives the same config both times
        assert ExperimentConfig.from_dict(d) == cfg
        assert ExperimentConfig.from_dict(d) == cfg
        assert d == snapshot


class TestSolverBudget:
    def test_budget_exhaustion_reports_honest_gap(self):
        rng = np.random.default_rng(6)
        deltas = [rng.standard_normal(12) for _ in range(6)]
        _, gram = agg.compute_deviations(np.zeros(12), deltas)
        start = np.full(6, 1 / 6)
        p, steps = agg.min_norm_weights(gram, start, max_iters=1)
        assert steps == 1
        assert abs(float(np.sum(p)) - 1.0) < 1e-9
        # one iteration cannot generally reach stationarity; the gap says so
        full, _ = agg.min_norm_weights(gram, start)
        assert agg.pareto_gap(gram, full) <= agg.pareto_gap(gram, p) + 1e-12


def test_default_client_count_is_twenty():
    assert PartitionSpec(alpha=0.5).num_clients == 20


def test_triplet_config_validation():
    with pytest.raises(ValueError):
        TripletConfig(margin=0.0)
    with pytest.raises(ValueError):
        TripletConfig(negatives_per_sample=0)


def test_labeled_dataset_subset_preserves_classes():
    ds = make_synthetic(4, 3, per_class=10, spread=0.1, seed=0)
    sub = ds.subset(np.arange(5))
    assert isinstance(sub, LabeledDataset)
    assert sub.num_classes == 4


def small_config(**overrides):
    return ExperimentConfig(
        dataset=SyntheticSpec(num_classes=3, dim=4, per_class=10),
        partition=PartitionSpec(alpha=0.5, num_clients=2),
        extractor=ExtractorConfig(input_dim=4, hidden=(), output_dim=2),
        triplet=TripletConfig(),
        rounds=1,
        **overrides,
    )


# config keys that old files may still carry but that no longer configure anything
RETIRED_FIELDS = {"finetune_steps", "aggregator", "partition.seed", "extractor.init_seed"}


class TestExperimentConfigValidation:
    """Bad training fields fail when the config is built, naming the field,
    not mid-run (or never)."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_size", 0),
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("lr", -1.0),
            ("local_epochs", 0),
            ("finetune_epochs", -1),
            ("finetune_steps", -3),
            ("aggregator", "averaged"),
            ("aggregator", "sum"),
            # counts below one name their field too
            ("rounds", 0),
            ("partition.num_clients", 0),
            ("triplet.negatives_per_sample", 0),
            ("global_test_fraction", 0.0),
            ("global_test_fraction", 1.0),
            ("train_fraction", 0.0),
            ("train_fraction", 1.0),
            # integer fields take no fractions and no bools (JSON true == 1)
            ("rounds", 2.5),
            ("rounds", True),
            ("local_epochs", 1.5),
            ("batch_size", 16.5),
            ("finetune_epochs", 1.5),
            ("seed", 0.5),
            ("partition.num_clients", 2.5),
            ("partition.seed", True),
            ("triplet.negatives_per_sample", 1.5),
            ("extractor.output_dim", 2.5),
            ("extractor.hidden", (6.5,)),
            ("extractor.hidden", (True,)),
            ("extractor.hidden", 32),
            # prototypes need two dimensions to lie apart
            ("extractor.output_dim", 1),
            # the retired sub-seeds load only as 0: the master seed draws every run
            ("partition.seed", -1),
            ("extractor.init_seed", True),
            ("partition.seed", 3),
            ("extractor.init_seed", -1),
            ("extractor.init_seed", 3),
            # real-valued fields take no strings and no bools either
            ("lr", "0.3"),
            ("lr", True),
            ("slope", "0.9"),
            ("triplet.margin", True),
            ("global_test_fraction", "0.2"),
            ("dataset.spread", False),
            ("triplet.margin", "3.0"),
            ("partition.alpha", "0.5"),
            ("partition.alpha", True),
            ("dataset.spread", "0.1"),
            ("dataset.per_class", 10.5),
            ("dataset.hierarchy_depth", 1.5),
            # NaN fails every comparison, so a sign check alone lets it through
            ("triplet.margin", float("nan")),
            ("triplet.margin", float("inf")),
            ("triplet.margin", 0.0),
            ("triplet.margin", -1.0),
            # generator ranges fail at load, not at dataset build
            ("dataset.num_classes", 1),
            ("dataset.dim", 0),
            ("dataset.per_class", 0),
            ("dataset.spread", float("nan")),
            ("dataset.spread", float("inf")),
            ("dataset.spread", -0.1),
            ("dataset.hierarchy_depth", -1),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        section, _, name = field.rpartition(".")
        # a retired field is no constructor argument at all
        error = TypeError if field in RETIRED_FIELDS else ValueError
        # ...and so names only the bare key; every other error names the full path
        named = name if field in RETIRED_FIELDS else re.escape(field)
        cfg = small_config()
        with pytest.raises(error, match=named):
            if section:  # the section alone, then the config that holds it
                built = dataclasses.replace(getattr(cfg, section), **{name: value})
                dataclasses.replace(cfg, **{section: built})
            else:
                dataclasses.replace(cfg, **{name: value})
        # a config file goes through from_dict and fails the same way
        d = small_config().to_dict()
        (d[section] if section else d)[name] = value
        with pytest.raises(ValueError, match=re.escape(field)):
            ExperimentConfig.from_dict(json.loads(json.dumps(d)))

    def test_boundary_values_accepted(self):
        # lr = 0 freezes the model and zero finetuning scores the global model:
        # both are meaningful runs
        cfg = small_config(lr=0.0, finetune_epochs=0)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "section, field, value",
        # nan <= 0 is False, so a sign check alone lets NaN through
        [("partition", "alpha", a) for a in (float("nan"), float("inf"), 0.0, -1.0)],
        ids=["nan", "inf", "0.0", "-1.0"],
    )
    def test_bad_alpha_rejected(self, section, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(getattr(small_config(), section), **{field: value})
        d = small_config().to_dict()
        d[section][field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict(d)

    def test_prototype_mode_only_in_old_files(self):
        # the one prototype mode is not a field; old config files still name it
        d = small_config().to_dict()
        assert "prototype_mode" not in d
        assert ExperimentConfig.from_dict({**d, "prototype_mode": "tammes_fixed"}) == small_config()
        with pytest.raises(ValueError, match="prototype_mode"):
            ExperimentConfig.from_dict({**d, "prototype_mode": "learned"})

    def test_aggregator_and_triplet_seed_only_in_old_files(self):
        # old config files name the one aggregator and carry a triplet seed
        # that no run read; both load and drop out, whatever the seed
        d = small_config().to_dict()
        assert "aggregator" not in d and "seed" not in d["triplet"]
        for seed in (0, 12345, -1):
            old = {**d, "aggregator": "consistent", "triplet": {**d["triplet"], "seed": seed}}
            assert ExperimentConfig.from_dict(old) == small_config()
        with pytest.raises(ValueError, match="--variant averaged"):
            ExperimentConfig.from_dict({**d, "aggregator": "averaged"})

    def test_zero_sub_seeds_only_in_old_files(self):
        # old config files carry a partition seed and an extractor init_seed;
        # 0 loads and drops out, any other value names its field
        d = small_config().to_dict()
        assert "seed" not in d["partition"] and "init_seed" not in d["extractor"]
        old = {**d, "partition": {**d["partition"], "seed": 0},
               "extractor": {**d["extractor"], "init_seed": 0}}
        assert ExperimentConfig.from_dict(old) == small_config()
        for section, key in (("partition", "seed"), ("extractor", "init_seed")):
            for value in (3, 0.0, False, "0"):
                bad = {**d, section: {**d[section], key: value}}
                with pytest.raises(ValueError, match=rf"{section}\.{key} .*master seed"):
                    ExperimentConfig.from_dict(bad)

    def test_readme_config_example_canonical(self):
        # the README's example loads and writes back key for key: a retired
        # or misspelled key in it fails here
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = readme.read_text(encoding="utf-8").split("```json\n")[1:]
        assert len(blocks) == 1
        example = json.loads(blocks[0].split("```")[0])
        assert json.loads(json.dumps(ExperimentConfig.from_dict(example).to_dict())) == example

    def test_benchmark_configs_valid(self):
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        cfgs = [workloads.config(name, 0) for name in workloads.WORKLOADS]
        for cfg in [*cfgs, workloads.TINY]:
            ExperimentConfig.from_dict(json.loads(json.dumps(cfg)))


# the config fields that declare no kind: the sections, which check their
# own fields, the dataset (a section or a path) and the two names
UNDECLARED = {"dataset", "partition", "extractor", "triplet", "metric", "activation"}
CONFIG_CLASSES = (SyntheticSpec, PartitionSpec, ExtractorConfig, TripletConfig, ExperimentConfig)


class TestDeclaredRules:
    """Each checked field declares its kind and bounds once, in its
    metadata; ``check_fields`` reads them, and every error from a
    constructor, a config file or the CLI names ``<section>.<key>``."""

    def test_every_field_declares_its_rule(self):
        undeclared = set()
        for cls in CONFIG_CLASSES:
            for f in dataclasses.fields(cls):
                if "kind" not in f.metadata:
                    undeclared.add(f.name)
                    continue
                # a misspelled bound would check nothing
                assert f.metadata["kind"] in ("int", "ints", "real"), f.name
                assert set(f.metadata) <= {"kind", "min", "above", "max", "below"}, f.name
        assert undeclared == UNDECLARED

    def test_readme_lists_every_rule(self):
        # the README's list of field rules says what the declarations say
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        kinds = {"int": "integer", "ints": "list of integers", "real": "number"}
        words = {"min": "at least", "above": "above", "max": "at most", "below": "below"}
        sections = {SyntheticSpec: "dataset.", PartitionSpec: "partition.",
                    ExtractorConfig: "extractor.", TripletConfig: "triplet.", ExperimentConfig: ""}
        for cls, prefix in sections.items():
            for f in dataclasses.fields(cls):
                if "kind" in f.metadata:
                    bounds = " and ".join(f"{words[b]} {f.metadata[b]}" for b in words
                                          if b in f.metadata)
                    line = f"- `{prefix}{f.name}`: {kinds[f.metadata['kind']]}, {bounds}"
                    assert f"\n{line}\n" in readme, line

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--clients", "0", "partition.num_clients"), ("--alpha", "nan", "partition.alpha")],
    )
    def test_partition_command_names_field(self, tmp_path, capsys, flag, value, field):
        data_path = tmp_path / "ds.txt"
        save_dataset(make_synthetic(3, 4, per_class=10, spread=0.2, seed=0), data_path)
        flags = {"--clients": "3", "--alpha": "0.5", flag: value}
        argv = ["partition", "--data", str(data_path), "--out", str(tmp_path / "parts")]
        assert cli_main(argv + [x for item in flags.items() for x in item]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and field in err["message"]
        assert not (tmp_path / "parts").exists()

    def test_run_command_names_field(self, tmp_path, capsys):
        d = small_config().to_dict()
        d["partition"]["num_clients"] = 2.5
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(d), encoding="utf-8")
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "partition.num_clients" in err["message"]


class TestConfigSections:
    """Each section of a config file must be present and a JSON object, and
    a file dataset holds exactly its kind and a string path; an error names
    the section or ``dataset.path`` at load, not mid-run.  Every key must be
    a field and every field without a default present; an error names
    ``<section>.<key>``."""

    @pytest.mark.parametrize(
        "section, value",
        [
            ("triplet", None),
            ("partition", None),
            ("extractor", 5),
            ("dataset", 5),
            ("dataset", None),
            # the bare-string dataset is no config spelling
            ("dataset", "data.txt"),
            ("partition", [["num_clients", 2]]),
        ],
    )
    def test_section_not_an_object_named(self, section, value):
        d = small_config().to_dict()
        d[section] = value
        with pytest.raises(ValueError, match=rf"'{section}' must be an object"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "value, kind", [([1], "list"), (None, "NoneType"), ("cfg", "str"), (3, "int")]
    )
    def test_config_not_an_object(self, tmp_path, capsys, value, kind):
        with pytest.raises(ValueError, match=rf"config must be a JSON object, got {kind}$"):
            ExperimentConfig.from_dict(value)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(value), encoding="utf-8")
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"config must be a JSON object, got {kind}"}

    @pytest.mark.parametrize("damage", ["truncated", "not_utf8"])
    def test_malformed_json_names_file(self, tmp_path, capsys, damage):
        # a truncated file, or one that is not UTF-8, names its path as
        # every other file error does
        config = tmp_path / "cfg.json"
        text = json.dumps(small_config().to_dict(), indent=1).encode()
        config.write_bytes(text[:40] if damage == "truncated" else b"\xff" + text)
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{config}: config is not JSON: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["dataset", "partition", "extractor", "triplet"])
    def test_missing_section_named(self, section):
        d = small_config().to_dict()
        del d[section]
        with pytest.raises(ValueError, match=rf"'{section}' must be an object, got no such"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "path, edit",
        [
            ("partition.bogus", lambda d: d["partition"].update(bogus=1)),
            ("roundz", lambda d: d.update(roundz=3)),
            ("dataset.extra", lambda d: d["dataset"].update(extra=1)),
            ("triplet.marg", lambda d: d["triplet"].update(marg=3.0)),
        ],
    )
    def test_unknown_key_named(self, tmp_path, capsys, path, edit):
        # a misspelled key would otherwise leave its field at the default
        d = small_config().to_dict()
        edit(d)
        with pytest.raises(ValueError, match=rf"unknown config key {re.escape(path)}$"):
            ExperimentConfig.from_dict(d)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(d), encoding="utf-8")
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and path in err["message"]

    @pytest.mark.parametrize(
        "section, key",
        [("partition", "alpha"), ("", "rounds"), ("extractor", "hidden"),
         ("dataset", "num_classes")],
    )
    def test_missing_key_named(self, section, key):
        d = small_config().to_dict()
        del (d[section] if section else d)[key]
        path = f"{section}.{key}" if section else key
        with pytest.raises(ValueError, match=rf"missing config key {re.escape(path)}$"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "dataset",
        [
            {"kind": "file"},
            {"kind": "file", "path": 5},
            {"kind": "file", "path": None},
            # a key the file form does not read would drop out of the manifest
            {"kind": "file", "path": "d.txt", "num_classes": 7},
        ],
    )
    def test_bad_file_dataset_named(self, dataset):
        d = {**small_config().to_dict(), "dataset": dataset}
        with pytest.raises(ValueError, match=r"dataset\.path"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("dataset", [5, None, {"kind": "file", "path": "d.txt"}])
    def test_constructor_refuses_other_datasets(self, dataset):
        with pytest.raises(ValueError, match="dataset must be a SyntheticSpec or a file path"):
            dataclasses.replace(small_config(), dataset=dataset)
