"""Synchronous round-based orchestration.

One experiment is: build (or load) a dataset, hold out an IID global test
slice, partition the rest across K clients with a Dirichlet draw, split
each client pool 75/25 into local train/test, construct the frozen class
prototypes once, then iterate rounds of

    broadcast -> local triplet training on every client -> deviation
    aggregation (min-norm weights; the ``averaged`` variant alone uses
    data-weighted averaging) -> evaluation.

Two evaluations run every round: global accuracy of the aggregated model on
the held-out slice, and per-client accuracy of a locally finetuned copy on
each client's local test split.  The finetune of round t is client k's
round-t+1 local update: it starts from the same aggregated model and uses
the same seed, ``derive_seed(seed, "train", t + 1, k)``.  When it is also the
same call (``finetune_epochs == local_epochs`` and the client keeps its
prototype set, which holds for every variant but ``shared_only``), the tuned
model is carried over as round t+1's local model instead of being trained
again, so each client trains once per round after round 0.  A run is named by
its config, its variant and its master ``seed``: every random choice draws
``derive_seed(seed, tag, ...)``, so one config and seed reproduce bit-for-bit.

The round's K client models are the rows of one (K, P) block.  ``_train``
trains both the local updates and the finetunes, each client on its own;
``evaluate_pfl`` only scores.  Any failure inside a round names the round,
and a training failure also names the client by its index k.
The loss metric and the P-FL accuracy score every group of clients whose
split has one size in one stacked call; equal shapes stack bit-exactly, so
the bytes are those of one call per client.

The four ablation variants each toggle exactly one mechanism:

* ``averaged``             -- data-weighted averaging instead of min-norm weights;
* ``geodesic_metric_only`` -- random (non-optimized) frozen shared prototypes;
* ``shared_only``          -- shared prototypes re-randomized every round;
* ``fixed_only``           -- per-client random frozen prototypes, not shared
                              (the server evaluates with its own random set).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from hyperfl import aggregation as agg
from hyperfl import learner, poincare
from hyperfl.data import (
    ClientShard,
    LabeledDataset,
    PartitionSpec,
    check_fields,
    dirichlet_partition,
    load_dataset,
    make_synthetic,
    partition_manifest,
    split_local,
    stratified_holdout,
)
from hyperfl.learner import ExtractorConfig, TripletConfig
from hyperfl.params import ParamVector, save_params
from hyperfl.prototypes import (
    PrototypeSet,
    TammesReport,
    build_prototypes,
    random_prototypes,
    save_prototypes,
)

log = logging.getLogger(__name__)

VARIANTS = ("geodesic_metric_only", "fixed_only", "shared_only", "averaged")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the built-in hierarchical Gaussian generator."""

    num_classes: int = field(metadata={"kind": "int", "min": 2})
    dim: int = field(metadata={"kind": "int", "min": 1})
    per_class: int = field(metadata={"kind": "int", "min": 1})
    spread: float = field(default=0.1, metadata={"kind": "real", "min": 0})
    hierarchy_depth: int = field(default=1, metadata={"kind": "int", "min": 0})

    def __post_init__(self):
        check_fields(self, "dataset")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SyntheticSpec | str  # generator spec or path to a dataset file
    partition: PartitionSpec
    extractor: ExtractorConfig
    triplet: TripletConfig
    rounds: int = field(metadata={"kind": "int", "min": 1})
    slope: float = field(default=0.9, metadata={"kind": "real", "above": 0,
                                                "max": 1 - poincare.EPS_BALL})
    lr: float = field(default=0.3, metadata={"kind": "real", "min": 0})
    local_epochs: int = field(default=5, metadata={"kind": "int", "min": 1})
    batch_size: int = field(default=128, metadata={"kind": "int", "min": 1})
    metric: str = "geodesic"
    seed: int = field(default=0, metadata={"kind": "int", "min": 0})
    finetune_epochs: int = field(default=5, metadata={"kind": "int", "min": 0})
    global_test_fraction: float = field(default=0.2, metadata={"kind": "real", "above": 0,
                                                               "below": 1})
    train_fraction: float = field(default=0.75, metadata={"kind": "real", "above": 0,
                                                          "below": 1})

    def __post_init__(self):
        check_fields(self, "")
        if not isinstance(self.dataset, (SyntheticSpec, str)):
            raise ValueError(f"dataset must be a SyntheticSpec or a file path, "
                             f"got {self.dataset!r}")
        poincare.metric_kernels(self.metric)  # raises on an unknown metric

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dataset"] = (
            {"kind": "file", "path": self.dataset}
            if isinstance(self.dataset, str)
            else {"kind": "synthetic", **asdict(self.dataset)}
        )
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        # older config files name the one prototype mode and aggregator, leave
        # step-granular finetuning off, carry a triplet seed no run read and
        # zero partition and init seeds, which the master seed replaced
        if d.pop("prototype_mode", "tammes_fixed") != "tammes_fixed":
            raise ValueError("prototype_mode must be 'tammes_fixed', the only mode")
        if d.pop("finetune_steps", None) is not None:
            raise ValueError("finetune_steps must be null; finetuning runs whole epochs")
        if d.pop("aggregator", "consistent") != "consistent":
            raise ValueError("aggregator must be 'consistent'; averaging is --variant averaged")
        for section in ("dataset", "partition", "extractor", "triplet"):
            if not isinstance(d.get(section), dict):
                got = repr(d[section]) if section in d else "no such section"
                raise ValueError(f"config section {section!r} must be an object, got {got}")
            d[section] = dict(d[section])
        d["triplet"].pop("seed", None)
        for section, key in (("partition", "seed"), ("extractor", "init_seed")):
            value = d[section].pop(key, 0)
            if type(value) is not int or value != 0:  # not False or 0.0 either
                raise ValueError(f"{section}.{key} must be 0 or absent, got {value!r}: "
                                 "the master seed draws every run")
        _check_keys(ExperimentConfig, d, "")
        for section, cls in (("partition", PartitionSpec), ("extractor", ExtractorConfig),
                             ("triplet", TripletConfig)):
            _check_keys(cls, d[section], section)
        ds = d.pop("dataset")
        kind = ds.pop("kind", "synthetic")
        if kind == "file":
            dataset = ds.pop("path", None)
            if not isinstance(dataset, str) or ds:
                raise ValueError("a file dataset takes 'kind' and a string dataset.path only, "
                                 f"got path {dataset!r} and extra keys {sorted(ds)}")
        elif kind == "synthetic":
            _check_keys(SyntheticSpec, ds, "dataset")
            dataset = SyntheticSpec(**ds)
        else:
            raise ValueError(f"dataset.kind must be 'synthetic' or 'file', got {kind!r}")
        return ExperimentConfig(
            dataset=dataset,
            partition=PartitionSpec(**d.pop("partition")),
            extractor=ExtractorConfig(**d.pop("extractor")),
            triplet=TripletConfig(**d.pop("triplet")),
            **d,
        )


def _check_keys(cls, d: dict, section: str) -> None:
    """Refuse a key that is no field of ``cls`` and a missing field that has
    no default, naming it ``<section>.<key>`` (``<key>`` at the top level)."""
    prefix = f"{section}." if section else ""
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError("unknown config key " + ", ".join(prefix + k for k in unknown))
    missing = [name for name, f in known.items() if name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError("missing config key " + ", ".join(prefix + k for k in missing))


@dataclass
class RoundRecord:
    """One round's accuracies and mean train loss, a line of rounds.jsonl.

    The round's aggregation weights and solver steps are not repeated here:
    they are the ``aggregation_log`` entry (a line of aggregation.jsonl) with
    the same ``round``.
    """

    round: int
    gfl_accuracy: float
    pfl_accuracy_mean: float
    pfl_accuracies: list[float | None]
    train_loss_mean: float
    wall_time_sec: float

    def to_json_dict(self) -> dict:
        # wall time is deliberately excluded: the persisted metric stream is
        # byte-reproducible across runs, timings are written separately
        d = asdict(self)
        del d["wall_time_sec"]
        return d


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    variant: str | None
    records: list[RoundRecord]
    global_params: np.ndarray  # flat, in config.extractor.spans order
    client_params: np.ndarray  # (K, P): the final round's client models, one per row
    prototypes: PrototypeSet
    client_prototypes: list[PrototypeSet]  # the final round's set of each client
    shards: list[ClientShard]
    global_test: LabeledDataset
    manifest: dict
    aggregation_log: list[dict]
    tammes_report: TammesReport | None = None


def derive_seed(master: int, *tags) -> int:
    """Stable nonnegative int64 child seed from the master seed and a tag path."""
    entropy = [int(master)]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(int.from_bytes(tag.encode("utf-8"), "little"))
        else:
            entropy.append(int(tag))
    state = np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0]
    return int(state) & 0x7FFFFFFFFFFFFFFF


def evaluate_gfl(
    global_params: np.ndarray,
    ext: ExtractorConfig,
    protos: PrototypeSet,
    test: LabeledDataset,
    metric: str = "geodesic",
) -> float:
    """Top-1 accuracy of the aggregated model on the held-out test slice."""
    pred = learner.predict_batch(
        global_params, ext, protos.weights, protos.sq_norms, test.features, metric
    )
    return float(np.mean(pred == test.labels))


def _size_groups(datasets: list[LabeledDataset | None], protos: list[PrototypeSet]):
    """Per group of clients whose dataset has one size (a None dataset is
    skipped), yield the client indices and their features, labels,
    prototype weights and squared norms, each stacked on a leading axis;
    a group of one stacks views, not copies."""
    groups: dict[int, list[int]] = {}
    for k, ds in enumerate(datasets):
        if ds is not None:
            groups.setdefault(ds.size, []).append(k)
    for ks in groups.values():
        parts = zip(*((datasets[k].features, datasets[k].labels, protos[k].weights,
                       protos[k].sq_norms) for k in ks))
        yield ks, *(a[0][None] if len(ks) == 1 else np.stack(a) for a in parts)


def evaluate_pfl(tuned: np.ndarray, shards: list[ClientShard], protos: list[PrototypeSet],
                 ext: ExtractorConfig, metric: str = "geodesic") -> list[float | None]:
    """Per-client accuracy of the finetuned models, row k of the (K, P)
    block ``tuned`` scored on client k's local test split against its
    prototype set in ``protos``; clients whose test splits have one size are
    scored in one stacked call.  A client without a test split scores None
    and its row is never read.
    """
    accs: list[float | None] = [None] * len(shards)
    for ks, x, y, w, w2 in _size_groups([shard.test for shard in shards], protos):
        pred = learner.predict_batch(tuned[ks], ext, w, w2, x, metric)
        for k, acc in zip(ks, np.mean(pred == y, axis=-1)):
            accs[k] = float(acc)
    return accs


def _train(cfg: ExperimentConfig, theta: np.ndarray, shards: list[ClientShard],
           protos: list[PrototypeSet], t: int, epochs: int, ks, out: np.ndarray) -> None:
    """Train client k from ``theta`` on its train split for ``epochs`` epochs
    with the round-t seed ``derive_seed(cfg.seed, "train", t, k)`` into
    ``out[k]``, for each k in ``ks``; a failure names the client k."""
    for k in ks:
        try:
            out[k] = learner.local_train(
                theta, shards[k].train, protos[k], cfg.extractor, cfg.triplet, epochs=epochs,
                batch_size=cfg.batch_size, lr=cfg.lr, seed=derive_seed(cfg.seed, "train", t, k),
                metric=cfg.metric,
            )
        except ValueError as err:
            raise ValueError(f"client {k}: {err}") from err


def _build_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    if isinstance(cfg.dataset, str):
        return load_dataset(cfg.dataset)
    return make_synthetic(**asdict(cfg.dataset), seed=derive_seed(cfg.seed, "data"))


def _round_prototypes(
    cfg: ExperimentConfig, variant: str | None, num_classes: int, round_idx: int,
    num_clients: int,
) -> tuple[PrototypeSet, list[PrototypeSet], TammesReport | None]:
    """Server prototype set and the per-client sets for one round."""
    n = cfg.extractor.output_dim

    def random_set(*tags) -> PrototypeSet:
        return random_prototypes(num_classes, n, cfg.slope, derive_seed(cfg.seed, "protos", *tags))

    if variant is None or variant == "averaged":
        seed = derive_seed(cfg.seed, "protos")
        server, report = build_prototypes(num_classes, n, cfg.slope, seed)
        return server, [server] * num_clients, report
    if variant == "fixed_only":
        return random_set("server"), [random_set(k) for k in range(num_clients)], None
    # geodesic_metric_only draws one set for the run, shared_only one per round
    server = random_set(round_idx) if variant == "shared_only" else random_set()
    return server, [server] * num_clients, None


def run_experiment(
    cfg: ExperimentConfig, variant: str | None = None, *,
    out_dir: str | Path | None = None, round_hook=None,
) -> ExperimentResult:
    """Run the full method (``variant=None``: frozen Tammes prototypes and
    min-norm aggregation) or one ablation in ``VARIANTS``; write the outputs
    to ``out_dir`` when given.  ``round_hook(t, theta_before, client_params,
    p, theta_after)`` is invoked after each round when given, with the flat
    parameter arrays and the round's aggregation weights; useful for
    auditing aggregation.
    """
    if variant is not None and variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if out_dir is not None:  # an unusable path fails before any work
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    ds = _build_dataset(cfg)
    ext = cfg.extractor
    if ext.input_dim != ds.dim:
        raise ValueError(f"extractor input_dim {ext.input_dim} != dataset dim {ds.dim}")

    if ds.size < 2:  # the holdout keeps at least one instance on each side
        raise ValueError(f"global_test_fraction: the global holdout needs at least 2 "
                         f"instances, the dataset has {ds.size}")
    if ds.num_classes < 2:  # a file's header may declare one class; prototypes need two
        raise ValueError(f"dataset {cfg.dataset}: {ds.num_classes} class declared, "
                         f"training needs at least 2")
    pool, global_test = stratified_holdout(
        ds, cfg.global_test_fraction, seed=derive_seed(cfg.seed, "holdout")
    )
    # the trailing 0 of the partition and init tags keeps the bytes of earlier runs
    partition_seed = derive_seed(cfg.seed, "partition", 0)
    pools = dirichlet_partition(pool, cfg.partition, partition_seed)
    shards = [split_local(pool_k, train_fraction=cfg.train_fraction,
                          seed=derive_seed(cfg.seed, "split", k)) for k, pool_k in enumerate(pools)]
    manifest = partition_manifest(pools, cfg.partition, partition_seed)

    server_protos, client_protos, tammes_report = _round_prototypes(
        cfg, variant, ds.num_classes, 0, len(shards)
    )
    tested = [k for k, shard in enumerate(shards) if shard.test is not None]
    untested = [k for k, shard in enumerate(shards) if shard.test is None]
    if untested:
        log.warning("%d clients hold one instance each, so no local test split and no P-FL "
                    "score: %s", len(untested), untested)
    # a P-FL finetune is the client's next local update when both run the
    # same epochs against the same prototype set
    carry = variant != "shared_only" and cfg.finetune_epochs == cfg.local_epochs

    theta = learner.init_params(ext, derive_seed(cfg.seed, "init", 0))
    counts = np.array([shard.n_train for shard in shards], dtype=np.float64)
    fractions = counts / counts.sum()
    records: list[RoundRecord] = []
    agg_log: list[dict] = []
    tuned: np.ndarray | None = None  # last round's P-FL models, when carried

    for t in range(cfg.rounds):
        t0 = time.perf_counter()
        if variant == "shared_only":
            server_protos, client_protos, _ = _round_prototypes(
                cfg, variant, ds.num_classes, t, len(shards)
            )
        try:
            # the tested clients' models are carried over from last round's finetune
            models = np.empty((len(shards), theta.size)) if tuned is None else tuned
            _train(cfg, theta, shards, client_protos, t, cfg.local_epochs,
                   range(len(shards)) if tuned is None else untested, models)
            losses = np.empty(len(shards))
            for ks, x, y, w, w2 in _size_groups([shard.train for shard in shards], client_protos):
                losses[ks] = learner.mean_triplet_loss(
                    models[ks], ext, x, y, w, w2, cfg.triplet.margin, cfg.metric
                )
            deltas, gram = agg.compute_deviations(theta, models)
            if variant == "averaged":
                p, steps, gap = fractions, 0, None
            else:
                p, steps = agg.min_norm_weights(gram, fractions)
                gap = agg.pareto_gap(gram, p)
            theta_before, theta = theta, agg.aggregate(theta, deltas, p)
            if round_hook is not None:
                round_hook(t, theta_before, models, p, theta)

            agg_log.append({"round": t, "p": [float(v) for v in p], "cu_iterations": steps,
                            "pareto_gap": gap, "gram_diagonal": [float(v) for v in np.diag(gram)]})
            # free round t's models so that the tuned ones do not raise peak
            # memory; the last round's models are the client checkpoints
            del deltas, gram
            tuned = None
            if t < cfg.rounds - 1:
                del models

            gfl = evaluate_gfl(theta, ext, server_protos, global_test, cfg.metric)
            # a fresh block each round: a round hook may keep the last one
            tuned = np.empty((len(shards), theta.size))
            _train(cfg, theta, shards, client_protos, t + 1, cfg.finetune_epochs, tested, tuned)
            pfl = evaluate_pfl(tuned, shards, client_protos, ext, cfg.metric)
        except ValueError as err:  # training, finetuning or aggregation failed
            raise ValueError(f"round {t}: {err}") from err
        if not carry:
            tuned = None
        scored = [a for a in pfl if a is not None]
        records.append(RoundRecord(
            round=t,
            gfl_accuracy=gfl,
            pfl_accuracy_mean=float(np.mean(scored)) if scored else 0.0,
            pfl_accuracies=pfl,
            train_loss_mean=float(np.mean(losses)),
            wall_time_sec=time.perf_counter() - t0,
        ))

    result = ExperimentResult(
        config=cfg,
        variant=variant,
        records=records,
        global_params=theta,
        client_params=models,
        prototypes=server_protos,
        client_prototypes=client_protos,
        shards=shards,
        global_test=global_test,
        manifest=manifest,
        aggregation_log=agg_log,
        tammes_report=tammes_report,
    )
    if out_dir is not None:
        persist_result(result, out_dir)
    return result


def persist_result(result: ExperimentResult, out_dir: str | Path) -> None:
    """Write metrics, manifests and checkpoints.

    rounds.jsonl and the checkpoints are byte-reproducible for a fixed
    config+seed; wall-clock timings go to timing.jsonl instead.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rounds.jsonl", "w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")
    with open(out / "timing.jsonl", "w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps({"round": rec.round, "wall_time_sec": rec.wall_time_sec}) + "\n")
    with open(out / "aggregation.jsonl", "w", encoding="utf-8") as fh:
        for entry in result.aggregation_log:
            fh.write(json.dumps(entry) + "\n")
    report = result.tammes_report
    manifest = {
        "variant": result.variant,
        "config": result.config.to_dict(),
        "partition": result.manifest,
        "tammes": None if report is None else {
            "max_pairwise_cosine": report.max_pairwise_cosine,
            "simplex_bound": -1.0 / (result.prototypes.num_classes - 1),
            "converged": report.converged,
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    save_prototypes(result.prototypes, out / "prototypes.bin")
    ext, metric = result.config.extractor, result.config.metric
    save_params(ParamVector(result.global_params, ext, metric, result.prototypes.sha256()),
                out / "global.params")
    clients = zip(result.client_params, result.client_prototypes, strict=True)
    for k, (params, protos) in enumerate(clients):
        save_params(ParamVector(params, ext, metric, protos.sha256()),
                    out / f"client_{k:03d}.params")
    final = result.records[-1]
    summary = {
        "rounds": len(result.records),
        "final_gfl_accuracy": final.gfl_accuracy,
        "final_pfl_accuracy_mean": final.pfl_accuracy_mean,
        "final_train_loss_mean": final.train_loss_mean,
        "total_wall_time_sec": sum(r.wall_time_sec for r in result.records),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
