"""Workload configs for the hyperfl benchmark.

Each workload is a `hyperfl run` config file (JSON mirroring
ExperimentConfig) minus its master ``seed``.  One benchmark run with
``--seed S`` runs SEEDS_PER_RUN configs, with master seeds
S * SEEDS_PER_RUN + i, so that an end-to-end figure is a mix over several
datasets and partitions rather than one draw of them.

Why each workload exists (see README.md for the layer each one stresses):

* ``desk``: the paper's calibrated desk-scale run (acceptance criterion 7).
  Bound by per-step overhead on batches of at most 128 samples.
* ``cross_device``: 300 tiny clients (1 to ~20 samples each).  Per-client
  dispatch, the K x K Gram loop and the capped min-norm solver dominate;
  some clients have no local test split.
* ``many_classes``: 100 classes and 4 negatives per sample.  The learner is
  kernel-bound on 256 x 100 distance matrices, and Tammes at C=100 makes
  set-up the heaviest of the three.
"""

from __future__ import annotations

SEEDS_PER_RUN = 5

_COMMON = {
    "slope": 0.9,
    "aggregator": "consistent",
    "prototype_mode": "tammes_fixed",
    "metric": "geodesic",
    "finetune_steps": None,
    "global_test_fraction": 0.2,
    "train_fraction": 0.75,
}

WORKLOADS = {
    "desk": {
        **_COMMON,
        "dataset": {"kind": "synthetic", "num_classes": 5, "dim": 16, "per_class": 500,
                    "spread": 0.15, "hierarchy_depth": 2},
        "partition": {"num_clients": 10, "alpha": 0.5, "seed": 0},
        "extractor": {"input_dim": 16, "hidden": [32], "output_dim": 4,
                      "activation": "tanh", "init_seed": 0},
        "triplet": {"margin": 3.0, "negatives_per_sample": 1, "seed": 0},
        "rounds": 30,
        "lr": 0.3,
        "local_epochs": 5,
        "batch_size": 128,
        "finetune_epochs": 5,
    },
    "cross_device": {
        **_COMMON,
        "dataset": {"kind": "synthetic", "num_classes": 10, "dim": 16, "per_class": 300,
                    "spread": 0.15, "hierarchy_depth": 2},
        "partition": {"num_clients": 300, "alpha": 0.1, "seed": 0},
        "extractor": {"input_dim": 16, "hidden": [64], "output_dim": 8,
                      "activation": "tanh", "init_seed": 0},
        "triplet": {"margin": 3.0, "negatives_per_sample": 1, "seed": 0},
        "rounds": 5,
        "lr": 0.3,
        "local_epochs": 2,
        "batch_size": 32,
        "finetune_epochs": 2,
    },
    "many_classes": {
        **_COMMON,
        "dataset": {"kind": "synthetic", "num_classes": 100, "dim": 32, "per_class": 60,
                    "spread": 0.05, "hierarchy_depth": 1},
        "partition": {"num_clients": 10, "alpha": 0.5, "seed": 0},
        "extractor": {"input_dim": 32, "hidden": [64], "output_dim": 16,
                      "activation": "tanh", "init_seed": 0},
        "triplet": {"margin": 3.0, "negatives_per_sample": 4, "seed": 0},
        "rounds": 6,
        "lr": 1.0,
        "local_epochs": 3,
        "batch_size": 256,
        "finetune_epochs": 3,
    },
}

# Small enough that the expected number of SGD steps is quick to check by
# hand; alpha=0.3 over 6 clients leaves some pools with a single instance.
TINY = {
    **_COMMON,
    "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 4, "per_class": 12,
                "spread": 0.2, "hierarchy_depth": 0},
    "partition": {"num_clients": 6, "alpha": 0.3, "seed": 0},
    "extractor": {"input_dim": 4, "hidden": [8], "output_dim": 2,
                  "activation": "tanh", "init_seed": 0},
    "triplet": {"margin": 3.0, "negatives_per_sample": 2, "seed": 0},
    "rounds": 2,
    "lr": 0.3,
    "local_epochs": 3,
    "batch_size": 4,
    "finetune_epochs": 2,
    "seed": 0,
}


def config_seeds(seed: int) -> list[int]:
    """Master seeds of the configs one benchmark run uses."""
    return [seed * SEEDS_PER_RUN + i for i in range(SEEDS_PER_RUN)]


def config(workload: str, master_seed: int) -> dict:
    return {**WORKLOADS[workload], "seed": master_seed}


def expected_sgd_steps(cfg: dict, shards: list[tuple[int, bool]]) -> int:
    """triplet_grad calls a run makes: per round, local_epochs passes over
    every client's train split plus finetune_epochs passes for each client
    that has a local test split (the P-FL finetune)."""
    b = cfg["batch_size"]
    per_round = 0
    for n_train, has_test in shards:
        batches = -(-n_train // b)
        per_round += cfg["local_epochs"] * batches
        if has_test:
            per_round += cfg["finetune_epochs"] * batches
    return cfg["rounds"] * per_round
