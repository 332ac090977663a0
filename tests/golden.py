"""Golden output table: sha256 of every output file of a few small runs.

The program's contract is determinism: one config and seed give the same
bytes.  ``golden_outputs.json`` holds, per environment fingerprint (numpy
version, BLAS name and version, machine), the sha256 of every file each
config in ``CONFIGS`` writes, except ``timing.jsonl`` and ``summary.json``,
which carry wall-clock times.  ``test_golden_outputs.py`` checks the table;
a change that moves the bytes on purpose regenerates it with

    PYTHONPATH=src python tests/golden.py

which rewrites this host's entry and prints every file whose hash moved, so
the declared stream change shows up as a diff of the table.
"""

from __future__ import annotations

import hashlib
import json
import logging
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from hyperfl.federation import VARIANTS, ExperimentConfig, run_experiment

TABLE = Path(__file__).resolve().parent / "golden_outputs.json"
SKIPPED_FILES = ("timing.jsonl", "summary.json")

# the tiny config of test_public_api: three clients, equal epochs (carried P-FL)
TINY = {
    "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 4, "per_class": 20},
    "partition": {"num_clients": 3, "alpha": 0.5},
    "extractor": {"input_dim": 4, "hidden": [6], "output_dim": 2},
    "triplet": {},
    "rounds": 2,
    "local_epochs": 1,
    "batch_size": 16,
    "finetune_epochs": 1,
}

# name -> (config dict, variant or None)
CONFIGS = {
    "tiny": (TINY, None),
    **{f"tiny_{v}": (TINY, v) for v in VARIANTS},
    "tiny_euclidean": ({**TINY, "metric": "euclidean"}, None),
    # the other activations: each keeps the bytes of its forward and backward pass
    **{f"tiny_{act}": ({**TINY, "extractor": {**TINY["extractor"], "activation": act}}, None)
       for act in ("relu", "identity")},
    # 40 clients over 90 samples: many one-sample pools, which get no test split
    "many_clients": ({
        **TINY,
        "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 4, "per_class": 30},
        "partition": {"num_clients": 40, "alpha": 0.3},
    }, None),
    # 12 equal shards (5 train, 1 test each) with per-client prototype sets:
    # every client shares its split sizes with all others
    "many_clients_fixed_only": ({
        **TINY,
        "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 4, "per_class": 30},
        "partition": {"num_clients": 12, "alpha": 100.0},
    }, "fixed_only"),
    # three rounds, so carried and retrained local models both feed two aggregations
    "equal_epochs": ({**TINY, "rounds": 3, "local_epochs": 2, "finetune_epochs": 2}, None),
    "unequal_epochs": ({**TINY, "rounds": 3, "local_epochs": 2, "finetune_epochs": 1}, None),
    # C=5 in n=4: how the Tammes subgradient rounds reaches the prototype
    # bytes here; the C=3 configs above happen not to show it
    "five_classes": ({
        **TINY,
        "dataset": {"kind": "synthetic", "num_classes": 5, "dim": 4, "per_class": 20},
        "extractor": {"input_dim": 4, "hidden": [6], "output_dim": 4},
    }, None),
    # two negatives per sample: a sample whose hinge is active in both rounds
    # sums its two gradient terms in round-major order
    "two_negatives": ({**TINY, "triplet": {"negatives_per_sample": 2}}, None),
}


def fingerprint() -> str:
    """numpy version, BLAS name and version, and machine of this host; the
    machine includes the SIMD extensions found at run time, which pick the
    BLAS and numpy kernels."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = ",".join(config["SIMD Extensions"]["found"])
    return (f"numpy {np.__version__} | blas {blas.get('name')} {blas.get('version')} "
            f"| {platform.machine()} {simd}")


def output_hashes(name: str, tmp: Path) -> dict[str, str]:
    """sha256 of every file one config writes, except the timed ones."""
    config, variant = CONFIGS[name]
    cfg = ExperimentConfig.from_dict(config)
    out = tmp / name
    run_experiment(cfg, variant, out_dir=out)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name not in SKIPPED_FILES
    }


def all_hashes() -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: output_hashes(name, Path(tmp)) for name in CONFIGS}


def load_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}


def moved_files(old: dict, new: dict) -> list[str]:
    """``config/file`` of every hash that differs, appears or disappears."""
    return sorted(
        f"{name}/{file}"
        for name in old.keys() | new.keys()
        for file in old.get(name, {}).keys() | new.get(name, {}).keys()
        if old.get(name, {}).get(file) != new.get(name, {}).get(file)
    )


def main() -> int:
    logging.disable(logging.WARNING)  # the runs' notes on tiny client pools
    table = load_table()
    key = fingerprint()
    new = all_hashes()
    print(f"fingerprint: {key}")
    if key in table:
        moved = moved_files(table[key], new)
        print(f"{len(moved)} file hashes moved" + "".join(f"\n  {m}" for m in moved))
    else:
        print(f"new entry: {sum(map(len, new.values()))} files over {len(new)} configs")
    table[key] = new
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
