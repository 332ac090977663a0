"""Every setting changes the run: a guard against dead config fields.

For each leaf of a small config's ``to_dict()``, a run with that one value
changed to another valid one must write different bytes to at least one of
the deterministic outputs.  ``manifest.json`` is not compared: it echoes
every field, so it changes whatever the field does.  A field that no run
reads fails here; a field with no known other value fails too, and gets one
in ``other_value``.
"""

import copy
import json

import pytest

from hyperfl.data import make_synthetic, save_dataset
from hyperfl.federation import ExperimentConfig, run_experiment

OUTPUTS = ("rounds.jsonl", "aggregation.jsonl", "prototypes.bin", "global.params")

# two rounds with equal local and finetune epochs: round 1 aggregates carried
# P-FL models
BASE = json.loads(json.dumps(ExperimentConfig.from_dict({
    "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 4, "per_class": 20},
    "partition": {"num_clients": 3, "alpha": 0.5},
    "extractor": {"input_dim": 4, "hidden": [6], "output_dim": 2},
    "triplet": {},
    "rounds": 2,
    "local_epochs": 1,
    "batch_size": 16,
    "finetune_epochs": 1,
}).to_dict()))

# the run refuses an extractor whose input_dim is not the dataset's dim, so
# neither can change alone: each one's perturbation moves both
LINKED = {"dataset.dim": "extractor.input_dim", "extractor.input_dim": "dataset.dim"}


def leaves(d: dict, prefix: str = ""):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def get(d: dict, name: str):
    for key in name.split("."):
        d = d[key]
    return d


def put(d: dict, name: str, value) -> None:
    *sections, key = name.split(".")
    for section in sections:
        d = d[section]
    d[key] = value


def other_value(name: str, value):
    """A valid value different from ``value``."""
    if isinstance(value, str):
        alternatives = {"extractor.activation": "relu", "metric": "euclidean"}
        if name not in alternatives:
            pytest.fail(f"no other value known for {name}")
        return alternatives[name]
    if isinstance(value, list):
        return [v + 1 for v in value]
    if isinstance(value, int):
        return value + 1
    return value / 2


def outputs(d: dict, out) -> dict:
    run_experiment(ExperimentConfig.from_dict(d), out_dir=out)
    return {name: (out / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="module")
def base_outputs(tmp_path_factory):
    return outputs(BASE, tmp_path_factory.mktemp("base"))


@pytest.mark.parametrize("name", list(leaves(BASE)))
def test_setting_changes_the_outputs(name, base_outputs, tmp_path):
    d = copy.deepcopy(BASE)
    if name == "dataset.kind":
        # the other kind is a dataset file, here one with other instances
        path = tmp_path / "data.txt"
        save_dataset(make_synthetic(3, 4, per_class=20, spread=0.1, seed=1), path)
        d["dataset"] = {"kind": "file", "path": str(path)}
    else:
        for field in (name, LINKED[name]) if name in LINKED else (name,):
            put(d, field, other_value(field, get(d, field)))
    changed = outputs(d, tmp_path / "run")
    assert [f for f in OUTPUTS if changed[f] != base_outputs[f]], f"{name} changes no output"
