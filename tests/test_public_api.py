"""Every public function and method of the package runs in a real run.

The test drives ``hyperfl.cli.main`` in-process through every command on a
tiny config (``run`` plus each ``--variant``, a Euclidean-metric run,
``protos``, ``partition``, and ``eval`` of the full and the Euclidean run)
under ``sys.setprofile`` and collects the code objects that were called.  A
public name, or a private module-level function, that none of these reaches
is code that only tests use: it belongs in ``tests/``, not ``src/``.
"""

import importlib
import inspect
import json
import pkgutil
import sys

import pytest

import hyperfl
from hyperfl import cli, data, federation

# the only public names allowed to run under tests alone, with the reason
ALLOWED_UNCALLED = {}

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


def module_members(unwrap=True):
    """(module short name, attribute, object) of everything a hyperfl module
    defines itself; a cached function stands for the function it wraps
    unless ``unwrap`` is False."""
    for info in pkgutil.iter_modules(hyperfl.__path__):
        mod = importlib.import_module(f"hyperfl.{info.name}")
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) == mod.__name__:
                yield info.name, attr, inspect.unwrap(obj) if unwrap else obj


def private_functions() -> dict:
    """Qualified name -> code object of every private module-level function."""
    return {
        f"{module}.{attr}": obj.__code__
        for module, attr, obj in module_members()
        if attr.startswith("_") and not attr.startswith("__") and inspect.isfunction(obj)
    }


def public_code() -> dict:
    """Qualified name -> code object of every public function, method and
    property defined in a hyperfl module."""
    found = {}
    for module, attr, obj in module_members():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj):
            found[f"{module}.{attr}"] = obj.__code__
        elif inspect.isclass(obj):
            for meth, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)  # static/classmethod
                if not meth.startswith("_") and inspect.isfunction(member):
                    found[f"{module}.{attr}.{meth}"] = member.__code__
    return found


def cli_commands(tmp_path) -> list[list[str]]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY), encoding="utf-8")
    flat = tmp_path / "euclidean.json"
    flat.write_text(json.dumps({**TINY, "metric": "euclidean"}), encoding="utf-8")
    dataset = tmp_path / "data.txt"
    data.save_dataset(data.make_synthetic(3, 4, per_class=10, spread=0.1, seed=1), dataset)
    runs = [["run", "--config", str(config), "--out", str(tmp_path / "full")]]
    runs += [
        ["run", "--config", str(config), "--variant", variant, "--out", str(tmp_path / variant)]
        for variant in federation.VARIANTS
    ]
    runs.append(["run", "--config", str(flat), "--out", str(tmp_path / "euclidean")])
    return runs + [
        ["protos", "--classes", "3", "--dim", "2", "--out", str(tmp_path / "protos.bin")],
        ["partition", "--data", str(dataset), "--clients", "2", "--alpha", "0.5",
         "--out", str(tmp_path / "parts")],
    ] + [
        ["eval", "--checkpoint", str(tmp_path / run / "global.params"),
         "--data", str(dataset), "--protos", str(tmp_path / run / "prototypes.bin")]
        for run in ("full", "euclidean")
    ]


@pytest.fixture(scope="module")
def called_code(tmp_path_factory) -> set:
    """Code objects called while every CLI command runs."""
    commands = cli_commands(tmp_path_factory.mktemp("cli"))
    # a cached function runs its body only on a miss, and earlier tests may
    # have filled the cache: start from empty caches
    for _, _, obj in module_members(unwrap=False):
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(commands)
    return called


def test_every_public_name_runs_from_the_cli(called_code):
    uncalled = sorted(name for name, code in public_code().items() if code not in called_code)
    assert uncalled == sorted(ALLOWED_UNCALLED)


def test_every_private_function_runs_from_the_cli(called_code):
    # a helper that a refactor leaves callable only from tests
    functions = private_functions()
    assert functions  # the walk sees private names at all
    assert sorted(name for name, code in functions.items() if code not in called_code) == []


def test_main_module_imports_without_running():
    # `python -m hyperfl` runs the CLI; a plain import (pydoc, module walkers)
    # must not
    module = importlib.import_module("hyperfl.__main__")
    assert module.main is cli.main
