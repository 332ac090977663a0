"""Every layer the benchmark's traced run reports on still exists.

The traced benchmark run (bench/tracer.py) wraps each public function of the
hyperfl modules, plus ParamVector.__post_init__, and reports the per-layer
metrics that BENCHMARK.json names, such as ``learner.triplet_grad.calls``.  A
run that misses one of them is marked incorrect.  Checking the names here
makes a refactor that drops or renames a traced function fail in pytest
instead.  So does one that breaks the run's tiny-config check, which counts
one ``learner.triplet_grad`` call per client SGD step, or one that changes the
``learner.sample_negative`` count, one draw per step.  One test runs
bench/tracer.py itself on the tiny config, in a subprocess, as the traced
benchmark run does.  This module only reads BENCHMARK.json, bench/tracer.py
and bench/workloads.py.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hyperfl import learner
from hyperfl.federation import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULES = _bench_module("tracer").MODULES
# suffixes of the figures taken per traced function (ParamVector counts
# constructions); other three-part names, like prototypes.tammes.iterations,
# are figures derived from a function's result
FUNCTION_METRICS = ("calls", "self_s", "constructions")
# figures bench/run.py derives from aggregation.jsonl and wall times, not
# from the tracer's statistics
DERIVED = ("aggregation.min_norm_weights.iterations", "aggregation.min_norm_weights.budget_hits",
           "aggregation.pareto_gap_max", "trace.run_s", "trace.overhead_s")


def per_layer_names() -> list[str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"]]


def traced_functions() -> list[tuple[str, str]]:
    found = set()
    for name in per_layer_names():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in MODULES and parts[2] in FUNCTION_METRICS:
            found.add((parts[0], parts[1]))
    return sorted(found)


def test_names_cover_the_training_step():
    # guards against a metric naming scheme this module no longer parses
    assert ("learner", "triplet_grad") in traced_functions()
    assert ("params", "ParamVector") in traced_functions()


@pytest.mark.parametrize("module,attr", traced_functions())
def test_traced_function_exists(module, attr):
    mod = importlib.import_module(f"hyperfl.{module}")
    obj = getattr(mod, attr, None)
    if (module, attr) == ("params", "ParamVector"):
        assert inspect.isclass(obj) and inspect.isfunction(obj.__post_init__)
        return
    # the tracer wraps only public functions defined in the module itself
    assert not attr.startswith("_")
    assert inspect.isfunction(obj), f"hyperfl.{module}.{attr} is not a function"
    assert obj.__module__ == mod.__name__, f"hyperfl.{module}.{attr} is defined elsewhere"


@pytest.mark.parametrize(
    "name", [n for n in per_layer_names() if n.count(".") == 1 and n.endswith(".self_s")]
)
def test_module_totals_name_a_module(name):
    module = name.split(".")[0]
    assert module in MODULES
    importlib.import_module(f"hyperfl.{module}")


def test_one_triplet_grad_call_per_sgd_step(monkeypatch):
    # the tiny-config check of the traced run, without the tracer: training
    # and P-FL finetuning make one triplet_grad call per minibatch, and
    # local_train draws that step's negatives in one sample_negative call
    workloads = _bench_module("workloads")
    calls = {}

    def count(name):
        fn = getattr(learner, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(learner, name, counted)

    count("triplet_grad")
    count("sample_negative")
    res = run_experiment(ExperimentConfig.from_dict(workloads.TINY))
    shards = [(s.n_train, s.test is not None and s.test.size > 0) for s in res.shards]
    assert len(shards) == workloads.TINY["partition"]["num_clients"]
    assert calls["triplet_grad"] == workloads.expected_sgd_steps(workloads.TINY, shards) > 0
    assert calls["sample_negative"] == calls["triplet_grad"]


def test_traced_tiny_run_reports_every_layer(tmp_path):
    # bench/tracer.py on the tiny config, as the traced benchmark run starts
    # it: every per-layer function, count and module total is in its
    # statistics, and the solver budget is read from min_norm_weights
    workloads = _bench_module("workloads")
    config, stats_path, out = tmp_path / "tiny.json", tmp_path / "stats.json", tmp_path / "out"
    config.write_text(json.dumps(workloads.TINY), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(ROOT / "src"), str(stats_path),
         "run", "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert stats["min_norm_budget"] == 500
    functions, counts, modules = stats["functions"], stats["counts"], stats["modules"]
    missing = []
    for name in per_layer_names():
        head, _, last = name.rpartition(".")
        if head in functions and last in FUNCTION_METRICS:
            assert functions[head]["calls"] > 0, name
        elif last == "self_s" and head in modules or name in counts or name in DERIVED:
            continue
        else:
            missing.append(name)
    assert not missing
    entry = json.loads((out / "aggregation.jsonl").read_text().splitlines()[0])
    assert {"cu_iterations", "pareto_gap"} <= set(entry)
