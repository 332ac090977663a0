"""Output bytes do not depend on the process or the BLAS thread count.

The golden table checks bytes only on a host that has an entry.  These tests
build outputs three ways on any host: as two ``python -m hyperfl`` processes,
one with every thread variable the benchmark sets (``THREAD_VARS`` in
bench/run.py) at 1 and one with them at 2, and once in this process.  Every
file except the timed ones must have the same sha256 in all three.  A
threaded BLAS that splits a product differently at another thread count
shows up here.  The outputs are the golden ``TINY`` run, two of the
benchmark's workloads at master seed 0, their configs read from
bench/workloads.py: ``cross_device`` (K = 300 clients, the largest (K, K)
deviation Gram of any workload) and ``many_classes`` (B = 256 batches,
whose forward and backward products are the largest of any training step,
large enough for OpenBLAS to split them across threads), and a C=100, n=16
prototype file, whose (C, C) Gram and (C, C) @ (C, n) subgradient product
are the largest BLAS calls of set-up.
"""

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import golden
from hyperfl.federation import ExperimentConfig, run_experiment
from hyperfl.prototypes import build_prototypes, save_prototypes

ROOT = Path(__file__).resolve().parent.parent


def thread_vars() -> tuple[str, ...]:
    """THREAD_VARS of bench/run.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "THREAD_VARS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no THREAD_VARS")


def file_hashes(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name not in golden.SKIPPED_FILES
    }


def launch(args: list[str], threads: int) -> subprocess.Popen:
    """``python -m hyperfl *args`` with every thread variable at ``threads``."""
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **{v: str(threads) for v in thread_vars()})
    return subprocess.Popen([sys.executable, "-m", "hyperfl", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def wait(proc: subprocess.Popen) -> None:
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()


STREAMS = {"rounds.jsonl", "aggregation.jsonl", "prototypes.bin", "global.params"}


def run_everywhere(tmp_path: Path, config: dict) -> dict[str, str]:
    """``hyperfl run`` on ``config`` as two processes, at 1 and at 2 threads,
    and once in this process; every output file must hash the same in all
    three.  Returns the in-process hashes."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    procs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads_{threads}"
        procs[out] = launch(["run", "--config", str(path), "--out", str(out)], threads)
    run_experiment(ExperimentConfig.from_dict(config), out_dir=tmp_path / "in_process")
    in_process = file_hashes(tmp_path / "in_process")
    for out, proc in procs.items():
        wait(proc)
        assert file_hashes(out) == in_process, out.name
    return in_process


def test_bytes_match_across_processes_and_thread_counts(tmp_path):
    assert STREAMS <= set(run_everywhere(tmp_path, golden.TINY))


def workload_config(name: str) -> dict:
    """The benchmark's ``name`` workload at master seed 0, from bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.config(name, 0)


def test_cross_device_bytes_match_across_processes_and_thread_counts(tmp_path):
    config = workload_config("cross_device")
    assert config["partition"]["num_clients"] == 300
    assert STREAMS <= set(run_everywhere(tmp_path, config))


def test_many_classes_bytes_match_across_processes_and_thread_counts(tmp_path):
    config = workload_config("many_classes")
    assert config["batch_size"] == 256
    assert STREAMS <= set(run_everywhere(tmp_path, config))


def test_prototype_bytes_match_across_processes_and_thread_counts(tmp_path):
    c, n, slope, seed = 100, 16, 0.9, 0
    procs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads_{threads}.bin"
        procs[out] = launch(["protos", "--classes", str(c), "--dim", str(n), "--slope",
                             str(slope), "--seed", str(seed), "--out", str(out)], threads)
    in_process = tmp_path / "in_process.bin"
    save_prototypes(build_prototypes(c, n, slope, seed)[0], in_process)
    want = hashlib.sha256(in_process.read_bytes()).hexdigest()
    for out, proc in procs.items():
        wait(proc)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, out.name
