"""Output bytes do not depend on the process or the BLAS thread count.

The golden table checks bytes only on a host that has an entry.  These tests
build outputs three ways on any host: as two ``python -m hyperfl`` processes,
one with every thread variable the benchmark sets (``THREAD_VARS`` in
bench/run.py) at 1 and one with them at 2, and once in this process.  Every
file except the timed ones must have the same sha256 in all three.  A
threaded BLAS that splits a product differently at another thread count
shows up here.  The outputs are the golden ``TINY`` run and a C=100, n=16
prototype file, whose (C, C) Gram and (C, C) @ (C, n) subgradient product
are the largest BLAS calls of set-up.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import golden
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


def test_bytes_match_across_processes_and_thread_counts(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(golden.TINY), encoding="utf-8")
    procs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads_{threads}"
        procs[out] = launch(["run", "--config", str(config), "--out", str(out)], threads)
    in_process = golden.output_hashes("tiny", tmp_path)
    for out, proc in procs.items():
        wait(proc)
        assert file_hashes(out) == in_process, out.name
    streams = {"rounds.jsonl", "aggregation.jsonl", "prototypes.bin", "global.params"}
    assert streams <= set(in_process)


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
