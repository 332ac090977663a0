"""Output bytes do not depend on the process or the BLAS thread count.

The golden table checks bytes only on a host that has an entry.  This test
runs the golden ``TINY`` config three ways on any host: as two
``python -m hyperfl run`` processes, one with every thread variable the
benchmark sets (``THREAD_VARS`` in bench/run.py) at 1 and one with them at
2, and once in this process.  Every file except the timed ones must have the
same sha256 in all three.  A threaded BLAS that splits a product differently
at another thread count shows up here.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import golden

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


def test_bytes_match_across_processes_and_thread_counts(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(golden.TINY), encoding="utf-8")
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    names = thread_vars()
    procs = {}
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=pythonpath, **{v: str(threads) for v in names})
        out = tmp_path / f"threads_{threads}"
        argv = [sys.executable, "-m", "hyperfl", "run", "--config", str(config),
                "--out", str(out)]
        procs[out] = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE)
    in_process = golden.output_hashes("tiny", tmp_path)
    for out, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert file_hashes(out) == in_process, out.name
    streams = {"rounds.jsonl", "aggregation.jsonl", "prototypes.bin", "global.params"}
    assert streams <= set(in_process)
