"""Benchmark for hyperfl, run from the root of a source checkout.

    python3 bench/run.py --workload desk --seed 0 --seconds 40 --trace 0 [--record FILE]
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

With ``--trace 0`` it runs `python -m hyperfl run` from ./src as separate
processes, one at a time, for ``--seconds`` (at least SEEDS_PER_RUN + 1
processes), cycling over the workload's configs, and reports the
end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` it runs
pairs of one untraced process and one traced process (bench/tracer.py) on
the first config and reports the per-layer metrics.  Every process's output
files are checked; the last stdout line is the JSON result.  ``--record``
appends the result with its environment to a JSONL file, which
``--compare`` reads.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUTPUTS = ("rounds.jsonl", "aggregation.jsonl", "prototypes.bin", "global.params")
MIN_PROCESSES = workloads.SEEDS_PER_RUN + 1  # every config once, the first twice
START_CUTOFF_S = 120.0  # start no process after this, whatever --seconds says
DEADLINE_S = 170.0  # kill a process still running this long after the benchmark began
MAX_FAILURES = 3  # a broken program fails fast; stop starting processes after this many
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class CheckError(Exception):
    """A run's outputs are missing or wrong."""


# ---------------------------------------------------------------- processes


def run_process(argv: list[str], log_dir: Path, timeout: float) -> dict:
    """Run one child to completion (killed after ``timeout`` seconds); wall
    time and peak RSS of that child only."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind, then re-raise
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "stdout": (log_dir / "stdout").read_text(encoding="utf-8", errors="replace"),
        "stderr": (log_dir / "stderr").read_text(encoding="utf-8", errors="replace"),
    }


def output_sha256(out: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    return h.hexdigest()


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def check_run(proc: dict, out: Path, cfg: dict) -> dict:
    """Validate one `hyperfl run`'s exit code and files; return what they say."""
    if proc["returncode"] != 0:
        tail = proc["stderr"].strip().splitlines()[-1:] or ["(no stderr)"]
        raise CheckError(f"exit code {proc['returncode']}: {tail[0][:300]}")
    try:
        rounds = _read_jsonl(out / "rounds.jsonl")
        timing = _read_jsonl(out / "timing.jsonl")
        agg = _read_jsonl(out / "aggregation.jsonl")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        printed = json.loads(proc["stdout"].strip().splitlines()[-1])
        sha = output_sha256(out)
    except (OSError, ValueError, IndexError) as exc:
        raise CheckError(f"unreadable outputs: {exc}") from exc
    n = cfg["rounds"]
    if not len(rounds) == len(timing) == len(agg) == n:
        raise CheckError(f"expected {n} rounds in every stream")
    clients = cfg["partition"]["num_clients"]
    for rec in rounds:
        if len(rec["pfl_accuracies"]) != clients:
            raise CheckError(f"round {rec['round']}: {len(rec['pfl_accuracies'])} P-FL entries")
        accs = [rec["gfl_accuracy"], rec["pfl_accuracy_mean"]]
        accs += [a for a in rec["pfl_accuracies"] if a is not None]
        if not all(0.0 <= a <= 1.0 for a in accs):
            raise CheckError(f"round {rec['round']}: accuracy outside [0, 1]")
    last = rounds[-1]
    for report in (summary, printed):
        if (report["rounds"] != n
                or report["final_gfl_accuracy"] != last["gfl_accuracy"]
                or report["final_pfl_accuracy_mean"] != last["pfl_accuracy_mean"]):
            raise CheckError("summary disagrees with the last line of rounds.jsonl")
    return {
        "sha": sha,
        "round_s": [t["wall_time_sec"] for t in timing],
        "gfl": last["gfl_accuracy"],
        "pfl": last["pfl_accuracy_mean"],
        "aggregation": agg,
    }


def write_config(cfg: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def hyperfl_argv(cfg_path: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "hyperfl", "run", "--config", str(cfg_path), "--out", str(out)]


def traced_argv(cfg_path: Path, out: Path, stats: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(SRC), str(stats),
            "run", "--config", str(cfg_path), "--out", str(out)]


# ----------------------------------------------------------------- statistics


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and that
    percentile; the maximum when there are too few samples."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# ----------------------------------------------------------------- workloads


class Runner:
    """One benchmark run of one workload: its processes, checks and figures."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seeds = workloads.config_seeds(seed)
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.sha: dict[str, str] = {}  # output_sha256 by config label
        self.lines: list[str] = []
        self.deadline = time.perf_counter() + DEADLINE_S

    def _run(self, argv: list[str], log_name: str) -> dict:
        return run_process(argv, self.work / log_name, self.deadline - time.perf_counter())

    def _keep_going(self, started: float, durations: list[float], minimum: int) -> bool:
        """Start another process unless the run would end more than half a
        process past --seconds (or past START_CUTOFF_S), or enough failed."""
        elapsed = time.perf_counter() - started
        if elapsed > START_CUTOFF_S or len(self.failures) >= MAX_FAILURES:
            return False
        if len(durations) < minimum:
            return True
        return elapsed + statistics.median(durations) / 2 < self.seconds

    def _checked(self, proc: dict, out: Path, cfg: dict, label: str) -> dict | None:
        """check_run plus the same-config byte check; None (and a failure) if bad."""
        self.attempted += 1
        try:
            info = check_run(proc, out, cfg)
            if info["sha"] != self.sha.setdefault(label, info["sha"]):
                raise CheckError("outputs differ from the first run of this config")
        except CheckError as exc:
            self.failures.append(f"{label}: {exc}")
            return None
        return info

    def end_to_end(self) -> dict:
        cfgs = [workloads.config(self.workload, s) for s in self.seeds]
        paths = [write_config(c, self.work / f"config_{c['seed']}.json") for c in cfgs]
        runs, acc, durations = [], {}, []
        started = time.perf_counter()
        i = 0
        while self._keep_going(started, durations, MIN_PROCESSES):
            cfg, cfg_path = cfgs[i % len(cfgs)], paths[i % len(cfgs)]
            out = self.work / f"run_{i}"
            proc = self._run(hyperfl_argv(cfg_path, out), f"log_{i}")
            durations.append(proc["wall_s"])
            info = self._checked(proc, out, cfg, f"seed {cfg['seed']}")
            shutil.rmtree(out, ignore_errors=True)
            i += 1
            if info is None:
                continue
            runs.append({**proc, **info})
            acc.setdefault(cfg["seed"], (info["gfl"], info["pfl"]))
        if not runs:
            return {}
        rounds = [t for r in runs for t in r["round_s"]]
        tail_s, tail_pct = tail(rounds)
        values = {
            "run_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(r["wall_s"] - sum(r["round_s"]) for r in runs),
            # Rounds last ~0.1 s while the host's speed swings for seconds at a
            # time, so pooled round times are bimodal and their median jumps
            # between modes; a median over processes of the mean round does not.
            "round_p50_s": statistics.median(statistics.fmean(r["round_s"]) for r in runs),
            "round_tail_s": tail_s,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
            "final_gfl_acc": statistics.median(a[0] for a in acc.values()),
            "final_pfl_acc": statistics.median(a[1] for a in acc.values()),
        }
        self.lines += [
            f"processes: {len(runs)} of {self.attempted} passed the output checks; "
            f"configs (master seeds) {self.seeds}",
            f"run_s, setup_s, round_p50_s, peak_rss_mb: median of {len(runs)} processes",
            f"round_tail_s: p{tail_pct:.1f} of {len(rounds)} rounds",
            f"final_*_acc: median over {len(acc)} configs of the last round",
        ]
        return values

    def traced(self) -> dict:
        self._tiny_step_check()
        cfg = workloads.config(self.workload, self.seeds[0])
        cfg_path = write_config(cfg, self.work / "config.json")
        pairs, durations = [], []
        started = time.perf_counter()
        i = 0
        while self._keep_going(started, durations, 1):
            out, t_out = self.work / f"plain_{i}", self.work / f"traced_{i}"
            stats_path = self.work / f"stats_{i}.json"
            plain = self._run(hyperfl_argv(cfg_path, out), f"log_plain_{i}")
            plain_info = self._checked(plain, out, cfg, f"seed {cfg['seed']}")
            traced = self._run(traced_argv(cfg_path, t_out, stats_path), f"log_traced_{i}")
            durations.append(plain["wall_s"] + traced["wall_s"])
            traced_info = self._checked(traced, t_out, cfg, f"seed {cfg['seed']}")
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(t_out, ignore_errors=True)
            i += 1
            if plain_info is None or traced_info is None:
                continue
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            pairs.append((plain, traced, traced_info, stats))
        if not pairs:
            return {}
        first = pairs[0][3]
        for _, _, _, stats in pairs[1:]:
            calls = {n: f["calls"] for n, f in stats["functions"].items()}
            if calls != {n: f["calls"] for n, f in first["functions"].items()} \
                    or stats["counts"] != first["counts"]:
                self.failures.append("traced call counts differ between runs of one config")
        values = self._layer_values(pairs)
        overhead = values["trace.overhead_s"] / (values["trace.run_s"] - values["trace.overhead_s"])
        self.lines += [
            f"traced pairs: {len(pairs)}; self times are medians over traced runs",
            f"tracing overhead: {values['trace.overhead_s']:.4f} s "
            f"({100 * overhead:.1f}% of the untraced run_s)",
            f"spans per traced run: {first['spans']}",
            "module self times (s): " + ", ".join(
                f"{m} {values[m + '.self_s']:.4f}" for m in first["modules"]),
        ]
        return values

    def _layer_values(self, pairs) -> dict:
        """Every per-layer figure by metric name: counts from the first
        traced run, times as medians over the traced runs."""
        _, _, info0, stats0 = pairs[0]
        traced_stats = [p[3] for p in pairs]
        values: dict[str, float] = dict(stats0["counts"])
        for name, f in stats0["functions"].items():
            calls_key = "constructions" if name == "params.ParamVector" else "calls"
            values[f"{name}.{calls_key}"] = f["calls"]
            values[f"{name}.self_s"] = statistics.median(
                st["functions"][name]["self_s"] for st in traced_stats)
        for m in stats0["modules"]:
            values[f"{m}.self_s"] = statistics.median(st["modules"][m] for st in traced_stats)
        iters = [entry["cu_iterations"] for entry in info0["aggregation"]]
        gaps = [e["pareto_gap"] for e in info0["aggregation"] if e["pareto_gap"] is not None]
        values["aggregation.min_norm_weights.iterations"] = sum(iters)
        values["aggregation.min_norm_weights.budget_hits"] = sum(
            it >= stats0["min_norm_budget"] for it in iters)
        values["aggregation.pareto_gap_max"] = max(gaps, default=0.0)
        traced_s = statistics.median(p[1]["wall_s"] - p[3]["postprocess_s"] for p in pairs)
        values["trace.run_s"] = traced_s
        values["trace.overhead_s"] = traced_s - statistics.median(p[0]["wall_s"] for p in pairs)
        return values

    def _tiny_step_check(self) -> None:
        """Traced triplet_grad calls must equal the SGD steps the shard sizes imply."""
        cfg = workloads.TINY
        cfg_path = write_config(cfg, self.work / "tiny.json")
        out, stats_path = self.work / "tiny_out", self.work / "tiny_stats.json"
        proc = self._run(traced_argv(cfg_path, out, stats_path), "log_tiny")
        if self._checked(proc, out, cfg, "tiny config") is None:
            return
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        expected = workloads.expected_sgd_steps(cfg, stats["shards"])
        calls = stats["functions"]["learner.triplet_grad"]["calls"]
        self.lines.append(f"tiny config: triplet_grad calls {calls}, expected {expected}")
        if calls != expected or len(stats["shards"]) != cfg["partition"]["num_clients"]:
            self.failures.append(f"tiny config: {calls} triplet_grad calls, expected {expected}")


# ---------------------------------------------------------------- environment


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            commit = rev.stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "commit": commit,
        "platform": platform.platform(),
    }


# -------------------------------------------------------------------- compare


def _pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs by seed where both sides have it, else by position."""
    by_seed = {r["seed"]: r for r in change}
    matched = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    return matched or list(zip(parent, change))


def _load_records(path: str) -> list[dict]:
    """The end-to-end records of a --record file."""
    records = map(json.loads, Path(path).read_text(encoding="utf-8").splitlines())
    return [r for r in records if r["trace"] == 0]


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """Medians, quartiles, pairwise wins and a verdict per workload and metric."""
    parent, change = _load_records(parent_path), _load_records(change_path)
    print(f"{'workload':<14}{'metric':<15}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
          f"{'wins':>9}  verdict")
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        ps = sorted((r for r in parent if r["workload"] == workload), key=lambda r: r["seed"])
        cs = sorted((r for r in change if r["workload"] == workload), key=lambda r: r["seed"])
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            pv = [r["result"]["metrics"][name]["value"] for r in ps]
            cv = [r["result"]["metrics"][name]["value"] for r in cs]
            pq, cq = quartiles(pv), quartiles(cv)
            pairs = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                     for p, c in _pairs(ps, cs)]
            wins = sum(sign * (c - p) < 0 for p, c in pairs)
            worse = sign * (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (pq, cq))
            all_better = all(sign * (c - p) < 0 for c in cv for p in pv)
            if wins >= 0.9 * len(pairs) and sign * (pq[1] - cq[1]) > pq[2] - pq[0]:
                verdict = "gain"
            elif spread > bound and not all_better:
                verdict = f"unresolved (spread {spread:.3f} > bound {bound})"
            elif worse > bound:
                verdict = f"regression ({100 * worse:+.1f}% > {100 * bound:.0f}%)"
            else:
                verdict = f"within bound ({100 * worse:+.1f}%)"
            print(f"{workload:<14}{name:<15}{_fmt(pq):>30}{_fmt(cq):>30}"
                  f"{f'{wins}/{len(pairs)}':>9}  {verdict}")
        same = [p["output_sha256"] == c["output_sha256"] for p, c in _pairs(ps, cs)]
        print(f"{workload:<14}output bytes: {sum(same)}/{len(same)} paired runs identical")
    return 0


# ----------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result and environment to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --record files")
    args = parser.parse_args()
    if not SPEC_PATH.is_file():
        print(f"error: run from the repository root; no {SPEC_PATH.name} here", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hyperfl" / "__init__.py").is_file():
        print(f"error: no hyperfl sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / str(os.getpid())
    runner = Runner(args.workload, args.seed, args.seconds, work)
    try:
        values = runner.traced() if args.trace else runner.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metrics_spec if m["name"] in values}
    env = environment()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env))
    for line in runner.lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    for label, sha in runner.sha.items():
        print(f"output_sha256 {label}: {sha}")
    failed = len(runner.failures)
    print(f"failed_runs: {failed}/{runner.attempted}"
          f" ({100 * failed / max(runner.attempted, 1):.1f}%)")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": failed == 0 and len(metrics) == len(metrics_spec),
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": env,
                  "output_sha256": runner.sha.get(f"seed {runner.seeds[0]}"), "result": result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if len(metrics) == len(metrics_spec) else 1


if __name__ == "__main__":
    sys.exit(main())
