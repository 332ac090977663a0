"""Per-module span tracing for one `hyperfl run`, from outside the package.

Run as a child process:

    python3 bench/tracer.py SRC_DIR STATS_JSON run --config CFG --out DIR

It imports hyperfl from SRC_DIR, replaces the public functions of each
module (and ParamVector.__post_init__) with wrappers that record a span
(name, start, end, parent) and a few work counts, calls hyperfl.cli.main
in-process with the remaining arguments, and writes per-name statistics to
STATS_JSON.  Spans stay in memory until main returns.  A span's self time is
its duration minus the durations of its child spans.  The program under
src/ is not modified; `from x import f` references are rebound too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "federation", "data", "prototypes", "learner", "poincare", "params",
           "aggregation")

# ParamVector is built on every SGD step; its constructions are counted via
# the dataclass __post_init__ hook, under this span name.
PARAM_VECTOR = "params.ParamVector"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, float] = defaultdict(int)
        self.shards: list[tuple[int, bool]] = []
        self.names: list[str] = []  # every wrapped function, called or not
        self.min_norm_budget = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, on_return=None):
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    # Work counts, taken where the work happens.

    def _triplet_grad(self, args, kwargs, result):
        self.counts["learner.triplet_grad.samples"] += len(_arg(args, kwargs, 2, "x"))

    def _distance_to_set(self, args, kwargs, result):
        self.counts["poincare.distance_to_set_arr.pairs"] += result.size

    def _save_params(self, args, kwargs, result):
        size = Path(_arg(args, kwargs, 1, "path")).stat().st_size
        self.counts["params.save_params.bytes"] += size

    def _optimize_prototypes(self, args, kwargs, result):
        w, report = result
        c = w.shape[0]
        self.counts["prototypes.tammes.iterations"] += report.iterations
        self.counts["prototypes.tammes.converged"] += int(report.converged)
        excess = report.max_pairwise_cosine + 1.0 / (c - 1)
        key = "prototypes.tammes.cosine_excess"
        self.counts[key] = max(self.counts.get(key, excess), excess)

    def _split_local(self, args, kwargs, shard):
        has_test = shard.test is not None and shard.test.size > 0
        self.shards.append((shard.n_train, has_test))

    def install(self) -> None:
        hooks = {
            "learner.triplet_grad": self._triplet_grad,
            "poincare.distance_to_set_arr": self._distance_to_set,
            "params.save_params": self._save_params,
            "prototypes.optimize_prototypes": self._optimize_prototypes,
            "data.split_local": self._split_local,
        }
        pkg = importlib.import_module("hyperfl")
        mods = {m: importlib.import_module(f"hyperfl.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        pv = mods["params"].ParamVector
        pv.__post_init__ = self.wrap(PARAM_VECTOR, pv.__post_init__)
        solver = inspect.signature(mods["aggregation"].min_norm_weights)
        self.min_norm_budget = solver.parameters["max_iters"].default

    def stats(self) -> dict:
        """Per-name calls, total and self seconds, per-module self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i, (name, start, end, _) in enumerate(self.spans):
            s = per_name[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        modules = {m: 0.0 for m in MODULES}
        for name, s in per_name.items():
            modules[name.split(".", 1)[0]] += s["self_s"]
        return {
            "spans": len(self.spans),
            "functions": per_name,
            "modules": modules,
            "counts": dict(self.counts),
            "shards": self.shards,
            "min_norm_budget": self.min_norm_budget,
        }


def main(argv: list[str]) -> int:
    src, stats_path, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    tracer = Tracer()
    tracer.install()
    from hyperfl import cli

    rc = cli.main(cli_args)
    t0 = time.perf_counter()
    stats = tracer.stats()
    # time spent here is not part of the traced run; the parent subtracts it
    stats["postprocess_s"] = time.perf_counter() - t0
    Path(stats_path).write_text(json.dumps(stats), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
