"""Command-line entry points.

    hyperfl run       --config cfg.json [--seed N] [--out DIR] [--variant NAME]
    hyperfl eval      --checkpoint FILE --data FILE --protos FILE
    hyperfl protos    --classes C --dim N --slope S --out FILE [--seed N]
    hyperfl partition --data FILE --clients K --alpha A --out DIR [--seed N]

The config file is JSON mirroring ExperimentConfig field for field (see
README for a full example).  ``eval`` takes the extractor architecture and
the metric from the checkpoint (``params.load_params`` checks its header),
and refuses a prototype file whose sha256 differs from the one the header
records and a dataset whose dimension or class count does not fit.  On
failure a machine-readable error record is printed to stderr and the exit
code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from hyperfl import data as data_mod
from hyperfl import federation, prototypes
from hyperfl.params import load_params


def _cmd_run(args) -> int:
    try:
        cfg_dict = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{args.config}: config is not JSON: {exc}") from exc
    cfg = federation.ExperimentConfig.from_dict(cfg_dict)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result = federation.run_experiment(cfg, args.variant, out_dir=args.out)
    final = result.records[-1]
    print(
        json.dumps(
            {
                "rounds": len(result.records),
                "final_gfl_accuracy": final.gfl_accuracy,
                "final_pfl_accuracy_mean": final.pfl_accuracy_mean,
                "out": args.out,
            }
        )
    )
    return 0


def _cmd_eval(args) -> int:
    params = load_params(args.checkpoint)
    protos = prototypes.load_prototypes(args.protos)
    if protos.sha256() != params.prototypes_sha256:
        raise ValueError(f"{args.protos}: sha256 differs from 'model.prototypes_sha256' "
                         f"in {args.checkpoint}")
    ds = data_mod.load_dataset(args.data)
    ext = params.extractor
    if ds.dim != ext.input_dim:
        raise ValueError(f"{args.data}: dimension {ds.dim} != 'model.input_dim' {ext.input_dim}")
    if ds.num_classes != protos.num_classes:
        raise ValueError(f"{args.data}: {ds.num_classes} classes, but {args.protos} "
                         f"holds {protos.num_classes} prototypes")
    acc = federation.evaluate_gfl(params.values, ext, protos, ds, metric=params.metric)
    print(json.dumps({"accuracy": acc, "instances": ds.size}))
    return 0


def _cmd_protos(args) -> int:
    out = Path(args.out)
    # an unusable path fails before the optimizer runs
    if not out.parent.is_dir():
        raise NotADirectoryError(f"{out}: {out.parent} is not an existing directory")
    if out.is_dir():
        raise IsADirectoryError(f"{out} is a directory")
    protos, report = prototypes.build_prototypes(
        c=args.classes, n=args.dim, slope=args.slope, seed=args.seed
    )
    prototypes.save_prototypes(protos, out)
    print(
        json.dumps(
            {
                "classes": protos.num_classes,
                "dim": protos.dim,
                "slope": protos.slope,
                "max_pairwise_cosine": report.max_pairwise_cosine,
                "converged": report.converged,
                "out": args.out,
            }
        )
    )
    return 0


def _cmd_partition(args) -> int:
    out = Path(args.out)
    # an unusable path fails before any work: the nearest of out and its
    # ancestors that exists must be a directory
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(f"{out}: {nearest} is not a directory")
    ds = data_mod.load_dataset(args.data)
    spec = data_mod.PartitionSpec(num_clients=args.clients, alpha=args.alpha)
    pools = data_mod.dirichlet_partition(ds, spec, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    for k, pool in enumerate(pools):
        data_mod.save_dataset(pool, out / f"client_{k:03d}.txt")
    manifest = data_mod.partition_manifest(pools, spec, args.seed)
    (out / "partition.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"clients": args.clients, "out": str(out)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a federated experiment")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--out", default="runs/latest", help="output directory")
    run.add_argument("--variant", choices=federation.VARIANTS, default=None)
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="score a checkpoint on a dataset file")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--protos", required=True, help="prototype file the model was trained with")
    ev.set_defaults(func=_cmd_eval)

    pr = sub.add_parser("protos", help="build and save a prototype file")
    pr.add_argument("--classes", type=int, required=True)
    pr.add_argument("--dim", type=int, required=True)
    pr.add_argument("--slope", type=float, default=0.9)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_protos)

    pa = sub.add_parser("partition", help="split a dataset file across clients")
    pa.add_argument("--data", required=True)
    pa.add_argument("--clients", type=int, required=True)
    pa.add_argument("--alpha", type=float, required=True)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_partition)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a machine-readable record, not a traceback
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
