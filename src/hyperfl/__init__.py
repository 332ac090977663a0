"""Federated-learning simulator with fixed hyperbolic class prototypes.

The package wires four pieces together:

* ``poincare``     -- unit Poincare-ball geometry (curvature -1),
* ``prototypes``   -- uniformly separated, frozen class prototypes,
* ``learner``      -- client-side feature extractor + hyperbolic triplet training,
* ``aggregation``  -- min-norm (Pareto-consistent) server aggregation,

with ``data`` providing Dirichlet non-IID partitioning and ``federation``
running the synchronous round loop.
"""

from hyperfl.prototypes import PrototypeSet, TammesReport, build_prototypes
from hyperfl.params import ParamVector
from hyperfl.learner import ExtractorConfig, TripletConfig
from hyperfl.data import LabeledDataset, ClientShard, PartitionSpec
from hyperfl.federation import ExperimentConfig, RoundRecord, run_experiment

__version__ = "0.1.0"

__all__ = [
    "PrototypeSet",
    "TammesReport",
    "build_prototypes",
    "ParamVector",
    "ExtractorConfig",
    "TripletConfig",
    "LabeledDataset",
    "ClientShard",
    "PartitionSpec",
    "ExperimentConfig",
    "RoundRecord",
    "run_experiment",
    "__version__",
]
