"""Datasets, non-IID partitioning, and local train/test splits.

Synthetic data is C Gaussian clusters around mutually separated centers,
optionally with nested sub-clusters so the classes carry hierarchical
structure.  Partitioning follows the Dirichlet recipe: for every class an
allocation over the K clients is drawn from Dir(alpha) and the class's
instances are dealt out by those proportions (largest-remainder rounding),
so small alpha produces skewed shards and missing classes.  The local and
held-out splits round each class's share of the kept count the same way.

Dataset file format (UTF-8 text): one header line "N d C", then N lines of
d feature values followed by an integer label.
"""

from __future__ import annotations

import logging
import numbers
import operator
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


# bound -> (holds, words) for check_fields
_BOUNDS = {"min": (operator.ge, "at least"), "above": (operator.gt, "above"),
           "max": (operator.le, "at most"), "below": (operator.lt, "below")}


def check_fields(config, section: str) -> None:
    """Check every field of the dataclass ``config`` whose metadata declares
    a ``kind`` against that kind and its bounds; a ValueError names the
    field ``<section>.<key>``, or ``<key>`` when ``section`` is empty.

    Kinds: "int" refuses bool too (a config file's ``true`` is no count),
    "ints" is a list or tuple of them, "real" a finite number that is not a
    bool or a string such as "0.3".  Bounds ``min`` <= value, ``above`` <
    value, ``max`` >= value and ``below`` > value hold for every entry.
    """
    prefix = f"{section}." if section else ""
    for f in fields(config):
        kind = f.metadata.get("kind")
        if kind is None:
            continue
        name, value = prefix + f.name, getattr(config, f.name)
        if kind == "ints" and not isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be a list of integers, got {value!r}")
        for v in value if kind == "ints" else (value,):
            if kind == "real":
                # abs(v) <= max refuses NaN, infinities and ints past the float range
                if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                        or not abs(v) <= sys.float_info.max:
                    raise ValueError(f"{name} must be a finite number, got {v!r}")
            elif isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            for bound, (holds, words) in _BOUNDS.items():
                if bound in f.metadata and not holds(v, f.metadata[bound]):
                    raise ValueError(f"{name} must be {words} {f.metadata[bound]}, got {v!r}")


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (N, d) float64
    labels: np.ndarray  # (N,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, d) matrix")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be one per feature row")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if np.any(labels < 0) or np.any(labels >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[idx], self.labels[idx], self.num_classes)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class ClientShard:
    """One client's local data; ``test`` is None when the pool was too small
    to hold anything back (flagged at split time).  A client is its index k
    in the run's shard list, which picks its seeds, checkpoint and P-FL entry."""

    train: LabeledDataset
    test: LabeledDataset | None

    @property
    def n_train(self) -> int:
        return self.train.size


@dataclass(frozen=True)
class PartitionSpec:
    """Dirichlet alpha and client count; ``dirichlet_partition`` takes the seed."""

    alpha: float = field(metadata={"kind": "real", "above": 0})
    num_clients: int = field(default=20, metadata={"kind": "int", "min": 1})

    def __post_init__(self):
        check_fields(self, "partition")


def _class_centers(num_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    # Orthonormal directions when they fit; random unit directions otherwise.
    if num_classes <= dim:
        q, _ = np.linalg.qr(rng.standard_normal((dim, num_classes)))
        return q.T.copy()
    w = rng.standard_normal((num_classes, dim))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def make_synthetic(
    num_classes: int,
    dim: int,
    per_class: int,
    spread: float,
    hierarchy_depth: int = 0,
    seed: int = 0,
) -> LabeledDataset:
    """Gaussian class clusters with optional nested sub-clusters.

    Each level of hierarchy splits a cluster into two sub-clusters whose
    centers are offset at half the scale of the level above; the leaf noise
    uses the deepest scale.  Every offset is proportional to ``spread``, so
    spread = 0 collapses each class onto its center exactly.  The ranges
    are checked where a config names them, in ``federation.SyntheticSpec``.
    """
    rng = np.random.default_rng(seed)
    centers = _class_centers(num_classes, dim, rng)
    feats = np.empty((num_classes * per_class, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    for c in range(num_classes):
        block = centers[c] + np.zeros((per_class, dim))
        if hierarchy_depth > 0:
            leaves = rng.integers(2**hierarchy_depth, size=per_class)
            for level in range(1, hierarchy_depth + 1):
                offsets = rng.normal(0.0, spread * 0.5 ** (level - 1), size=(2**level, dim))
                node = leaves >> (hierarchy_depth - level)
                block += offsets[node]
        block += rng.normal(0.0, spread * 0.5**hierarchy_depth, size=(per_class, dim))
        feats[c * per_class : (c + 1) * per_class] = block
    return LabeledDataset(feats, labels, num_classes)


def _largest_remainder(ideal: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``: the floors of the nonnegative
    shares ``ideal`` (which sum to ``total``), plus one for the largest
    remainders, ties to the lowest index."""
    counts = np.floor(ideal).astype(np.int64)
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        order = np.argsort(-(ideal - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def dirichlet_partition(ds: LabeledDataset, spec: PartitionSpec, seed: int) -> list[LabeledDataset]:
    """Deal every instance to exactly one client, class by class.

    Per class a Dir(alpha) draw (normalized Gamma variates) fixes the client
    proportions (all draws from ``seed``); largest-remainder rounding turns
    them into counts.  Empty clients are repaired by stealing one instance
    from the currently largest shard so that every client can train, and
    logged in one warning.  Fewer instances than clients fail before any is
    dealt; with no fewer, an empty client leaves its k - 1 peers at least k
    instances, so the largest shard always has one to spare.
    """
    if seed < 0:
        raise ValueError(f"partition seed must be nonnegative, got {seed}")
    k = spec.num_clients
    if k > ds.size:
        raise ValueError(f"partition.num_clients must be at most the {ds.size} instances "
                         f"to deal out, got {k}")
    rng = np.random.default_rng(seed)
    assigned: list[list[int]] = [[] for _ in range(k)]
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        gamma = rng.gamma(spec.alpha, 1.0, size=k)
        with np.errstate(over="ignore"):
            total = gamma.sum()
        # a tiny alpha underflows the sum and a huge one overflows it; equal
        # shares are the alpha -> inf limit of Dir(alpha)
        if not 0 < total < np.inf:
            gamma, total = np.ones(k), k
        counts = _largest_remainder(gamma / total * idx.size, idx.size)
        start = 0
        for client, cnt in enumerate(counts):
            assigned[client].extend(idx[start : start + cnt].tolist())
            start += cnt
    moved = []
    for client in range(k):
        if not assigned[client]:
            donor = int(np.argmax([len(a) for a in assigned]))
            assigned[client].append(assigned[donor].pop())
            moved.append((client, donor))
    if moved:
        log.warning("%d empty clients each took one instance from the largest shard, "
                    "as (client, donor): %s", len(moved), moved)
    return [ds.subset(np.array(sorted(a), dtype=np.int64)) for a in assigned]


def _stratified_split(
    ds: LabeledDataset, fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Random split keeping round(fraction * N) instances, clamped to
    [1, N - 1]; returns (kept, rest).

    Each class keeps its largest-remainder share of the kept count.  The
    clamp keeps the fraction of every class below one, so a class with a
    positive remainder always has an instance left to keep.
    """
    n = ds.size
    target = min(max(int(np.floor(fraction * n + 0.5)), 1), n - 1)
    rng = np.random.default_rng(seed)
    present = [np.flatnonzero(ds.labels == c) for c in range(ds.num_classes)]
    class_sizes = np.array([p.size for p in present], dtype=np.float64)
    take = _largest_remainder(class_sizes * (target / n), target)
    mask = np.zeros(n, dtype=bool)
    for c in range(ds.num_classes):
        mask[rng.permutation(present[c])[: take[c]]] = True
    return ds.subset(np.flatnonzero(mask)), ds.subset(np.flatnonzero(~mask))


def split_local(
    pool: LabeledDataset, *, train_fraction: float = 0.75, seed: int = 0
) -> ClientShard:
    """Stratified-where-possible random split of a client pool.

    The train share is round(train_fraction * N), clamped so that both
    splits are nonempty whenever N >= 2.  A single-instance pool goes
    entirely to train with an empty (None) test split.  The shard does not
    know its client; the caller's list position names it.
    """
    if pool.size == 1:
        return ClientShard(train=pool, test=None)
    return ClientShard(*_stratified_split(pool, train_fraction, seed))


def stratified_holdout(
    ds: LabeledDataset, holdout_fraction: float, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Split off an IID slice (e.g. a global test set): returns (rest, slice)."""
    return _stratified_split(ds, 1.0 - holdout_fraction, seed)


def partition_manifest(pools: list[LabeledDataset], spec: PartitionSpec, seed: int) -> dict:
    """Per-client class counts plus the partition settings and seed, for run records."""
    return {
        "num_clients": spec.num_clients,
        "alpha": spec.alpha,
        "seed": seed,
        "client_class_counts": [pool.class_counts().tolist() for pool in pools],
        "client_sizes": [pool.size for pool in pools],
    }


def save_dataset(ds: LabeledDataset, path: str | Path) -> None:
    lines = [f"{ds.size} {ds.dim} {ds.num_classes}"]
    for i in range(ds.size):
        row = " ".join(repr(float(v)) for v in ds.features[i])
        lines.append(f"{row} {int(ds.labels[i])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class DatasetFormatError(ValueError):
    """A labeled-vector file failed to parse; the message names the record."""


def load_dataset(path: str | Path) -> LabeledDataset:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 3:
        raise DatasetFormatError(f"{path}: header must be 'N d C', got {lines[0]!r}")
    try:
        n, d, c = (int(tok) for tok in header)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: non-integer header field: {exc}") from exc
    if n < 1 or d < 1 or c < 1:
        raise DatasetFormatError(f"{path}: header values must be positive")
    if len(lines) - 1 != n:
        problem = "truncated file" if len(lines) - 1 < n else "extra records"
        raise DatasetFormatError(
            f"{path}: {problem}, header promises {n} records but {len(lines) - 1} are present"
        )
    # field counts first: a header that overstates d must not size the arrays
    records = [ln.split() for ln in lines[1:]]
    for i, tokens in enumerate(records):
        if len(tokens) != d + 1:
            raise DatasetFormatError(
                f"{path}: record {i} has {len(tokens)} fields, expected {d + 1}"
            )
    feats = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    for i, tokens in enumerate(records):
        try:
            row = np.array([float(tok) for tok in tokens[:d]])
            label = int(tokens[d])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: record {i}: {exc}") from exc
        if not np.all(np.isfinite(row)):
            raise DatasetFormatError(f"{path}: record {i}: non-finite feature value")
        if not 0 <= label < c:
            raise DatasetFormatError(
                f"{path}: record {i}: label {label} outside [0, {c})"
            )
        feats[i] = row
        labels[i] = label
    return LabeledDataset(feats, labels, c)
