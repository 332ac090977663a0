"""Uniformly separated class prototypes, frozen on the Poincare ball.

The construction has two stages:

1. place C unit vectors on the sphere by minimizing the largest pairwise
   cosine similarity (the classic Tammes-style uniformity objective, in
   matrix form: L = mean_i max_j (W W^T - 2 I)_ij, rows kept unit-norm),
   by projected subgradient descent on one fixed step-size schedule (each
   iterate's shifted Gram matrix is built once; tammes_loss_grad reads the
   loss from it and takes the subgradient as the one product (H + H^T) W / C,
   H the 0/1 matrix of each row's argmax partner), and
2. contract the unit configuration radially by a slope factor s so the
   prototypes sit strictly inside the ball.

The resulting PrototypeSet is immutable and is shared verbatim with every
client; prediction is geodesic-nearest-prototype against it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hyperfl.poincare import EPS_BALL

_PROTO_MAGIC = b"HFPROTO1"


def _check_slope(slope: float) -> None:
    if not 0.0 < slope <= 1.0 - EPS_BALL:  # NaN fails too
        raise ValueError(f"slope must be in (0, {1.0 - EPS_BALL}], got {slope}")


@dataclass(frozen=True)
class PrototypeSet:
    """C >= 2 fixed class prototypes of dimension n, every row at norm
    ``slope`` in (0, 1 - EPS_BALL], strictly inside the open ball."""

    weights: np.ndarray  # (C, n) ball coordinates
    slope: float
    seed: int = -1
    # (C,) squared row norms ||w||^2, the distance kernels' input
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 2:
            raise ValueError("prototype matrix must be (C, n) with C >= 2")
        _check_slope(self.slope)
        norms = np.linalg.norm(w, axis=1)
        if not np.all(np.abs(norms - self.slope) <= 1e-9):  # NaN fails too
            raise ValueError("every prototype row must have norm equal to slope")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        sq_norms = np.add.reduce(w * w, axis=-1)
        sq_norms.flags.writeable = False
        object.__setattr__(self, "sq_norms", sq_norms)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def to_bytes(self) -> bytes:
        header = struct.pack("<qqdq", self.num_classes, self.dim, self.slope, self.seed)
        body = self.weights.astype("<f8").tobytes(order="C")
        return _PROTO_MAGIC + header + body

    def sha256(self) -> str:
        """Hex digest of the prototype file this set saves to; checkpoints
        record it to name the set they are scored against."""
        return hashlib.sha256(self.to_bytes()).hexdigest()


@dataclass
class TammesReport:
    """Diagnostics from one uniformity optimization."""

    final_loss: float
    max_pairwise_cosine: float
    iterations: int
    converged: bool


# The uniformity optimization's step size stays at _LR for the first
# _HOLD_FRAC of its _MAX_ITERS iterations, then decays geometrically to
# _LR_FINAL; the hard-max subgradient oscillates at the step-size scale near
# the optimum, so the decay is what sets the final accuracy.
_LR = 0.1
_MAX_ITERS = 2000
_TOL = 1e-7  # best-loss improvement below this counts as flat
_PATIENCE = 50  # flat final steps that count as converged; never stops early
_HOLD_FRAC = 0.5
_LR_FINAL = 1e-6


def tammes_loss(w: np.ndarray) -> float:
    """Mean over rows of the largest off-diagonal cosine similarity.

    The -2I shift pushes the self-similarity to -1 so the row max picks the
    worst *pair* for each prototype.  Rows are taken to be unit-norm, unchecked.
    """
    return float(np.mean(np.max(_shifted_gram(w), axis=1)))


def tammes_loss_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
    """tammes_loss and its subgradient (H + H^T) W / C, from one shifted
    Gram matrix.

    H is the 0/1 matrix of each row's argmax partner (H[i, j_i] = 1, ties
    broken toward the lowest column index by np.argmax): row i's max term
    w_i . w_{j_i} adds w[j_i]/C to grad[i] and w[i]/C to grad[j_i].  A row
    whose partner is itself (every pair already at cosine -1) has the
    diagonal entry 2.  The loss is the mean of the Gram entries at the
    partners, which are the row maxima; summed by ``np.add.reduce`` and
    divided by C it has the bits of tammes_loss.
    """
    w = np.asarray(w, dtype=np.float64)
    c = w.shape[0]
    m = _shifted_gram(w)
    j = np.argmax(m, axis=1)
    rows = np.arange(c)
    partners = np.zeros((c, c))
    partners[rows, j] = 1.0
    partners[j, rows] += 1.0  # H + H^T in place: the (j_i, i) pairs are distinct
    return float(np.add.reduce(m[rows, j]) / c), partners @ (w / c)


def max_pairwise_cosine(w: np.ndarray) -> float:
    return float(np.max(_shifted_gram(w)))


def _shifted_gram(w: np.ndarray) -> np.ndarray:
    """W W^T - 2I, the -2 subtracted in place on the diagonal; every entry
    has the bits of ``w @ w.T - 2.0 * np.eye(c)`` (x - 0.0 == x)."""
    m = w @ w.T
    m.ravel()[:: w.shape[0] + 1] -= 2.0
    return m


def random_unit_rows(c: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """C unit vectors sampled isotropically; degenerate draws are redrawn."""
    w = rng.standard_normal((c, n))
    norms = np.linalg.norm(w, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        w[bad] = rng.standard_normal((int(np.sum(bad)), n))
        norms = np.linalg.norm(w, axis=1)
    return w / norms[:, None]


def optimize_prototypes(c: int, n: int, seed: int) -> tuple[np.ndarray, TammesReport]:
    """Minimize the uniformity loss over C unit vectors in R^n.

    Projected subgradient descent: ambient step, then row renormalization.
    Each iterate's Gram matrix is built once: the (loss, grad) pair from
    tammes_loss_grad scores the iterate and gives the next step, so a call
    builds _MAX_ITERS + 3 Gram matrices, two of them for the report.
    The best iterate seen so far is tracked and returned.
    The loop always runs all _MAX_ITERS iterations; _PATIENCE only sets the
    reported flag.  converged=True means the final _PATIENCE iterations
    brought no improvement of _TOL or more; a budget that ends while the
    loss is still moving reports converged=False with the best-so-far
    result.
    """
    if c < 2 or n < 2:
        raise ValueError("need at least 2 classes and 2 dimensions")
    if not 0 <= seed < 2**63:  # the prototype file stores it as an int64
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")
    rng = np.random.default_rng(seed)
    w = random_unit_rows(c, n, rng)
    best_w = w
    best_loss, grad = tammes_loss_grad(w)
    hold = int(_MAX_ITERS * _HOLD_FRAC)
    decay = (_LR_FINAL / _LR) ** (1.0 / max(_MAX_ITERS - hold, 1))
    lr = _LR
    last_progress = 0
    iterations = 0
    for iterations in range(1, _MAX_ITERS + 1):
        if iterations > hold:
            lr *= decay
        # a fresh array each step, so best_w never needs a copy; the row
        # norms have the bits of np.linalg.norm(w, axis=1, keepdims=True)
        w = w - lr * grad
        w /= np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True))
        loss, grad = tammes_loss_grad(w)
        improvement = best_loss - loss
        if improvement >= 0:
            best_loss = loss
            best_w = w
        if improvement >= _TOL:
            last_progress = iterations
    converged = iterations - last_progress >= _PATIENCE
    report = TammesReport(
        final_loss=tammes_loss(best_w),  # the bits of best_loss, from the public loss
        max_pairwise_cosine=max_pairwise_cosine(best_w),
        iterations=iterations,
        converged=converged,
    )
    return best_w, report


def build_prototypes(c: int, n: int, slope: float, seed: int) -> tuple[PrototypeSet, TammesReport]:
    """Optimize a uniform unit configuration and contract it radially by
    ``slope``, which is checked first; scaling keeps every pairwise cosine."""
    _check_slope(slope)
    w_unit, report = optimize_prototypes(c, n, seed)
    return PrototypeSet(weights=slope * w_unit, slope=slope, seed=seed), report


def random_prototypes(c: int, n: int, slope: float, seed: int) -> PrototypeSet:
    """Random (non-optimized) prototypes at radius ``slope``; used by the
    ablation variants that drop the uniformity stage."""
    rng = np.random.default_rng(seed)
    return PrototypeSet(weights=slope * random_unit_rows(c, n, rng), slope=slope, seed=seed)


def save_prototypes(protos: PrototypeSet, path: str | Path) -> None:
    Path(path).write_bytes(protos.to_bytes())


def load_prototypes(path: str | Path) -> PrototypeSet:
    raw = Path(path).read_bytes()
    if not raw.startswith(_PROTO_MAGIC):
        raise ValueError(f"{path}: not a prototype file")
    offset = len(_PROTO_MAGIC)
    header_size = struct.calcsize("<qqdq")
    if len(raw) < offset + header_size:
        raise ValueError(f"{path}: truncated prototype header")
    c, n, slope, seed = struct.unpack_from("<qqdq", raw, offset)
    for name, value in (("C", c), ("n", n)):
        if value < 0:
            raise ValueError(f"{path}: header field '{name}' is negative ({value})")
    body = raw[offset + header_size :]
    expected = c * n * 8
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    w = np.frombuffer(body, dtype="<f8").reshape(c, n).astype(np.float64)
    try:
        return PrototypeSet(weights=w, slope=slope, seed=int(seed))
    except ValueError as err:  # slope, row norms, shape: name the file too
        raise ValueError(f"{path}: {err}") from err
