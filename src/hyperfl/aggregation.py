"""Server-side aggregation of client parameter deviations.

Given the round's broadcast parameters and the K locally trained results,
the deviations Delta_k = theta_k - theta are combined as

    theta_next = theta + sum_k p_k Delta_k.

The baseline weights p are the clients' data fractions (classic federated
averaging).  The consistent alternative solves

    min_p ||sum_k p_k Delta_k||^2   over the probability simplex,

i.e. finds the minimum-norm point of the deviation hull, by repeatedly
picking the client whose deviation is least aligned with the current
combination and running an exact analytic line search between that
deviation and the combination.  At the solution the variational inequality
<Delta_k, Delta*> >= ||Delta*||^2 holds for every k (Pareto stationarity);
the residual of that inequality is reported as ``pareto_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hyperfl.params import ParamVector


@dataclass
class DeviationSet:
    """Client deviations, one per row of the (K, P) block ``deltas``, plus
    their Gram matrix V[k, k'] = <Delta_k, Delta_k'>."""

    deltas: np.ndarray
    gram: np.ndarray

    @property
    def num_clients(self) -> int:
        return self.deltas.shape[0]


@dataclass
class AggregationWeights:
    """A simplex weight vector over clients.

    ``cu_iterations`` counts the iterations the min-norm solver used (zero
    for data-weighted averaging); ``pareto_gap`` is the stationarity
    residual ||Delta*||^2 - min_k <Delta_k, Delta*> (NaN when no deviations
    were involved); ``norm_trace`` records ||Delta*||^2 per iteration.
    """

    p: np.ndarray
    cu_iterations: int
    pareto_gap: float
    norm_trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if abs(float(self.p.sum()) - 1.0) > 1e-9 or np.any(self.p < -1e-12):
            raise ValueError("weights must lie on the probability simplex")
        self.p = np.maximum(self.p, 0.0)


def compute_deviations(global_params: ParamVector, locals_: list[ParamVector]) -> DeviationSet:
    """Deltas of every client against the broadcast parameters, with Gram.

    Each row of the upper triangle is one ``np.vecdot`` of a delta against
    the deltas from it on; every entry is still one dot product of two
    vectors (not a matmul), so it matches a brute-force ``np.dot`` oracle
    bit-for-bit.
    """
    if not locals_:
        raise ValueError("need at least one client")
    for loc in locals_:
        if not loc.same_layout(global_params):
            raise ValueError("client and global parameter layouts differ")
    deltas = np.stack([loc.values for loc in locals_])
    deltas -= global_params.values
    k = len(locals_)
    gram = np.empty((k, k))
    for i in range(k):
        gram[i, i:] = gram[i:, i] = np.vecdot(deltas[i], deltas[i:])
    return DeviationSet(deltas=deltas, gram=gram)


def pareto_gap(gram: np.ndarray, p: np.ndarray) -> float:
    """Stationarity residual ||Delta*||^2 - min_k <Delta_k, Delta*> at p."""
    row = gram @ p
    return float(p @ row - np.min(row))


def min_norm_weights(
    dev: DeviationSet,
    n_samples: list[int] | np.ndarray,
    max_iters: int = 500,
    tol: float = 1e-12,
) -> AggregationWeights:
    """Iterate the least-aligned-client line search to a min-norm weight vector.

    Weights start at the data fractions N_k / sum N.  Each iteration selects
    the least aligned client tau and evaluates two analytic line searches:

    * mix step: between Delta_tau and the current combination,
      p <- (1 - q) p + q e_tau;
    * transfer step: weight moved from the most redundant weighted client
      (argmax of the alignment row among p_k > 0) to tau.

    The better of the two is applied.  The mix step alone shrinks retired
    weights only multiplicatively, which stalls short of stationarity when
    the optimum sits on a face of the simplex; the transfer step can zero a
    weight outright, restoring geometric convergence.  The loop runs in
    Gram space (every quantity needed is an entry of V = D D^T) and stops
    once the stationarity residual is negligible relative to the largest
    deviation, the weights stop moving (max-norm below ``tol``), or the
    iteration budget is spent.
    """
    counts = np.asarray(n_samples, dtype=np.float64)
    k = dev.num_clients
    if counts.shape != (k,) or np.any(counts <= 0):
        raise ValueError("need one positive sample count per client")
    p = counts / counts.sum()
    gram = dev.gram
    if k == 1:
        return AggregationWeights(
            p=p, cu_iterations=0, pareto_gap=0.0, norm_trace=[float(gram[0, 0])]
        )
    max_diag = max(float(np.max(np.diag(gram))), np.finfo(float).tiny)
    trace = [float(p @ gram @ p)]
    iterations = 0
    for step in range(1, max_iters + 1):
        row = gram @ p
        combined_sq = float(p @ row)
        tau = int(np.argmin(row))
        if combined_sq - float(row[tau]) <= 1e-14 * max_diag:
            break
        iterations = step
        # mix step (line search between Delta_tau and the combination)
        cross = float(row[tau])
        denom = float(gram[tau, tau]) + combined_sq - 2.0 * cross
        if denom <= 1e-16 * max(float(gram[tau, tau]), combined_sq) or denom == 0.0:
            q = 0.0
        else:
            q = min(max((combined_sq - cross) / denom, 0.0), 1.0)
        p_mix = (1.0 - q) * p
        p_mix[tau] += q
        f_mix = float(p_mix @ gram @ p_mix)
        # transfer step (most redundant weighted client donates to tau)
        sigma = int(np.argmax(np.where(p > 0, row, -np.inf)))
        edge = float(gram[tau, tau] + gram[sigma, sigma] - 2.0 * gram[tau, sigma])
        if sigma == tau or edge <= 0.0:
            p_xfer, f_xfer = p, combined_sq
        else:
            gamma = min(max(float(row[sigma] - row[tau]) / edge, 0.0), float(p[sigma]))
            p_xfer = p.copy()
            p_xfer[tau] += gamma
            p_xfer[sigma] -= gamma
            f_xfer = float(p_xfer @ gram @ p_xfer)
        p_new = p_mix if f_mix <= f_xfer else p_xfer
        change = float(np.max(np.abs(p_new - p)))
        p = p_new
        trace.append(float(p @ gram @ p))
        if change < tol:
            break
    return AggregationWeights(
        p=p, cu_iterations=iterations, pareto_gap=pareto_gap(gram, p), norm_trace=trace
    )


def fedavg_weights(n_samples: list[int] | np.ndarray) -> AggregationWeights:
    """Data-fraction weights p_k = N_k / sum N (the averaging baseline)."""
    counts = np.asarray(n_samples, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 1 or np.any(counts <= 0):
        raise ValueError("need one positive sample count per client")
    return AggregationWeights(
        p=counts / counts.sum(), cu_iterations=0, pareto_gap=float("nan")
    )


def aggregate(
    global_params: ParamVector, dev: DeviationSet, weights: AggregationWeights
) -> ParamVector:
    """theta + sum_k p_k Delta_k (with data weights this is plain averaging)."""
    if len(weights.p) != dev.num_clients:
        raise ValueError("weight vector length must match the client count")
    return ParamVector(global_params.values + weights.p @ dev.deltas, global_params.layout)
