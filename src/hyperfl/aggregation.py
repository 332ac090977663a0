"""Server-side aggregation of client parameter deviations, on plain arrays.

Given the round's broadcast parameters and the K locally trained results,
flat float64 vectors of one length, the deviations Delta_k = theta_k - theta
(the rows of a (K, P) block D) are combined under simplex weights p as

    theta_next = theta + sum_k p_k Delta_k.

The baseline weights p are the clients' data fractions (classic federated
averaging).  The consistent alternative solves

    min_p ||sum_k p_k Delta_k||^2   over the probability simplex,

i.e. finds the minimum-norm point of the deviation hull (the subproblem
MGDA, Sener & Koltun 2018, solves too), with Wolfe's (1976) min-norm-point
algorithm.  The algorithm is exact, ends after finitely many steps and reads
only the Gram matrix V = D D^T.  At the solution the variational
inequality <Delta_k, Delta*> >= ||Delta*||^2 holds for every k (Pareto
stationarity); the residual of that inequality is ``pareto_gap``.  The
min-norm point Delta* is unique, the weights p need not be.
"""

from __future__ import annotations

import numpy as np

# Gram rows filled per ``np.vecdot`` call
_GRAM_TILE = 32


def compute_deviations(
    global_params: np.ndarray, locals_: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (K, P) deltas of every client against the broadcast parameters,
    and their (K, K) Gram matrix V[k, k'] = <Delta_k, Delta_k'>.

    ``locals_`` is the (K, P) block of client models, one per row (or a
    list of K rows).  The Gram is filled a tile of rows at a time: one
    ``np.vecdot`` takes every delta from the tile's first row on against
    the tile's own rows, which stay in cache, and the result is written
    into the tile's columns and, transposed, into its rows.  Every entry is
    still one dot product of two full rows (not a matmul), so it matches a
    brute-force ``np.dot`` oracle bit-for-bit: a dot product has the same
    bits with its two rows swapped.
    """
    deltas = np.subtract(locals_, global_params)
    k = deltas.shape[0]
    gram = np.empty((k, k))
    for i in range(0, k, _GRAM_TILE):
        tile = np.vecdot(deltas[i:, None], deltas[None, i : i + _GRAM_TILE])
        gram[i:, i : i + _GRAM_TILE] = tile
        gram[i : i + _GRAM_TILE, i:] = tile.T
    return deltas, gram


def pareto_gap(gram: np.ndarray, p: np.ndarray) -> float:
    """Stationarity residual ||Delta*||^2 - min_k <Delta_k, Delta*> at p."""
    row = gram @ p
    return float(p @ row - np.min(row))


def min_norm_weights(
    gram: np.ndarray, start: np.ndarray, max_iters: int = 500
) -> tuple[np.ndarray, int]:
    """Wolfe's min-norm-point algorithm over the deviation hull, in Gram space.

    Returns the weights p and the number of major steps taken.  ``start``,
    a simplex vector (the data fractions), is returned as it is when it is
    already stationary, and is never written to.  Otherwise the corral S
    (the clients carrying weight) starts as the client least aligned with
    that combination, and each major step adds the client with the smallest
    <Delta_k, Delta*> to S.  Minor steps then move towards the minimum of
    S's affine hull, found from the bordered system [[V_SS, 1], [1^T, 0]]:
    when some weight would turn nonpositive, the step stops where the first
    one reaches zero and that client leaves S.  Every weight written is
    positive or clamped at zero, so p stays on the simplex.  The loop stops
    once the stationarity residual is below 1e-14 of the largest Gram
    diagonal, after ``max_iters`` major steps, or when a major step fails to
    shrink ||Delta*||^2, which happens only when clients closer than
    rounding can resolve in V make S degenerate; the weights from before
    that step are kept.
    """
    k = gram.shape[0]
    p = start
    # unitless Gram, so the bordered system and the stop test are scale-free
    gram = gram / max(float(np.max(np.diag(gram))), np.finfo(float).tiny)
    corral: list[int] = []
    kept, kept_sq = p, np.inf
    iterations = 0
    while iterations < max_iters:
        row = gram @ p
        norm_sq = float(p @ row)
        if norm_sq >= kept_sq:
            # no progress: the corral is affinely dependent to rounding
            p = kept
            break
        tau = int(np.argmin(row))
        # a corral client cannot be least aligned but by rounding: stop there
        if norm_sq - float(row[tau]) <= 1e-14 or tau in corral:
            break
        iterations += 1
        if corral:
            kept, kept_sq = p.copy(), norm_sq
        else:
            p = np.zeros(k)
            p[tau] = 1.0
        corral.append(tau)
        while True:
            s = np.array(corral)
            m = len(s)
            bordered = np.ones((m + 1, m + 1))
            bordered[:m, :m] = gram[np.ix_(s, s)]
            bordered[m, m] = 0.0
            y = np.linalg.solve(bordered, np.append(np.zeros(m), 1.0))[:m]
            if np.all(y > 0):
                p[s] = y
                break
            x = p[s]
            ratio = np.full(m, np.inf)
            out = y <= 0
            ratio[out] = x[out] / (x[out] - y[out])
            drop = int(np.argmin(ratio))
            x += ratio[drop] * (y - x)
            x[drop] = 0.0
            p[s] = np.maximum(x, 0.0)
            corral = [int(c) for c in s[x > 0]]
    return p, iterations


def aggregate(global_params: np.ndarray, deltas: np.ndarray, p: np.ndarray) -> np.ndarray:
    """theta + sum_k p_k Delta_k (plain averaging under data weights); a
    non-finite result raises ValueError."""
    theta = global_params + p @ deltas
    if not np.isfinite(theta).all():
        raise ValueError("aggregated parameters are not finite")
    return theta
