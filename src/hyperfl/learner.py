"""Client-side training: extractor, hyperbolic triplet objective, local SGD.

A small MLP maps raw features to tangent vectors at the ball origin; the
exp map projects them into the ball, where the triplet hinge

    max(d(exp0(z), w_y) - d(exp0(z), w_neg) + margin, 0)

pulls each sample toward its class prototype and pushes it from a randomly
sampled negative prototype.  Negatives are drawn uniformly over the *full*
class set minus the true label, so classes absent from a client's shard
still shape its representation.  ``local_train`` draws them; ``triplet_grad``
takes them as an array, so one SGD step is a pure function of its arrays.

d is the run's metric, "geodesic" or the flat "euclidean"; every distance
and distance gradient comes from ``poincare``, which resolves the name.  The
step measures only the 1 + R pairs per sample its hinge reads, from p - w;
scoring measures every class from one inner-product matrix.

All gradients are analytic (chain rule through the exp map and the distance
formula); the optimizer is plain SGD.  The prototypes are frozen, so every
trainable parameter lives in flat Euclidean space and no manifold-aware
update is needed.  The parameters theta are one flat float64 array; only
this module reads its per-layer layout, ``ExtractorConfig.spans``.

The scoring functions ``mean_triplet_loss`` and ``predict_batch`` also take
a (G, P) block of G models with inputs stacked the same way, (G, B, d);
every product is one ``np.matmul``, which gives each stacked model the bits
of a call of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from hyperfl import poincare
from hyperfl.data import LabeledDataset, check_fields
from hyperfl.prototypes import PrototypeSet

# name -> (activation, its derivative expressed through the activation's output)
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda h: 1.0 - h * h),
    "relu": (lambda a: np.maximum(a, 0.0), lambda h: (h > 0).astype(np.float64)),
    "identity": (lambda a: a, np.ones_like),
}


@dataclass(frozen=True)
class ExtractorConfig:
    """Architecture of the feature extractor (input -> hidden... -> tangent)."""

    input_dim: int = field(metadata={"kind": "int", "min": 1})
    hidden: tuple[int, ...] = field(metadata={"kind": "ints", "min": 1})
    # at least 2: the prototypes need two dimensions to lie apart
    output_dim: int = field(metadata={"kind": "int", "min": 2})
    activation: str = "tanh"

    def __post_init__(self):
        check_fields(self, "extractor")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"extractor.activation must be one of {tuple(_ACTIVATIONS)}, "
                             f"got {self.activation!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @functools.cached_property
    def spans(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(start, stop, shape) in theta of w0, b0, w1, b1, ...: per layer its
        (fan_out, fan_in) weight, then its (fan_out,) bias."""
        dims = (self.input_dim, *self.hidden, self.output_dim)
        spans, offset = [], 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            for shape in ((fan_out, fan_in), (fan_out,)):
                spans.append((offset, offset + math.prod(shape), shape))
                offset += math.prod(shape)
        return tuple(spans)

    @property
    def num_params(self) -> int:
        """P, the length of the flat parameter vector theta."""
        return self.spans[-1][1]


@dataclass(frozen=True)
class TripletConfig:
    margin: float = field(default=3.0, metadata={"kind": "real", "above": 0})
    negatives_per_sample: int = field(default=1, metadata={"kind": "int", "min": 1})

    def __post_init__(self):
        check_fields(self, "triplet")


def _layers(theta: np.ndarray, cfg: ExtractorConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views into ``theta``, in ``ExtractorConfig.spans``
    order: a flat (P,) vector, or a (..., P) block whose leading axes lead
    every view."""
    if cfg.num_params != theta.shape[-1]:
        raise ValueError(f"parameter vector has {theta.shape[-1]} values, "
                         f"layout expects {cfg.num_params}")
    lead = theta.shape[:-1]
    views = [theta[..., start:stop].reshape(lead + shape) for start, stop, shape in cfg.spans]
    return list(zip(views[::2], views[1::2]))


def init_params(cfg: ExtractorConfig, seed: int) -> np.ndarray:
    """Glorot-uniform weights drawn from ``seed``, zero biases."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(cfg.num_params)
    for w, _ in _layers(theta, cfg):
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return theta


def _forward_cached(theta: np.ndarray, cfg: ExtractorConfig, x: np.ndarray):
    layers = _layers(theta, cfg)
    act = _ACTIVATIONS[cfg.activation][0]
    acts = [x]
    for i, (w, b) in enumerate(layers):
        a = acts[-1] @ w.mT + b[..., None, :]
        acts.append(act(a) if i < len(layers) - 1 else a)
    return acts[-1], acts, layers


def forward_batch(theta: np.ndarray, cfg: ExtractorConfig, x: np.ndarray) -> np.ndarray:
    """Tangent-space features for a (B, input_dim) batch, or for a (..., B,
    input_dim) stack of batches under a (..., P) block of models."""
    return _forward_cached(theta, cfg, x)[0]


def _ball_points(theta: np.ndarray, cfg: ExtractorConfig, x: np.ndarray):
    """The ball points exp0(forward(x)) of a batch and their squared norms."""
    z = forward_batch(theta, cfg, x)
    return poincare.exp_map_origin_arr(z, np.sqrt(np.add.reduce(z * z, axis=-1)))


def _backward(cfg: ExtractorConfig, acts, layers, delta: np.ndarray, grads) -> None:
    """Write each layer's gradient into its (W, b) views in ``grads``."""
    act_prime = _ACTIVATIONS[cfg.activation][1]
    for i in reversed(range(len(layers))):
        np.matmul(delta.T, acts[i], out=grads[i][0])
        np.add.reduce(delta, axis=0, out=grads[i][1])
        if i > 0:
            delta = (delta @ layers[i][0]) * act_prime(acts[i])


def sample_negative(y: int | np.ndarray, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over the full class set excluding the true label.

    Returns one negative per entry of ``y``, in an array of the same shape (a
    scalar label gives a 0-d array).  The batch takes one ``rng.integers``
    call and consumes the stream exactly as one scalar draw per label would.
    """
    j = rng.integers(num_classes - 1, size=np.shape(y))
    return j + (j >= y)


def triplet_grad(
    theta: np.ndarray,
    cfg: ExtractorConfig,
    x: np.ndarray,
    y: np.ndarray,
    neg: np.ndarray,
    protos: PrototypeSet,
    margin: float,
    out: np.ndarray,
    metric: str = "geodesic",
) -> np.ndarray:
    """Analytic gradient in theta of the batch-mean triplet loss.

    ``neg`` (R, B) holds the negatives, one row per round: per sample the
    loss averages its R hinges.  Each sample's 1 + R prototypes are gathered
    once, and their differences p - w and squared separations u, taken once,
    give both the hinge distances and the gradient.  Per pair the gradient
    has a scalar weight: +k on a sample's positive, k its number of active
    rounds, -1 on each active negative and 0 otherwise, so one
    distance-gradient call covers the batch.  A step with no active hinge
    skips it, the pullback and the backward pass.  The sampled loss itself
    is not formed; SGD reads only its gradient.

    The step draws nothing: it is a function of its arrays.  The gradient is
    written into ``out`` and returned; a caller that steps repeatedly passes
    the same buffer every time.  The finished gradient is checked once for
    finiteness, so a diverging step raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)

    z, acts, layers = _forward_cached(theta, cfg, x)
    # each row norm is taken once and shared by the kernels that read it
    z_norm = np.sqrt(np.add.reduce(z * z, axis=-1))
    p, p2 = poincare.exp_map_origin_arr(z, z_norm)
    # pair row 0: the true labels; row 1 + r: the negatives of round r
    cols = np.concatenate((y[None], neg))
    diff = p - protos.weights[cols]
    u = np.add.reduce(diff * diff, axis=-1)
    w2 = protos.sq_norms[cols]
    d = poincare.metric_kernels(metric)[0](p2, w2, u)
    active = d[0] - d[1:] + margin > 0.0
    if active.any():
        # the loss scale 1/(B R) is folded into the pair weights
        scale = 1.0 / neg.size
        weight = np.concatenate((active.sum(axis=0, keepdims=True) * scale, active * -scale))
        d_p = poincare.dist_grad_wrt_point_arr(p, p2, diff, u, w2, weight, metric)
        d_z = poincare.exp_map_origin_jvp_transpose_arr(z, z_norm, d_p)
        _backward(cfg, acts, layers, d_z, _layers(out, cfg))
        finite = np.isfinite(out).all()
    else:
        # zeros pulled back stay zero unless they meet 0 * inf: in an input or
        # weight the backward pass multiplies them by, or a non-finite ||z||
        seen = [z_norm, *acts[:-1]]
        seen += [w for w, _ in layers[1:]]
        finite = all(np.isfinite(a).all() for a in seen)
        out.fill(0.0)
    if not finite:
        raise ValueError("gradient is not finite; training diverged")
    return out


def mean_triplet_loss(
    theta: np.ndarray,
    cfg: ExtractorConfig,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    w2: np.ndarray,
    margin: float,
    metric: str = "geodesic",
) -> np.ndarray:
    """Deterministic loss metric: the hinge averaged over *all* negative
    classes per sample (the expectation of the sampled objective), against
    prototypes ``w`` (C, n) with squared norms ``w2`` (C,).

    A (P,) ``theta`` scores the batch ``x`` (B, d), ``y`` (B,) and returns
    one float64.  A (G, P) block scores G batches stacked as (G, B, d) and
    (G, B) against one set or G sets stacked as (G, C, n) and (G, C), and
    returns G losses.
    """
    p, p2 = _ball_points(theta, cfg, x)
    d_all = poincare.distance_to_set_arr(p, p2, w, w2, metric)
    pos = y[..., None]
    gaps = np.maximum(np.take_along_axis(d_all, pos, axis=-1) - d_all + margin, 0.0)
    np.put_along_axis(gaps, pos, 0.0, axis=-1)
    return np.mean(np.sum(gaps, axis=-1) / (w.shape[-2] - 1), axis=-1)


def local_train(
    theta_in: np.ndarray,
    train: LabeledDataset,
    protos: PrototypeSet,
    cfg: ExtractorConfig,
    tcfg: TripletConfig,
    epochs: int,
    batch_size: int,
    lr: float,
    seed: int = 0,
    metric: str = "geodesic",
) -> np.ndarray:
    """Mini-batch SGD on a client's local training split ``train``.

    One RNG (from ``seed``) draws, per epoch, the shuffle and then, per batch,
    all R rounds of negatives in one ``sample_negative`` call on the (R, B)
    label block, so a run is reproducible bit-for-bit.

    Each step is one ``triplet_grad`` call writing into a single gradient
    buffer allocated here and reused for every step; a non-finite gradient
    raises ValueError, and so do non-finite parameters after the last step
    (a finite gradient times a huge lr can still overflow the update).
    The caller, which knows the client, names it.
    """
    rng = np.random.default_rng(seed)
    theta = theta_in.copy()
    n, c = train.size, protos.num_classes
    grad = np.zeros_like(theta)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            y = train.labels[idx]
            # a copy of the labels per round (np.broadcast_to costs more per step)
            neg = sample_negative(y[None].repeat(tcfg.negatives_per_sample, 0), c, rng)
            triplet_grad(theta, cfg, train.features[idx], y, neg, protos, tcfg.margin, grad,
                         metric)
            grad *= lr
            theta -= grad
    if not np.isfinite(theta).all():
        raise ValueError("local training diverged (parameters not finite)")
    return theta


def predict_batch(
    theta: np.ndarray,
    cfg: ExtractorConfig,
    w: np.ndarray,
    w2: np.ndarray,
    x: np.ndarray,
    metric: str = "geodesic",
) -> np.ndarray:
    """Nearest-prototype labels for a batch; ties go to the lowest class.

    Takes the stacked shapes of ``mean_triplet_loss`` as well: a (G, P)
    block with (G, B, d) inputs gives (G, B) labels.
    """
    p, p2 = _ball_points(theta, cfg, x)
    return np.argmin(poincare.distance_to_set_arr(p, p2, w, w2, metric), axis=-1)
