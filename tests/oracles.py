"""Test-side maths that the program itself never needs."""

import numpy as np


def log0(p):
    """Inverse of ``poincare.exp_map_origin_arr``, row-wise: artanh(||p||) p/||p||."""
    p = np.asarray(p, dtype=np.float64)
    r = np.linalg.norm(p, axis=-1, keepdims=True)
    return np.divide(np.arctanh(r), r, out=np.ones_like(r), where=r > 0) * p
