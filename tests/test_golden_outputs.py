"""Output bytes of the small configs in ``golden.py`` match the golden table.

A refactor that claims unchanged output must leave every hash in place; a
change that moves bytes on purpose regenerates the table (see ``golden.py``)
and declares the moved files.  Hashes depend on numpy and the BLAS build, so
the table is keyed by an environment fingerprint and a host with no entry
skips, printing its fingerprint.
"""

import numpy as np
import pytest

import golden
from hyperfl import learner, poincare


def test_outputs_match_golden_table(tmp_path):
    key = golden.fingerprint()
    expected = golden.load_table().get(key)
    if expected is None:
        pytest.skip(f"no golden outputs for this host: {key}")
    got = {name: golden.output_hashes(name, tmp_path) for name in golden.CONFIGS}
    assert golden.moved_files(expected, got) == []


def test_ball_cap_config_reaches_the_cap(tmp_path, monkeypatch):
    # the entry pins the capped exp-map rows only while its training steps
    # embed some: the radii of every exp-map call inside triplet_grad
    radii, in_step = [], []
    exp_map, step = poincare.exp_map_origin_arr, learner.triplet_grad

    def recording_exp_map(z, r):
        if in_step:
            radii.append(np.max(r, initial=0.0))
        return exp_map(z, r)

    def recording_step(*args):
        in_step.append(True)
        try:
            return step(*args)
        finally:
            in_step.pop()

    monkeypatch.setattr(poincare, "exp_map_origin_arr", recording_exp_map)
    monkeypatch.setattr(learner, "triplet_grad", recording_step)
    golden.output_hashes("ball_cap", tmp_path)
    assert max(radii) > np.arctanh(1.0 - poincare.EPS_BALL)
