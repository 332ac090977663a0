import numpy as np
import pytest

from hyperfl.params import ParamVector, load_params, save_params

LAYOUT = (("w0", (2, 3)), ("b0", (2,)))


def make_pv(values):
    return ParamVector(np.asarray(values, dtype=float), LAYOUT)


def test_layout_size_checked():
    with pytest.raises(ValueError):
        ParamVector(np.zeros(5), LAYOUT)  # layout wants 8


def test_mismatched_layouts_not_combinable():
    a = make_pv(np.zeros(8))
    other = ParamVector(np.zeros(8), (("w0", (4, 2)),))
    assert not a.same_layout(other)
    assert a.same_layout(a.copy())


def test_tensors_view_layout():
    a = make_pv(np.arange(8))
    t = a.tensors()
    assert t["w0"].shape == (2, 3)
    assert t["b0"].shape == (2,)
    assert np.array_equal(t["w0"].ravel(), np.arange(6))
    assert np.array_equal(t["b0"], [6, 7])


def test_from_tensors_roundtrip():
    named = [("w0", np.arange(6).reshape(2, 3).astype(float)), ("b0", np.array([1.0, 2.0]))]
    pv = ParamVector.from_tensors(named)
    assert pv.layout == LAYOUT
    back = pv.tensors()
    assert np.array_equal(back["w0"], named[0][1])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        make_pv([0, 1, 2, 3, 4, 5, 6, np.nan])


def test_checkpoint_roundtrip(tmp_path):
    pv = make_pv(np.linspace(-1, 1, 8))
    path = tmp_path / "model.params"
    save_params(pv, path)
    back = load_params(path)
    assert back.layout == pv.layout
    assert np.array_equal(back.values, pv.values)


def test_checkpoint_truncated(tmp_path):
    pv = make_pv(np.linspace(-1, 1, 8))
    path = tmp_path / "model.params"
    save_params(pv, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        load_params(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.params"
    path.write_bytes(b"garbage")
    with pytest.raises(ValueError):
        load_params(path)


def test_copy_is_independent():
    a = make_pv(np.zeros(8))
    b = a.copy()
    b.values[0] = 5.0
    assert a.values[0] == 0.0
