import json

import numpy as np
import pytest

from hyperfl.learner import ExtractorConfig
from hyperfl.params import ParamVector, load_params, save_params

EXT = ExtractorConfig(input_dim=3, hidden=(), output_dim=2, activation="relu")
LAYOUT_JSON = [["w0", [2, 3]], ["b0", [2]]]  # the layout EXT implies
MODEL = {"input_dim": 3, "hidden": [], "output_dim": 2, "activation": "relu",
         "metric": "euclidean", "prototypes_sha256": "0" * 64}


def make_pv(values):
    return ParamVector(np.asarray(values, dtype=float), EXT, "euclidean", "0" * 64)


def test_layout_size_checked():
    with pytest.raises(ValueError):
        make_pv(np.zeros(5))  # layout wants 8


def test_unknown_metric_rejected():
    with pytest.raises(ValueError, match="metric"):
        ParamVector(np.zeros(8), EXT, "cosine", "0" * 64)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        make_pv([0, 1, 2, 3, 4, 5, 6, np.nan])


def test_checkpoint_roundtrip(tmp_path):
    pv = make_pv(np.linspace(-1, 1, 8))
    path = tmp_path / "model.params"
    save_params(pv, path)
    back = load_params(path)
    assert back.extractor == pv.extractor
    assert (back.metric, back.prototypes_sha256) == (pv.metric, pv.prototypes_sha256)
    assert np.array_equal(back.values, pv.values)
    header = json.loads(path.read_bytes().split(b"\n")[1])
    assert header == {"layout": LAYOUT_JSON, "model": MODEL}


def test_checkpoint_truncated(tmp_path):
    pv = make_pv(np.linspace(-1, 1, 8))
    path = tmp_path / "model.params"
    save_params(pv, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        load_params(path)


def test_checkpoint_nonfinite_payload_rejected(tmp_path):
    pv = make_pv(np.linspace(-1, 1, 8))
    path = tmp_path / "model.params"
    save_params(pv, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + np.array([np.inf], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="finite") as err:
        load_params(path)
    assert str(path) in str(err.value)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.params"
    path.write_bytes(b"garbage")
    with pytest.raises(ValueError):
        load_params(path)


def header_line(header) -> bytes:
    return json.dumps(header).encode()


@pytest.mark.parametrize(
    "header, field",
    [
        (b"{layout", "not JSON"),
        (header_line([LAYOUT_JSON, MODEL]), "JSON object"),  # a list, not an object
        (header_line({"model": MODEL}), "'layout'"),
        (header_line({"layout": [["w0", [-2, 3]], ["b0", [2]]], "model": MODEL}), "'layout'"),
        (header_line({"layout": [["w0", [2, 3.5]], ["b0", [2]]], "model": MODEL}), "'layout'"),
        # the header of a checkpoint written before headers named the model
        (header_line({"layout": LAYOUT_JSON}), "'model'"),
        (header_line({"layout": LAYOUT_JSON, "model": [MODEL]}), "'model'"),
        *[
            (header_line({"layout": LAYOUT_JSON,
                          "model": {k: v for k, v in MODEL.items() if k != name}}),
             f"'model.{name}'")
            for name in MODEL
        ],
        (header_line({"layout": LAYOUT_JSON, "model": {**MODEL, "hidden": 4}}), "'model.hidden'"),
        (header_line({"layout": LAYOUT_JSON, "model": {**MODEL, "input_dim": 0}}), "'model'"),
        (header_line({"layout": LAYOUT_JSON, "model": {**MODEL, "activation": "gelu"}}),
         "'model'"),
        (header_line({"layout": LAYOUT_JSON, "model": {**MODEL, "metric": "cosine"}}),
         "'model.metric'"),
        # a layout that is well formed but not the one the architecture implies
        (header_line({"layout": [["w0", [3, 2]], ["b0", [2]]], "model": MODEL}), "'layout'"),
    ],
)
def test_checkpoint_bad_header_names_file_and_field(tmp_path, header, field):
    path = tmp_path / "model.params"
    path.write_bytes(b"HFPARAM1\n" + header + b"\n" + np.zeros(8, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=field) as err:
        load_params(path)
    assert str(path) in str(err.value)

