import hashlib
import json

import numpy as np
import pytest

from hyperfl.learner import ExtractorConfig
from hyperfl.params import ParamVector, load_params, save_params

EXT = ExtractorConfig(input_dim=3, hidden=(), output_dim=2, activation="relu")
LAYOUT_JSON = [["w0", [2, 3]], ["b0", [2]]]  # the layout EXT implies, as older headers stored it
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
    assert header.keys() == {"model", "sha256"}
    assert header["model"] == MODEL


def edit_header(path, edit) -> None:
    """Rewrite the header line of the checkpoint at ``path`` through ``edit``."""
    magic, line, body = path.read_bytes().split(b"\n", 2)
    path.write_bytes(magic + b"\n" + header_line(edit(json.loads(line))) + b"\n" + body)


def test_checkpoint_edited_to_another_architecture_of_the_same_size_refused(tmp_path):
    # 3-2 and 3-1-2 both hold 8 values, so only the digest ties them to EXT
    assert ExtractorConfig(3, (1,), 2).num_params == EXT.num_params
    path = tmp_path / "model.params"
    save_params(make_pv(np.linspace(-1, 1, 8)), path)
    edit_header(path, lambda h: {**h, "model": {**h["model"], "hidden": [1]}})
    with pytest.raises(ValueError, match="'sha256' does not match") as err:
        load_params(path)
    assert str(path) in str(err.value)


def test_checkpoint_edited_payload_refused(tmp_path):
    path = tmp_path / "model.params"
    save_params(make_pv(np.linspace(-1, 1, 8)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + np.array([0.5], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="'sha256' does not match"):
        load_params(path)


def test_checkpoint_without_digest_refused(tmp_path):
    # with the digest gone, an edit to another architecture of the same size
    # would load as that architecture; so would a header written before it
    path = tmp_path / "model.params"
    save_params(make_pv(np.linspace(-1, 1, 8)), path)
    edit_header(path, lambda h: {"model": {**h["model"], "hidden": [1]}})
    with pytest.raises(ValueError, match="no 'sha256' field") as err:
        load_params(path)
    assert str(path) in str(err.value)


def test_checkpoint_with_stored_layout_loads(tmp_path):
    # older checkpoints also stored the layout that "model" implies; it is ignored
    pv = make_pv(np.linspace(-1, 1, 8))
    path = tmp_path / "old.params"
    body = pv.values.astype("<f8").tobytes()
    header = {"layout": LAYOUT_JSON, "model": MODEL, "sha256": digest(MODEL, body)}
    path.write_bytes(b"HFPARAM1\n" + header_line(header) + b"\n" + body)
    back = load_params(path)
    assert back.extractor == pv.extractor
    assert (back.metric, back.prototypes_sha256) == (pv.metric, pv.prototypes_sha256)
    assert back.values.tobytes() == pv.values.tobytes()


def test_checkpoint_truncated(tmp_path):
    pv = make_pv(np.linspace(-1, 1, 8))
    path = tmp_path / "model.params"
    save_params(pv, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        load_params(path)


def test_checkpoint_nonfinite_payload_rejected(tmp_path):
    # the digest fits the payload, so the load reaches the finiteness check
    path = tmp_path / "model.params"
    body = np.array([0, 1, 2, 3, 4, 5, 6, np.inf], dtype="<f8").tobytes()
    header = {"model": MODEL, "sha256": digest(MODEL, body)}
    path.write_bytes(b"HFPARAM1\n" + header_line(header) + b"\n" + body)
    with pytest.raises(ValueError, match="values must be finite") as err:
        load_params(path)
    assert str(path) in str(err.value)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.params"
    path.write_bytes(b"garbage")
    with pytest.raises(ValueError):
        load_params(path)


def header_line(header) -> bytes:
    return json.dumps(header).encode()


def digest(model, body) -> str:
    """A header's ``sha256``: of ``model`` as sorted-key JSON, then the payload."""
    return hashlib.sha256(json.dumps(model, sort_keys=True).encode() + body).hexdigest()


@pytest.mark.parametrize(
    "header, field",
    [
        (b"{layout", "not JSON"),
        (header_line([LAYOUT_JSON, MODEL]), "JSON object"),  # a list, not an object
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
        # the extractor's own rule refuses it, before the payload size is compared
        (header_line({"model": {**MODEL, "output_dim": 1}}),
         "'model': extractor.output_dim must be at least 2, got 1"),
        # the payload holds EXT's 8 values; the size ties them to the architecture
        (header_line({"model": {**MODEL, "input_dim": 2}}), "expected 48 payload bytes, found 64"),
        (header_line({"model": {**MODEL, "output_dim": 3}}), "expected 96 payload bytes, found 64"),
        (header_line({"model": {**MODEL, "hidden": [4]}}), "expected 208 payload bytes, found 64"),
        # an older header: its stored layout fits the payload, its model does not
        (header_line({"layout": LAYOUT_JSON, "model": {**MODEL, "hidden": [4]}}),
         "expected 208 payload bytes, found 64"),
    ],
)
def test_checkpoint_bad_header_names_file_and_field(tmp_path, header, field):
    path = tmp_path / "model.params"
    path.write_bytes(b"HFPARAM1\n" + header + b"\n" + np.zeros(8, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=field) as err:
        load_params(path)
    assert str(path) in str(err.value)

