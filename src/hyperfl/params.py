"""Parameter checkpoints: this module alone writes and reads their header.

Inside the program a model's parameters are one flat float64 array, whose
layout only ``learner`` knows.  A ParamVector is the whole checkpoint
record: those values, the extractor they belong to, the distance ``metric``
the model was trained under and the ``prototypes_sha256`` of the prototype
file it is scored against.  It is checked on construction: a known metric,
the size ``extractor.num_params``, finite values.

Checkpoint format: magic, one UTF-8 JSON header line, then the raw values
as little-endian float64 in ``ExtractorConfig.spans`` order.  The header
object holds ``model``: the fields of ``ExtractorConfig`` (``input_dim``,
``hidden``, ``output_dim``, ``activation``), ``metric`` and
``prototypes_sha256``.  A checkpoint so names everything needed to score
it.  Next to ``model``, ``sha256`` is the digest of ``model`` (as JSON with
sorted keys) followed by the payload, so a header edited to another
architecture of the same size no longer fits its values.  A header missing
a ``model`` field is rejected with an error naming the file and field, a
payload of another size than the architecture implies with one naming the
file and both sizes, and a digest that does not match with one naming the
file.  A header without ``sha256``, as written before it existed,
loads unchecked.  Any other header key, such as the ``layout`` that older
checkpoints stored, is ignored.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from hyperfl import poincare
from hyperfl.learner import ExtractorConfig

_CKPT_MAGIC = b"HFPARAM1\n"


@dataclass
class ParamVector:
    values: np.ndarray  # flat float64, in extractor.spans order
    extractor: ExtractorConfig
    metric: str
    prototypes_sha256: str

    def __post_init__(self):
        poincare.metric_kernels(self.metric)  # raises on an unknown metric
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        expected = self.extractor.num_params
        if self.values.size != expected:
            raise ValueError(f"layout expects {expected} values, got {self.values.size}")
        if not np.isfinite(self.values).all():
            raise ValueError("parameter values must be finite")


# the header's "model" object: field -> JSON type
_MODEL_FIELDS = {"input_dim": int, "hidden": list, "output_dim": int, "activation": str,
                 "metric": str, "prototypes_sha256": str}


def _digest(model: dict, body: bytes) -> str:
    """The header's ``sha256``: over ``model`` as sorted-key JSON, then the payload."""
    return hashlib.sha256(json.dumps(model, sort_keys=True).encode() + body).hexdigest()


def save_params(params: ParamVector, path: str | Path) -> None:
    """Write ``params`` as a checkpoint (format in the module docstring)."""
    model = {**asdict(params.extractor), "metric": params.metric,
             "prototypes_sha256": params.prototypes_sha256}
    body = params.values.astype("<f8").tobytes()
    header = json.dumps({"model": model, "sha256": _digest(model, body)}).encode()
    Path(path).write_bytes(_CKPT_MAGIC + header + b"\n" + body)


def load_params(path: str | Path) -> ParamVector:
    """The checkpoint record at ``path``, after every header check."""
    raw = Path(path).read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise ValueError(f"{path}: not a parameter checkpoint")
    rest = raw[len(_CKPT_MAGIC) :]
    newline = rest.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(rest[:newline])
    except ValueError as err:  # bad UTF-8 or bad JSON
        raise ValueError(f"{path}: checkpoint header is not JSON: {err}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header must be a JSON object")
    if "model" not in header:
        raise ValueError(f"{path}: checkpoint header has no 'model' field")
    model = header["model"]
    if not isinstance(model, dict):
        raise ValueError(f"{path}: header field 'model' must be a JSON object")
    for name, kind in _MODEL_FIELDS.items():
        if not isinstance(model.get(name), kind):
            raise ValueError(
                f"{path}: header field 'model.{name}' is missing or not a {kind.__name__}"
            )
    try:
        ext = ExtractorConfig(**{f.name: model[f.name] for f in fields(ExtractorConfig)})
    except ValueError as err:
        raise ValueError(f"{path}: header field 'model': {err}") from None
    try:
        poincare.metric_kernels(model["metric"])
    except ValueError as err:
        raise ValueError(f"{path}: header field 'model.metric': {err}") from None
    body = rest[newline + 1 :]
    if len(body) != 8 * ext.num_params:
        raise ValueError(f"{path}: expected {8 * ext.num_params} payload bytes, found {len(body)}")
    if "sha256" in header and header["sha256"] != _digest(model, body):
        raise ValueError(f"{path}: header field 'sha256' does not match the model and payload")
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    try:
        return ParamVector(values, ext, model["metric"], model["prototypes_sha256"])
    except ValueError as err:  # a NaN or inf in the payload: name the file too
        raise ValueError(f"{path}: {err}") from err
