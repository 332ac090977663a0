"""Parameter checkpoints: a flat float64 vector and its named layout.

Inside the program a model's parameters are one flat float64 array, whose
layout only ``learner`` knows.  A ParamVector is the record written to and
read from disk: those values plus the ordered (name, shape) layout they
unflatten into, checked on construction to be finite and of the size the
layout implies.

Checkpoint format: magic, one UTF-8 JSON header line, then the raw values
as little-endian float64.  The header object holds ``layout``, the ordered
[name, shape] pairs, and ``model``: the extractor architecture
(``input_dim``, ``hidden``, ``output_dim``, ``activation``), the distance
``metric`` the model was trained under and the ``prototypes_sha256`` of the
prototype file it is scored against.  A checkpoint so names everything
needed to score it, and a header missing any of it is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Layout = tuple[tuple[str, tuple[int, ...]], ...]

_CKPT_MAGIC = b"HFPARAM1\n"


@dataclass
class ParamVector:
    values: np.ndarray  # flat float64
    layout: Layout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        self.layout = tuple((str(name), tuple(int(d) for d in shape)) for name, shape in self.layout)
        expected = sum(math.prod(shape) for _, shape in self.layout)
        if self.values.size != expected:
            raise ValueError(f"layout expects {expected} values, got {self.values.size}")
        if not np.isfinite(self.values).all():
            raise ValueError("parameter values must be finite")


# the header's "model" object: field -> JSON type
_MODEL_FIELDS = {
    "input_dim": int,
    "hidden": list,
    "output_dim": int,
    "activation": str,
    "metric": str,
    "prototypes_sha256": str,
}


def save_params(params: ParamVector, path: str | Path, model: dict) -> None:
    """Write a checkpoint; ``model`` carries every field of the header's
    ``model`` object (see the module docstring)."""
    header = {
        "layout": [[n, list(s)] for n, s in params.layout],
        "model": {name: model[name] for name in _MODEL_FIELDS},
    }
    body = params.values.astype("<f8").tobytes()
    Path(path).write_bytes(_CKPT_MAGIC + json.dumps(header).encode() + b"\n" + body)


def load_params(path: str | Path) -> tuple[ParamVector, dict]:
    """The values of a checkpoint and its header's ``model`` object."""
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
    for name in ("layout", "model"):
        if name not in header:
            raise ValueError(f"{path}: checkpoint header has no '{name}' field")
    layout = header["layout"]
    if not (isinstance(layout, list) and all(_is_layout_entry(e) for e in layout)):
        raise ValueError(
            f"{path}: header field 'layout' must list [name, shape] pairs "
            "with nonnegative integer dimensions"
        )
    model = header["model"]
    if not isinstance(model, dict):
        raise ValueError(f"{path}: header field 'model' must be a JSON object")
    for name, kind in _MODEL_FIELDS.items():
        if not isinstance(model.get(name), kind):
            raise ValueError(
                f"{path}: header field 'model.{name}' is missing or not a {kind.__name__}"
            )
    layout = tuple((n, tuple(s)) for n, s in layout)
    body = rest[newline + 1 :]
    expected = sum(math.prod(s) for _, s in layout) * 8
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return ParamVector(values, layout), model


def _is_layout_entry(entry) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], list)
        and all(isinstance(d, int) and d >= 0 for d in entry[1])
    )
