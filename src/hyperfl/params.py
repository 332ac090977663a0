"""Flat parameter vectors with named-tensor layouts.

A ParamVector is the unit of exchange between clients and server: the
feature-extractor tensors flattened into one float64 vector plus an ordered
(name, shape) layout.  Two vectors can be combined only when their layouts
match exactly.

Checkpoint format: magic, one UTF-8 JSON header line describing the layout,
then the raw values as little-endian float64.
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

    def same_layout(self, other: "ParamVector") -> bool:
        return self.layout == other.layout

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)

    def tensors(self) -> dict[str, np.ndarray]:
        """Unflatten into named tensors (views reshaped from the flat vector)."""
        out = {}
        offset = 0
        for name, shape in self.layout:
            size = math.prod(shape)
            out[name] = self.values[offset : offset + size].reshape(shape)
            offset += size
        return out

    @staticmethod
    def from_tensors(named: list[tuple[str, np.ndarray]]) -> "ParamVector":
        layout = tuple((name, tuple(arr.shape)) for name, arr in named)
        flat = np.concatenate([np.asarray(arr, dtype=np.float64).ravel() for _, arr in named])
        return ParamVector(flat, layout)


def save_params(params: ParamVector, path: str | Path) -> None:
    header = json.dumps({"layout": [[n, list(s)] for n, s in params.layout]}).encode() + b"\n"
    body = params.values.astype("<f8").tobytes()
    Path(path).write_bytes(_CKPT_MAGIC + header + body)


def load_params(path: str | Path) -> ParamVector:
    raw = Path(path).read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise ValueError(f"{path}: not a parameter checkpoint")
    rest = raw[len(_CKPT_MAGIC) :]
    newline = rest.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: truncated checkpoint header")
    header = json.loads(rest[:newline].decode())
    layout = tuple((n, tuple(s)) for n, s in header["layout"])
    body = rest[newline + 1 :]
    expected = sum(math.prod(s) for _, s in layout) * 8
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return ParamVector(values, layout)
