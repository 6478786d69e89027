"""Versioned text container for network parameters.

Layout (version 1), one record per line, UTF-8:

    cogrl-checkpoint 1
    meta <single-line JSON object describing the architecture>
    param <name> <ndim> <extent...>
    <row-major values, space separated, printf %.17g>
    ...repeated for every parameter...
    end

%.17g round-trips IEEE doubles exactly, so save followed by load restores
bit-identical parameters and repeated saves of the same network are
byte-identical. The meta object must carry everything needed to rebuild
the architecture before loading parameters into it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..errors import InputError

MAGIC = "cogrl-checkpoint"
VERSION = 1


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def save_checkpoint(path, meta: dict, params: dict[str, np.ndarray]) -> None:
    lines = [f"{MAGIC} {VERSION}", "meta " + json.dumps(meta, sort_keys=True)]
    for name, arr in params.items():
        arr = np.asarray(arr, dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"param {name} {arr.ndim} {dims}".rstrip())
        lines.append(" ".join(_fmt(v) for v in arr.reshape(-1)))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (meta, {name: float64 array})."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0].split() != [MAGIC, str(VERSION)]:
        raise InputError(f"{path}: not a {MAGIC} version {VERSION} file")
    if len(lines) < 2 or not lines[1].startswith("meta "):
        raise InputError(f"{path}: missing meta record")
    try:
        meta = json.loads(lines[1][5:])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: bad meta JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise InputError(f"{path}: meta record is not a JSON object")
    params: dict[str, np.ndarray] = {}
    i = 2
    while i < len(lines):
        if lines[i] == "end":
            return meta, params
        fields = lines[i].split()
        if len(fields) < 3 or fields[0] != "param":
            raise InputError(f"{path}: line {i + 1}: expected param record")
        name = fields[1]
        try:
            ndim = int(fields[2])
            shape = tuple(int(d) for d in fields[3:3 + ndim])
        except ValueError as exc:
            raise InputError(f"{path}: line {i + 1}: bad shape") from exc
        if len(shape) != ndim or i + 1 >= len(lines):
            raise InputError(f"{path}: line {i + 1}: truncated param record")
        if any(d < 1 for d in shape):
            raise InputError(
                f"{path}: line {i + 1}: extents of {name} must be positive")
        tokens = lines[i + 1].split()
        try:
            values = np.array([float(t) for t in tokens], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"{path}: line {i + 2}: bad value: {exc}") from exc
        expected = math.prod(shape)
        if values.size != expected:
            raise InputError(
                f"{path}: line {i + 2}: expected {expected} values for "
                f"{name}, got {values.size}")
        params[name] = values.reshape(shape)
        i += 2
    raise InputError(f"{path}: missing end record")
