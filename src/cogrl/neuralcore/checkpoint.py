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

from ..errors import InputError, read_floats, read_lines

MAGIC = "cogrl-checkpoint"
VERSION = 1


# values formatted per write; bounds the text held in memory at once
CHUNK = 4096


def save_checkpoint(path, meta: dict, params: dict[str, np.ndarray]) -> None:
    """Write a checkpoint, streaming each parameter's values in chunks."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{MAGIC} {VERSION}\nmeta {json.dumps(meta, sort_keys=True)}\n")
        for name, arr in params.items():
            arr = np.asarray(arr, dtype=np.float64)
            flat = arr.reshape(-1)
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name} {arr.ndim} {dims}".rstrip() + "\n")
            for start in range(0, flat.size, CHUNK):
                chunk = flat[start:start + CHUNK].tolist()
                fh.write((" " if start else "")
                         + " ".join(["%.17g"] * len(chunk)) % tuple(chunk))
            fh.write("\n")
        fh.write("end\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (meta, {name: float64 array})."""
    lines = list(read_lines(path))
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
        try:
            values = read_floats(lines[i + 1].split())
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
