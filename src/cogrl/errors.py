"""Exception hierarchy shared across the package.

The CLI maps each subclass to a distinct exit code, so raise the most
specific class that applies.

The text-file dialect lives here too. ``read_lines`` is the one place text
input files are decoded, so undecodable bytes end in ``InputError``
everywhere; ``read_table`` is the one TSV reader on top of it, holding
every rule the formats' rows share, and ``write_lines`` the one text
writer.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

import numpy as np


class CogrlError(Exception):
    """Base class for every error raised by this package."""


class InputError(CogrlError):
    """Malformed or inconsistent input data (files, logs, matrices)."""


class ConfigurationError(CogrlError):
    """Invalid architecture, vocabulary, or run configuration."""


class DimensionError(CogrlError):
    """Array shapes incompatible with a layer or operation."""


class NumericError(CogrlError):
    """Non-finite values encountered during network evaluation."""


class FitError(CogrlError):
    """Likelihood optimization failed to produce a usable iterate."""


def read_lines(path) -> Iterator[str]:
    """Stream the lines of a UTF-8 text file, without their line endings.

    Undecodable bytes raise InputError. Only newlines end a line (CR LF
    and a lone CR read as one): str.splitlines would also break a row at a
    form feed, U+2028 or another Unicode line boundary inside a cell.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                yield line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None


# the one rule for binary cells: exactly the text 0 or 1
BINARY = {"0": 0, "1": 1}


def read_table(path, header: list[str] | None = None, keyed: bool = False
               ) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Check a TSV's header; returns (columns, stream of data rows).

    With ``header``, the first line must equal it exactly. Without, the
    table is wide: ``item_id`` then one or more distinct, non-empty column
    names. The stream yields (file line number, fields) for each data row
    that is not blank. Every row has exactly as many fields as the header,
    none of them empty, and the table has at least one row. A wide table,
    or one read with ``keyed``, has no two rows with the same first cell.
    """
    lines = read_lines(path)
    columns = next(lines, "").split("\t")
    if header is not None:
        if columns != header:
            raise InputError(f"{path}: expected header {'<TAB>'.join(header)}")
    elif columns[0] != "item_id" or len(columns) < 2 or not all(columns):
        raise InputError(
            f"{path}: expected header item_id<TAB><one or more column names>")
    else:
        keyed = True
        twice = [c for c, n in Counter(columns).items() if n > 1]
        if twice:
            raise InputError(
                f"{path}: line 1: duplicate column name {twice[0]!r}")

    def rows():
        width, keys, empty = len(columns), set(), True
        for ln, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise InputError(f"{path}: line {ln}: expected {width} "
                                 f"columns, got {len(fields)}")
            if "" in fields:
                raise InputError(f"{path}: line {ln}: empty "
                                 f"{columns[fields.index('')]} cell")
            if keyed:
                if fields[0] in keys:
                    raise InputError(f"{path}: line {ln}: duplicate "
                                     f"{columns[0]} {fields[0]!r}")
                keys.add(fields[0])
            empty = False
            yield ln, fields
        if empty:
            raise InputError(f"{path}: the table has no rows")

    return columns, rows()


def read_binary(path, ln: int, cells: list[str]) -> list[int]:
    """Parse 0/1 cells of a table row; any other text raises InputError."""
    try:
        return [BINARY[c] for c in cells]
    except KeyError as exc:
        raise InputError(f"{path}: line {ln}: cells must be 0 or 1, "
                         f"got {exc.args[0]!r}") from None


def read_floats(cells: list[str]) -> np.ndarray:
    """Parse number cells as the writers format them (``%.17g``): finite,
    in float() syntax less the ``_`` digit separators float() also takes.
    Anything else raises ValueError, for the caller to name the line."""
    values = np.array([float(c) for c in cells], dtype=np.float64)
    if "_" in "".join(cells) or not np.isfinite(values).all():
        raise ValueError("numbers must be finite and written without '_'")
    return values


def write_lines(path, lines: Iterable[str]) -> None:
    """Write lines as UTF-8 text, each ended by a newline, streaming them."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
