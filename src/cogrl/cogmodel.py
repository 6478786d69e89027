"""Q-matrices: the cognitive-model representation and its baselines.

A Q-matrix is a binary item-by-knowledge-component incidence matrix. The
two classic transfer-theory baselines live here (one shared KC for all
items; one unique KC per item), along with ingestion of human-authored
item-to-KC maps and the sanitation pass that makes any Q-matrix usable for
Additive Factors Model fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InputError, read_binary, read_table, write_lines


@dataclass
class QMatrix:
    item_ids: list[str]
    kc_names: list[str]
    cells: np.ndarray  # (n_items, n_kcs) of 0/1

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        n, m = len(self.item_ids), len(self.kc_names)
        if self.cells.shape != (n, m):
            raise InputError(
                f"cells shape {self.cells.shape} does not match "
                f"{n} items x {m} KCs")
        if not np.isin(self.cells, (0, 1)).all():
            raise InputError("Q-matrix cells must be 0 or 1")
        if len(set(self.item_ids)) != n:
            raise InputError("duplicate item ids in Q-matrix")
        if len(set(self.kc_names)) != m:
            raise InputError("duplicate KC names in Q-matrix")
        self._row = {item: i for i, item in enumerate(self.item_ids)}

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_kcs(self) -> int:
        return len(self.kc_names)

    def row(self, item_id: str) -> np.ndarray:
        try:
            return self.cells[self._row[item_id]]
        except KeyError:
            raise InputError(
                f"item {item_id!r} missing from Q-matrix") from None

    def kcs_for_item(self, item_id: str) -> list[str]:
        r = self.row(item_id)
        return [kc for kc, v in zip(self.kc_names, r) if v]


def faculty_transfer(item_ids: list[str]) -> QMatrix:
    """Single shared KC: practice on anything transfers to everything."""
    if not item_ids:
        raise InputError("faculty_transfer needs at least one item")
    return QMatrix(list(item_ids), ["faculty"],
                   np.ones((len(item_ids), 1), dtype=np.int64))


def identical_transfer(item_ids: list[str]) -> QMatrix:
    """One unique KC per item: transfer only across identical stimuli."""
    if not item_ids:
        raise InputError("identical_transfer needs at least one item")
    if len(set(item_ids)) != len(item_ids):
        raise InputError("identical_transfer requires unique item ids")
    names = [f"item:{item}" for item in item_ids]
    return QMatrix(list(item_ids), names, np.eye(len(item_ids), dtype=np.int64))


@dataclass
class SanitationReport:
    dropped_columns: list[str] = field(default_factory=list)
    merged_columns: list[tuple[str, list[str]]] = field(default_factory=list)
    residual_items: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.dropped_columns or self.merged_columns
                    or self.residual_items)

    def lines(self) -> list[str]:
        return [f"dropped all-zero column {name}"
                for name in self.dropped_columns] + [
            f"merged duplicate columns {', '.join(merged)} into {kept}"
            for kept, merged in self.merged_columns] + [
            f"added residual KC membership for all-zero row {item}"
            for item in self.residual_items] or ["no changes"]


RESIDUAL_KC = "residual"


def sanitize_qmatrix(q: QMatrix) -> tuple[QMatrix, SanitationReport]:
    """Make a Q-matrix AFM-ready without touching already-valid structure.

    Drops all-zero columns, merges exactly-duplicate columns under a joined
    name, and gives every all-zero row membership in one shared synthetic
    residual KC. Idempotent: a second pass reports no changes.
    """
    report = SanitationReport()
    cells = q.cells.copy()
    names = list(q.kc_names)

    keep = cells.sum(axis=0) > 0
    report.dropped_columns = [n for n, k in zip(names, keep) if not k]
    cells = cells[:, keep]
    names = [n for n, k in zip(names, keep) if k]

    merged_cols: list[np.ndarray] = []
    member_names: list[list[str]] = []
    groups: dict[bytes, int] = {}
    for j, name in enumerate(names):
        key = cells[:, j].tobytes()
        if key in groups:
            member_names[groups[key]].append(name)
        else:
            groups[key] = len(merged_cols)
            merged_cols.append(cells[:, j])
            member_names.append([name])
    names = ["+".join(members) for members in member_names]
    for joined, members in zip(names, member_names):
        if len(members) > 1:
            report.merged_columns.append((joined, members))
    cells = np.stack(merged_cols, axis=1) if merged_cols \
        else np.zeros((q.n_items, 0), dtype=np.int64)

    zero_rows = cells.sum(axis=1) == 0
    if zero_rows.any():
        residual = zero_rows.astype(np.int64)[:, None]
        cells = np.concatenate([cells, residual], axis=1)
        names = names + [RESIDUAL_KC]
        report.residual_items = [i for i, z in zip(q.item_ids, zero_rows) if z]

    return QMatrix(list(q.item_ids), names, cells), report


def load_human_model(path, item_ids: list[str]) -> QMatrix:
    """Read an item-to-KC TSV (columns item_id, kc_name) into a Q-matrix.

    Every id in ``item_ids`` must be mapped to at least one KC; ids in the
    file that are not in ``item_ids`` are rejected.
    """
    mapping = read_kc_map(path)
    known = set(item_ids)
    unknown = [i for i in mapping if i not in known]
    if unknown:
        raise InputError(f"{path}: unknown item ids: {', '.join(sorted(unknown))}")
    missing = [i for i in item_ids if i not in mapping]
    if missing:
        raise InputError(f"{path}: items without KCs: {', '.join(missing)}")
    kc_names: list[str] = []
    for item in item_ids:
        for kc in mapping[item]:
            if kc not in kc_names:
                kc_names.append(kc)
    cells = np.zeros((len(item_ids), len(kc_names)), dtype=np.int64)
    col = {kc: j for j, kc in enumerate(kc_names)}
    for i, item in enumerate(item_ids):
        for kc in mapping[item]:
            cells[i, col[kc]] = 1
    return QMatrix(list(item_ids), kc_names, cells)


def read_kc_map(path) -> dict[str, list[str]]:
    """Parse a (item_id, kc_name) TSV into an ordered item -> KCs map."""
    mapping: dict[str, list[str]] = {}
    for ln, (item, kc) in read_table(path, ["item_id", "kc_name"])[1]:
        if not item or not kc:
            raise InputError(f"{path}: line {ln}: expected item_id<TAB>kc_name")
        kcs = mapping.setdefault(item, [])
        if kc not in kcs:
            kcs.append(kc)
    if not mapping:
        raise InputError(f"{path}: no item-to-KC rows")
    return mapping


def write_qmatrix(path, q: QMatrix) -> None:
    write_lines(path, chain(
        ["item_id\t" + "\t".join(q.kc_names)],
        (item + "\t" + "\t".join(str(int(v)) for v in row)
         for item, row in zip(q.item_ids, q.cells))))


def read_qmatrix(path) -> QMatrix:
    columns, rows = read_table(path)
    item_ids, cells = [], []
    for ln, fields in rows:
        item_ids.append(fields[0])
        cells.append(read_binary(path, ln, fields[1:]))
    if not cells:
        raise InputError(f"{path}: the table has no items")
    return QMatrix(item_ids, columns[1:], np.array(cells, dtype=np.int64))
