"""Q-matrix baselines, human-model ingestion, and sanitation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogrl.cogmodel import (
    RESIDUAL_KC,
    QMatrix,
    SanitationReport,
    faculty_transfer,
    identical_transfer,
    load_human_model,
    read_kc_map,
    read_qmatrix,
    sanitize_qmatrix,
    write_qmatrix,
)
from cogrl.errors import InputError


class TestFacultyTransfer:
    def test_three_items_all_ones_column(self):
        q = faculty_transfer(["a", "b", "c"])
        assert q.kc_names == ["faculty"]
        assert q.cells.tolist() == [[1], [1], [1]]

    def test_single_item(self):
        q = faculty_transfer(["only"])
        assert q.cells.tolist() == [[1]]

    def test_column_sums_to_n(self):
        q = faculty_transfer([f"i{k}" for k in range(17)])
        assert q.cells.sum() == 17
        assert np.linalg.matrix_rank(q.cells) == 1

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            faculty_transfer([])


class TestIdenticalTransfer:
    def test_three_items_identity(self):
        q = identical_transfer(["a", "b", "c"])
        assert np.array_equal(q.cells, np.eye(3, dtype=int))
        assert q.kc_names == ["item:a", "item:b", "item:c"]

    def test_row_and_column_sums_one(self):
        q = identical_transfer([f"i{k}" for k in range(9)])
        assert np.all(q.cells.sum(axis=0) == 1)
        assert np.all(q.cells.sum(axis=1) == 1)

    def test_single_item(self):
        assert identical_transfer(["x"]).cells.tolist() == [[1]]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            identical_transfer(["a", "a"])


class TestLoadHumanModel:
    def _write(self, tmp_path, rows):
        path = tmp_path / "model.tsv"
        path.write_text("item_id\tkc_name\n"
                        + "".join(f"{i}\t{k}\n" for i, k in rows))
        return path

    def test_direct_transcription(self, tmp_path):
        path = self._write(tmp_path, [("A", "kc1"), ("B", "kc1"), ("B", "kc2")])
        q = load_human_model(path, ["A", "B"])
        assert q.kc_names == ["kc1", "kc2"]
        assert q.cells.tolist() == [[1, 0], [1, 1]]

    def test_missing_item_named_in_error(self, tmp_path):
        path = self._write(tmp_path, [("A", "kc1")])
        with pytest.raises(InputError, match="C"):
            load_human_model(path, ["A", "C"])

    def test_nine_kcs_give_nine_columns(self, tmp_path):
        rows = [(f"q{i}", f"kc{i % 9}") for i in range(30)]
        path = self._write(tmp_path, rows)
        q = load_human_model(path, sorted({i for i, _ in rows}))
        assert q.n_kcs == 9

    def test_unknown_item_rejected(self, tmp_path):
        path = self._write(tmp_path, [("A", "kc1"), ("Z", "kc1")])
        with pytest.raises(InputError, match="Z"):
            load_human_model(path, ["A"])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(InputError):
            load_human_model(path, ["A"])


class TestSanitize:
    def test_zero_column_dropped_and_reported(self):
        q = QMatrix(["a", "b"], ["k1", "k2"], np.array([[1, 0], [1, 0]]))
        clean, report = sanitize_qmatrix(q)
        assert clean.kc_names == ["k1"]
        assert report.dropped_columns == ["k2"]

    def test_duplicate_columns_merged_and_reported(self):
        q = QMatrix(["a", "b"], ["k1", "k2", "k3"],
                    np.array([[1, 1, 0], [0, 0, 1]]))
        clean, report = sanitize_qmatrix(q)
        assert clean.kc_names == ["k1+k2", "k3"]
        assert report.merged_columns == [("k1+k2", ["k1", "k2"])]
        assert clean.cells.tolist() == [[1, 0], [0, 1]]

    def test_zero_row_gets_shared_residual(self):
        q = QMatrix(["a", "b", "c"], ["k1"], np.array([[1], [0], [0]]))
        clean, report = sanitize_qmatrix(q)
        assert clean.kc_names == ["k1", "residual"]
        assert report.residual_items == ["b", "c"]
        assert clean.row("b").tolist() == [0, 1]
        assert clean.row("c").tolist() == [0, 1]

    def test_valid_rows_unchanged_up_to_merges(self):
        q = QMatrix(["a", "b"], ["k1", "k2", "dead"],
                    np.array([[1, 0, 0], [1, 1, 0]]))
        clean, _ = sanitize_qmatrix(q)
        assert clean.kc_names == ["k1", "k2"]
        assert clean.row("a").tolist() == [1, 0]
        assert clean.row("b").tolist() == [1, 1]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 100_000))
    def test_idempotent_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        cells = (rng.uniform(size=(n, m)) < 0.4).astype(int)
        q = QMatrix([f"i{k}" for k in range(n)],
                    [f"k{k}" for k in range(m)], cells)
        once, _ = sanitize_qmatrix(q)
        twice, report = sanitize_qmatrix(once)
        assert report.lines() == ["no changes"]
        assert once.kc_names == twice.kc_names
        assert np.array_equal(once.cells, twice.cells)
        # every row usable afterwards
        assert np.all(once.cells.sum(axis=1) >= 1)

    def test_report_lines_readable(self):
        q = QMatrix(["a"], ["k1", "k2"], np.array([[0, 0]]))
        _, report = sanitize_qmatrix(q)
        text = "\n".join(report.lines())
        assert "dropped" in text and "residual" in text


# ---------------------------------------------------------------------------
# the grouping by one ordered map against the loops it replaced


def _old_sanitize(q):
    """``sanitize_qmatrix`` as it was: the merged columns, their members'
    names and the group index kept in step as three parallel structures."""
    report = SanitationReport()
    cells = q.cells.copy()
    names = list(q.kc_names)

    keep = cells.sum(axis=0) > 0
    report.dropped_columns = [n for n, k in zip(names, keep) if not k]
    cells = cells[:, keep]
    names = [n for n, k in zip(names, keep) if k]

    merged_cols, member_names, groups = [], [], {}
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
    return names, cells, report


def _old_human_model(mapping, item_ids):
    """``load_human_model``'s KC names and cells as the nested loops built
    them from the parsed item -> KCs map."""
    kc_names = []
    for item in item_ids:
        for kc in mapping[item]:
            if kc not in kc_names:
                kc_names.append(kc)
    cells = np.zeros((len(item_ids), len(kc_names)), dtype=np.int64)
    col = {kc: j for j, kc in enumerate(kc_names)}
    for i, item in enumerate(item_ids):
        for kc in mapping[item]:
            cells[i, col[kc]] = 1
    return kc_names, cells


@st.composite
def _qmatrices(draw):
    """1-6 items and 0-6 KCs; a column is drawn, all zero or a copy of an
    earlier one, and some rows may be set to all zero."""
    n = draw(st.integers(1, 6))
    columns = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["drawn", "zero", "copy"]))
        if kind == "copy" and columns:
            columns.append(list(draw(st.sampled_from(columns))))
        elif kind == "zero":
            columns.append([0] * n)
        else:
            columns.append(draw(st.lists(st.integers(0, 1), min_size=n,
                                         max_size=n)))
    cells = np.array(columns, dtype=np.int64).reshape(-1, n).T
    for i in draw(st.sets(st.integers(0, n - 1))):
        cells[i] = 0
    return QMatrix([f"i{k}" for k in range(n)],
                   [f"k{j}" for j in range(cells.shape[1])], cells)


class TestOrderedMapEquivalence:
    @settings(deadline=None, max_examples=400)
    @given(_qmatrices())
    def test_sanitize_equals_parallel_lists(self, q):
        before = q.cells.copy()
        clean, report = sanitize_qmatrix(q)
        names, cells, old = _old_sanitize(q)
        assert clean.kc_names == names
        assert clean.cells.dtype == cells.dtype
        assert np.array_equal(clean.cells, cells)
        assert report == old and report.lines() == old.lines()
        # the input is read, not written
        assert np.array_equal(q.cells, before)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_human_model_equals_nested_loops(self, tmp_path_factory, data):
        items = data.draw(st.lists(st.sampled_from("abcdef"), min_size=1,
                                   unique=True))
        kcs = st.sampled_from(["k1", "k2", "k3", "k4"])
        pairs = [(item, kc) for item in items
                 for kc in data.draw(st.lists(kcs, min_size=1, max_size=4))]
        pairs = data.draw(st.permutations(pairs))
        path = tmp_path_factory.mktemp("model") / "model.tsv"
        path.write_text("item_id\tkc_name\n"
                        + "".join(f"{i}\t{k}\n" for i, k in pairs))
        item_ids = data.draw(st.permutations(items))
        q = load_human_model(path, item_ids)
        names, cells = _old_human_model(read_kc_map(path), item_ids)
        assert q.kc_names == names and q.item_ids == item_ids
        assert q.cells.dtype == cells.dtype
        assert np.array_equal(q.cells, cells)


class TestQMatrixIO:
    def test_round_trip(self, tmp_path):
        q = QMatrix(["a", "b"], ["k1", "k2"], np.array([[1, 0], [1, 1]]))
        path = tmp_path / "q.tsv"
        write_qmatrix(path, q)
        back = read_qmatrix(path)
        assert back.item_ids == q.item_ids
        assert back.kc_names == q.kc_names
        assert np.array_equal(back.cells, q.cells)

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("item_id\tk1\na\t2\n")
        with pytest.raises(InputError, match="line 2"):
            read_qmatrix(path)

    def test_validation_rejects_nonbinary(self):
        with pytest.raises(InputError):
            QMatrix(["a"], ["k"], np.array([[2]]))

    def test_validation_rejects_duplicate_kcs(self):
        with pytest.raises(InputError):
            QMatrix(["a"], ["k", "k"], np.array([[1, 1]]))

    @pytest.mark.parametrize("build", [
        lambda: QMatrix([], ["k"], np.zeros((0, 1))),
        lambda: QMatrix([], [], np.zeros((0, 0))),
        lambda: faculty_transfer([]),
        lambda: identical_transfer([])])
    def test_validation_rejects_zero_items(self, build):
        # write_qmatrix would write a header-only file read_qmatrix rejects
        with pytest.raises(InputError, match="a Q-matrix needs at least one "
                                             "item"):
            build()
