"""The one TSV dialect: equivalence with the per-format readers it replaced,
write -> read round trips for every writer, and the rules it tightened."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cogrl.afm import (
    AFMParams,
    TransactionLog,
    read_params,
    write_params,
)
from cogrl.cogmodel import QMatrix, read_kc_map, read_qmatrix, write_qmatrix
from cogrl.errors import InputError, read_table
from cogrl.ingest import (
    load_cloze,
    load_images,
    load_transactions,
    read_features,
    read_image,
    write_cloze,
    write_features,
    write_image,
    write_image_dataset,
    write_transactions,
)
from cogrl.problems import DatasetBundle, ProblemInstance, split_blank
from cogrl.representation import (
    RepresentationMatrix,
    read_representations,
    write_representations,
)

# ---------------------------------------------------------------------------
# the readers as they were before the dialect was shared: a test-only oracle


def old_read_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def old_load_transactions(path):
    header = ["student_id", "item_id", "outcome", "order"]
    lines = old_read_lines(path)
    if not lines or lines[0].split("\t") != header:
        raise InputError("header")
    rows, line_numbers = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4 or not fields[0] or not fields[1]:
            raise InputError("columns")
        try:
            order = int(fields[3])
        except ValueError:
            raise InputError("order") from None
        outcome = {"0": 0, "1": 1}.get(fields[2], fields[2])
        rows.append((fields[0], fields[1], outcome, order))
        line_numbers.append(ln)
    return TransactionLog(rows,
                          where=lambda i: f"{path}: line {line_numbers[i]}")


def old_load_images(manifest_path):
    lines = old_read_lines(manifest_path)
    if not lines or lines[0].split("\t") != ["item_id", "image", "answer"]:
        raise InputError("header")
    base = os.path.dirname(os.path.abspath(manifest_path))
    problems, answer_labels, shape = [], [], None
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not all(fields):
            raise InputError("columns")
        item, rel, answer = fields
        image = read_image(os.path.join(base, rel))
        if shape is None:
            shape = image.shape
        elif image.shape != shape:
            raise InputError("mixed")
        if answer not in answer_labels:
            answer_labels.append(answer)
        problems.append(ProblemInstance(
            item_id=item, content=image, answer=answer_labels.index(answer)))
    if not problems:
        raise InputError("no rows")
    return DatasetBundle(problems=problems, answer_labels=answer_labels)


def old_load_cloze(path):
    lines = old_read_lines(path)
    if not lines or lines[0].split("\t") != ["item_id", "text", "answer"]:
        raise InputError("header")
    problems, answer_labels = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not all(fields):
            raise InputError("columns")
        item, text, answer = fields
        content = split_blank(text)
        if answer not in answer_labels:
            answer_labels.append(answer)
        problems.append(ProblemInstance(
            item_id=item, content=content, answer=answer_labels.index(answer)))
    if not problems:
        raise InputError("no rows")
    return DatasetBundle(problems=problems, answer_labels=answer_labels)


def old_read_features(path):
    lines = old_read_lines(path)
    if not lines or not lines[0].startswith("item_id\t"):
        raise InputError("header")
    names = lines[0].split("\t")[1:]
    out = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(names) + 1:
            raise InputError("columns")
        try:
            vals = [int(v) for v in fields[1:]]
        except ValueError:
            raise InputError("cells") from None
        if any(v not in (0, 1) for v in vals):
            raise InputError("cells")
        out[fields[0]] = dict(zip(names, vals))
    return out


def old_read_kc_map(path):
    lines = old_read_lines(path)
    if not lines:
        raise InputError("empty")
    if lines[0].split("\t")[:2] != ["item_id", "kc_name"]:
        raise InputError("header")
    mapping = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise InputError("columns")
        mapping.setdefault(fields[0], [])
        if fields[1] not in mapping[fields[0]]:
            mapping[fields[0]].append(fields[1])
    if not mapping:
        raise InputError("no rows")
    return mapping


def old_read_qmatrix(path):
    lines = old_read_lines(path)
    if not lines:
        raise InputError("empty")
    header = lines[0].split("\t")
    if header[0] != "item_id" or len(header) < 2:
        raise InputError("header")
    item_ids, rows = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise InputError("columns")
        item_ids.append(fields[0])
        try:
            row = [int(v) for v in fields[1:]]
        except ValueError:
            raise InputError("cells") from None
        if any(v not in (0, 1) for v in row):
            raise InputError("cells")
        rows.append(row)
    return QMatrix(item_ids, header[1:], np.array(rows, dtype=np.int64))


def old_read_params(path):
    lines = old_read_lines(path)
    if not lines or lines[0].split("\t") != ["entity", "role", "value"]:
        raise InputError("header")
    roles = {"theta": {}, "beta": {}, "gamma": {}}
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3 or fields[1] not in roles:
            raise InputError("row")
        try:
            roles[fields[1]][fields[0]] = float(fields[2])
        except ValueError:
            raise InputError("value") from None
    return AFMParams(**roles)


def old_read_representations(path):
    lines = old_read_lines(path)
    if not lines or not lines[0].startswith("item_id\t"):
        raise InputError("header")
    n_cols = len(lines[0].split("\t"))
    item_ids, rows = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_cols:
            raise InputError("columns")
        item_ids.append(fields[0])
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise InputError("value") from None
    return RepresentationMatrix(item_ids, np.array(rows, dtype=np.float64))


# ---------------------------------------------------------------------------
# what each reader returns, in comparable form


def _bundle(b):
    return ([(p.item_id, p.answer,
              p.content if not isinstance(p.content, np.ndarray)
              else (p.content.shape, p.content.tobytes()))
             for p in b.problems], b.answer_labels)


NORMALIZE = {
    "transactions": lambda log: log.rows,
    "images": _bundle,
    "cloze": _bundle,
    "features": lambda f: f,
    "kc_map": lambda m: m,
    "qmatrix": lambda q: (q.item_ids, q.kc_names, q.cells.tolist()),
    "params": lambda p: (p.theta, p.beta, p.gamma),
    "representations": lambda r: (r.item_ids, r.values.shape,
                                  r.values.tobytes()),
}

READERS = {
    "transactions": (old_load_transactions, load_transactions),
    "images": (old_load_images, load_images),
    "cloze": (old_load_cloze, load_cloze),
    "features": (old_read_features, read_features),
    "kc_map": (old_read_kc_map, read_kc_map),
    "qmatrix": (old_read_qmatrix, read_qmatrix),
    "params": (old_read_params, read_params),
    "representations": (old_read_representations, read_representations),
}


def unique_key(k):
    return f"r{k}"


def increasing_order(k):
    return str(k + 1)


BINARY_FAULTS = ["2", "+1", " 1", "1 ", "01", "١", "1.0", ""]

# header lines to draw from, the first being the format's own; then for
# each of its columns, (cell tokens or a function of the row index that
# makes keys unique and orders increasing, tokens a fault puts in the cell)
TABLES = {
    "transactions": (["student_id\titem_id\toutcome\torder",
                      "student_id\titem_id\toutcome",
                      "student_id\titem_id\toutcome\torder\t",
                      "item_id\tstudent_id\toutcome\torder", ""],
                     [(["s1", "s2"], ["", " "]), (["a", "b", "c"], ["", " "]),
                      (["0", "1"], BINARY_FAULTS),
                      (increasing_order, ["x", "-1", "0", "", "1"])]),
    "images": (["item_id\timage\tanswer", "item_id\timage",
                "item_id\timage\tanswer\tx"],
               [(unique_key, ["", " "]),
                (["g1.pgm", "g2.pgm"], ["rgb.ppm", "big.pgm", "missing.pgm",
                                        ""]),
                (["c0", "c1"], ["", " "])]),
    "cloze": (["item_id\ttext\tanswer", "item_id\ttext", "item_id\tanswer"],
              [(unique_key, ["", " "]),
               (["I saw ___ dog", "___ apple", "it ___ "],
                ["no blank", "___ and ___", "", " "]),
               (["a", "an", "the"], ["", " "])]),
    "features": (["item_id\tf1\tf2", "item_id\tf1", "item_id\tf1\tf1",
                  "item_id\t", "item_id\tf1\t", "item_id", "id\tf1"],
                 [(unique_key, ["", " "]), (["0", "1"], BINARY_FAULTS),
                  (["0", "1"], BINARY_FAULTS)]),
    "kc_map": (["item_id\tkc_name", "item_id\tkc_name\textra", "item_id",
                "kc_name\titem_id", ""],
               [(["a", "b", "c"], ["", " "]), (["k1", "k2"], ["", " "])]),
    "qmatrix": (["item_id\tk1\tk2", "item_id\tk1", "item_id\tk1\tk1",
                 "item_id\t", "item_id\t\tk1", "item_id", "id\tk1", ""],
                [(unique_key, ["", " "]), (["0", "1"], BINARY_FAULTS),
                 (["0", "1"], BINARY_FAULTS)]),
    "params": (["entity\trole\tvalue", "entity\trole",
                "entity\trole\tvalue\tx"],
               [(["a", "b", "s1", ""], [" "]),
                (["theta", "beta", "gamma"], ["delta", "", "Theta"]),
                (["0.5", "-1", "2", "0"], ["nan", "1e999", "x", "", "-0.5"])]),
    "representations": (["item_id\trep_00\trep_01", "item_id\trep_00",
                         "item_id\trep_00\trep_00", "item_id\t",
                         "item_id\t\trep_00", "item_id"],
                        [(unique_key, ["", " "]),
                         (["0.5", "-1", "0"], ["x", ""]),
                         (["0.25", "1e-3"], ["1e999", "nan", " 2"])]),
}


@st.composite
def table_text(draw, name):
    """Well-formed text of one format with up to two faults put in."""
    headers, columns = TABLES[name]
    header = headers[0]
    rows = [[good(k) if callable(good) else draw(st.sampled_from(good))
             for good, _ in columns] for k in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["header", "blank", "cell", "cell",
                                      "cell", "repeat", "short", "long"]))
        if fault == "header":
            header = draw(st.sampled_from(headers[1:]))
        elif fault == "blank":
            rows.insert(draw(st.integers(0, len(rows))),
                        draw(st.sampled_from([[""], [" "], ["", ""]])))
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            j = draw(st.integers(0, len(columns) - 1))
            if fault == "cell" and j < len(row):
                row[j] = draw(st.sampled_from(columns[j][1]))
            elif fault == "repeat":
                row[0] = rows[0][0]
            elif fault == "short" and len(row) > 1:
                del row[j % len(row)]
            elif fault == "long":
                row.insert(j, row[j % len(row)])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from(["", newline]))
    return newline.join([header] + ["\t".join(r) for r in rows]) + end


def _data_rows(text):
    """Header cells and the split non-blank rows, as both readers see them."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return (lines[0].split("\t"),
            [line.split("\t") for line in lines[1:] if line.strip()])


def _repeats(keys):
    return len(set(keys)) != len(keys)


def _wide_tightening(header, rows):
    return (not all(header) or _repeats(header)
            or _repeats([r[0] for r in rows]))


def _binary_tightening(header, rows):
    return _wide_tightening(header, rows) or any(
        c not in ("0", "1") for r in rows for c in r[1:])


def _outside_unit_interval(cell):
    """A number cell that is NaN, infinite or outside [0, 1]."""
    try:
        return not 0.0 <= float(cell) <= 1.0
    except ValueError:
        return False


def _unfilled(header, rows):
    """A data cell is empty, or the table has no data rows."""
    return not rows or any("" in r for r in rows)


# the inputs a reader may now reject that the previous reader accepted
TIGHTENED = {
    "transactions": _unfilled,
    "images": lambda header, rows: (
        _unfilled(header, rows) or _repeats([r[0] for r in rows])),
    "cloze": lambda header, rows: (
        _unfilled(header, rows) or _repeats([r[0] for r in rows])),
    "features": lambda header, rows: (
        _unfilled(header, rows) or _binary_tightening(header, rows)),
    "kc_map": lambda header, rows: (
        _unfilled(header, rows) or header != ["item_id", "kc_name"]),
    "qmatrix": lambda header, rows: (
        _unfilled(header, rows) or _binary_tightening(header, rows)),
    "params": lambda header, rows: (
        _unfilled(header, rows) or _repeats([tuple(r[:2]) for r in rows])),
    "representations": lambda header, rows: (
        _unfilled(header, rows) or _wide_tightening(header, rows)
        or any(_outside_unit_interval(c) for r in rows for c in r[1:])),
}


def _outcome(reader, name, path):
    try:
        return "ok", NORMALIZE[name](reader(path))
    except (InputError, OSError) as exc:
        return type(exc).__name__, None


def _write_images(directory):
    write_image(directory / "g1.pgm", np.full((1, 4, 4), 0.2))
    write_image(directory / "g2.pgm", np.full((1, 4, 4), 0.6))
    write_image(directory / "rgb.ppm", np.zeros((3, 4, 4)))
    write_image(directory / "big.pgm", np.zeros((1, 5, 5)))


class TestEquivalence:
    # every example overwrites the same files, so sharing tmp_path is safe
    @pytest.mark.parametrize("name", sorted(READERS))
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_reader_matches_previous_reader(self, tmp_path, name, data):
        text = data.draw(table_text(name))
        if name == "images":
            _write_images(tmp_path)
        path = tmp_path / "table.tsv"
        path.write_bytes(text.encode())
        old, new = (_outcome(reader, name, path) for reader in READERS[name])
        if new != old:
            assert new[0] == "InputError" and \
                TIGHTENED[name](*_data_rows(text)), (text, old, new)

    def test_rows_stream_before_the_rest_of_the_file_is_decoded(self,
                                                                 tmp_path):
        path = tmp_path / "t.tsv"
        rows = "".join(f"i{k}\t1\n" for k in range(50_000))
        path.write_bytes(b"item_id\tk1\n" + rows.encode() + b"\xff\n")
        columns, rows = read_table(path)
        assert columns == ["item_id", "k1"]
        assert next(rows) == (2, ["i0", "1"])
        with pytest.raises(InputError, match="UTF-8"):
            list(rows)


# ---------------------------------------------------------------------------
# write -> read round trips

# cell text that needs no quoting: no tab and no line ending
any_cell = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\t\n\r"), max_size=5)
nonempty_cell = any_cell.filter(bool)
file_stem = st.text("abcxyz019_-", min_size=1, max_size=6)


def _round_trip(tmp_path, write, read, obj, *extra):
    path = tmp_path / "table.tsv"
    write(path, obj, *extra)
    return read(path)


def _distinct(data, cells, low, high):
    return data.draw(st.lists(cells, min_size=low, max_size=high, unique=True))


def _labelled(data, ids, labels):
    """An answer label per id, and the labels in order of first use."""
    answers = [data.draw(st.sampled_from(labels)) for _ in ids]
    order = list(dict.fromkeys(answers))
    return answers, order


class TestRoundTrip:
    cases = settings(
        deadline=None, max_examples=60,
        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @cases
    @given(data=st.data())
    def test_transactions(self, tmp_path, data):
        students = _distinct(data, nonempty_cell, 1, 3)
        items = _distinct(data, nonempty_cell, 1, 4)
        rows = []
        for s in students:
            seen = data.draw(st.lists(st.sampled_from(items), min_size=1,
                                      unique=True))
            for order, item in enumerate(seen, start=1):
                rows.append((s, item, data.draw(st.sampled_from([0, 1])),
                             order * 2))
        log = TransactionLog(rows)
        assert _round_trip(tmp_path, write_transactions, load_transactions,
                           log).rows == log.rows

    @cases
    @given(data=st.data())
    def test_cloze(self, tmp_path, data):
        ids = _distinct(data, nonempty_cell, 1, 4)
        side = any_cell.filter(lambda s: "_" not in s)
        texts = [data.draw(side) + "___" + data.draw(side) for _ in ids]
        labels = _distinct(data, nonempty_cell, 1, 3)
        answers, order = _labelled(data, ids, labels)
        bundle = DatasetBundle(
            [ProblemInstance(i, split_blank(t), order.index(a))
             for i, t, a in zip(ids, texts, answers)], order)
        back = _round_trip(tmp_path, write_cloze, load_cloze, bundle)
        assert _bundle(back) == _bundle(bundle)

    @cases
    @given(data=st.data())
    def test_image_dataset(self, tmp_path, data):
        ids = _distinct(data, file_stem, 1, 3)
        c = data.draw(st.sampled_from([1, 3]))
        labels = _distinct(data, nonempty_cell, 1, 2)
        answers, order = _labelled(data, ids, labels)
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        bundle = DatasetBundle(
            [ProblemInstance(i, rng.integers(0, 256, (c, 3, 2)) / 255.0,
                             order.index(a)) for i, a in zip(ids, answers)],
            order)
        back = load_images(write_image_dataset(tmp_path, bundle))
        assert _bundle(back) == _bundle(bundle)

    @cases
    @given(data=st.data())
    def test_features(self, tmp_path, data):
        names = _distinct(data, nonempty_cell, 1, 3)
        ids = _distinct(data, nonempty_cell, 1, 4)
        features = {i: {n: data.draw(st.sampled_from([0, 1])) for n in names}
                    for i in ids}
        assert _round_trip(tmp_path, write_features, read_features, features,
                           names) == features

    @cases
    @given(data=st.data())
    def test_qmatrix(self, tmp_path, data):
        kcs = _distinct(data, nonempty_cell, 1, 3)
        ids = _distinct(data, nonempty_cell, 1, 4)
        cells = data.draw(st.lists(st.lists(st.sampled_from([0, 1]),
                                            min_size=len(kcs),
                                            max_size=len(kcs)),
                                   min_size=len(ids), max_size=len(ids)))
        q = QMatrix(ids, kcs, np.array(cells))
        back = _round_trip(tmp_path, write_qmatrix, read_qmatrix, q)
        assert NORMALIZE["qmatrix"](back) == NORMALIZE["qmatrix"](q)

    @cases
    @given(data=st.data())
    def test_params(self, tmp_path, data):
        def values(low=None, min_size=0):
            return data.draw(st.dictionaries(nonempty_cell, st.floats(
                low, allow_nan=False, allow_infinity=False),
                min_size=min_size, max_size=3))

        params = AFMParams(theta=values(min_size=1), beta=values(),
                           gamma=values(0.0))
        back = _round_trip(tmp_path, write_params, read_params, params)
        assert NORMALIZE["params"](back) == NORMALIZE["params"](params)

    @cases
    @given(data=st.data())
    def test_representations(self, tmp_path, data):
        ids = _distinct(data, nonempty_cell, 1, 4)
        dims = data.draw(st.integers(1, 3))
        values = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=dims,
                     max_size=dims), min_size=len(ids), max_size=len(ids))))
        reps = RepresentationMatrix(ids, values)
        back = _round_trip(tmp_path, write_representations,
                           read_representations, reps)
        assert NORMALIZE["representations"](back) == \
            NORMALIZE["representations"](reps)


# ---------------------------------------------------------------------------
# tightened rules


class TestDuplicateKeys:
    def test_repeated_cloze_item(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("item_id\ttext\tanswer\nq1\t___ a\tan\n\n"
                        "q1\t___ b\ta\n")
        with pytest.raises(InputError, match="line 4: duplicate item_id 'q1'"):
            load_cloze(path)

    def test_repeated_image_item(self, tmp_path):
        write_image(tmp_path / "a.pgm", np.zeros((1, 4, 4)))
        path = tmp_path / "m.tsv"
        path.write_text("item_id\timage\tanswer\nv1\ta.pgm\tc0\n"
                        "v1\ta.pgm\tc1\n")
        with pytest.raises(InputError, match="line 3: duplicate item_id 'v1'"):
            load_images(path)

    def test_repeated_feature_row(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("item_id\tf1\nq1\t0\nq1\t1\n")
        with pytest.raises(InputError, match="line 3: duplicate item_id 'q1'"):
            read_features(path)

    def test_repeated_feature_name(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("item_id\tf1\tf2\tf1\nq1\t0\t1\t1\n")
        with pytest.raises(InputError,
                           match="line 1: duplicate column name 'f1'"):
            read_features(path)

    def test_repeated_params_row(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("entity\trole\tvalue\ns1\ttheta\t0.5\n"
                        "s1\tbeta\t1\ns1\ttheta\t2\n")
        with pytest.raises(InputError,
                           match="line 4: duplicate theta row for 's1'"):
            read_params(path)


@pytest.mark.parametrize("reader, text", [
    (read_params, "entity\trole\tvalue\ns1\ttheta\t0.5\nk1\tbeta\t1_0\n"),
    (read_representations, "item_id\trep_00\na\t0.5\nb\t0_1e-1\n")])
def test_digit_separators_are_not_numbers(tmp_path, reader, text):
    path = tmp_path / "t.tsv"
    path.write_text(text)
    with pytest.raises(InputError, match="line 3: bad value"):
        reader(path)


# a well-formed data row under each reader's header
A_ROW = {
    load_transactions: "s1\ti1\t1\t1", load_images: "v1\ta.pgm\tc0",
    load_cloze: "q1\ta ___ b\tan", read_features: "q1\t1",
    read_kc_map: "q1\tk1", read_qmatrix: "q1\t1",
    read_params: "s1\ttheta\t0.5", read_representations: "q1\t0.5"}


@pytest.mark.parametrize("reader, header", [
    (load_transactions, "student_id\titem_id\toutcome\torder"),
    (load_images, "item_id\timage\tanswer"),
    (load_cloze, "item_id\ttext\tanswer"), (read_kc_map, "item_id\tkc_name"),
    (read_qmatrix, "item_id\tk1"), (read_representations, "item_id\trep_00"),
    (read_features, "item_id\tf1"), (read_params, "entity\trole\tvalue")])
def test_header_only_table_names_the_file(tmp_path, reader, header):
    """A header-only table and a row with an empty first or last cell."""
    path = tmp_path / "t.tsv"
    path.write_text(header + "\n")
    with pytest.raises(InputError, match=r"t\.tsv: the table has no rows"):
        reader(path)
    first, *rest = A_ROW[reader].split("\t")
    for row in (["", *rest], [first, *rest[:-1], ""]):
        path.write_text(header + "\n" + "\t".join(row) + "\n")
        with pytest.raises(InputError, match=r"t\.tsv: line 2: empty "):
            reader(path)


@pytest.mark.parametrize("reader", [read_qmatrix, read_features])
@pytest.mark.parametrize("text", ["+1", " 1", "1 ", "01", "١", "1.0",
                                  "-0", "true", ""])
def test_binary_cells_are_exactly_0_or_1(tmp_path, reader, text):
    path = tmp_path / "t.tsv"
    path.write_text(f"item_id\tk1\tk2\na\t0\t1\nb\t1\t{text}\n",
                    encoding="utf-8")
    # an empty cell is caught by the table rule before the binary check
    message = "line 3: empty k2 cell" if text == "" else (
        "line 3: cells must be 0 or 1")
    with pytest.raises(InputError, match=message):
        reader(path)


def test_kc_map_header_is_exact(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("item_id\tkc_name\tnote\na\tk1\tx\n")
    with pytest.raises(InputError, match="expected header"):
        read_kc_map(path)
