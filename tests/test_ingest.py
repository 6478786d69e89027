"""Loaders (with line diagnostics) and synthetic-domain generators."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cogrl.afm import (
    AFMParams,
    Transaction,
    TransactionLog,
    compute_opportunities,
    read_params,
)
from cogrl.apprentice import ARTICLE_FEATURE_NAMES
from cogrl.cogmodel import QMatrix, read_kc_map, read_qmatrix
from cogrl.errors import InputError
from cogrl.ingest import (
    AfmLogSynthSpec,
    ClozeSynthSpec,
    VisualSynthSpec,
    load_cloze,
    load_images,
    load_transactions,
    read_features,
    read_image,
    synth_afm_log,
    synth_cloze,
    synth_visual,
    write_cloze,
    write_features,
    write_image,
    write_image_dataset,
    write_transactions,
)
from cogrl.neuralcore import load_checkpoint
from cogrl.neuralcore.layers import sigmoid
from cogrl.problems import split_blank
from cogrl.representation import read_representations


class TestTransactionsIO:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("student_id\titem_id\toutcome\torder\n"
                        "s1\ta\t1\t1\ns1\tb\t0\t2\n")
        log = load_transactions(path)
        assert len(log) == 2
        assert log.rows[1] == Transaction("s1", "b", 0, 2)

    def test_bad_outcome_reports_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("student_id\titem_id\toutcome\torder\n"
                        "s1\ta\t1\t1\ns1\tb\t2\t2\n")
        with pytest.raises(InputError, match="line 3"):
            load_transactions(path)

    def test_duplicate_pair_reports_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("student_id\titem_id\toutcome\torder\n"
                        "s1\ta\t1\t1\ns1\tb\t0\t1\n")
        with pytest.raises(InputError, match="line 3"):
            load_transactions(path)

    def test_non_increasing_order_reports_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("student_id\titem_id\toutcome\torder\n"
                        "s1\ta\t1\t5\ns1\tb\t0\t3\n")
        with pytest.raises(InputError, match="line 3"):
            load_transactions(path)

    @pytest.mark.parametrize("order", [
        "1_0", " 7", "7 ", "+3", "\u0663", "2\u00b2", "0x1", "1e3", "--1",
        "-", "9223372036854775808", "100000000000000000000000000000"])
    def test_order_cell_not_an_int64_decimal_reports_line(self, tmp_path,
                                                          order):
        path = tmp_path / "t.tsv"
        path.write_text("student_id\titem_id\toutcome\torder\n"
                        f"s1\ta\t1\t1\ns1\tb\t0\t{order}\n",
                        encoding="utf-8")
        with pytest.raises(InputError, match="line 3: order must be (a "
                           "decimal|an) integer within int64"):
            load_transactions(path)

    def test_order_cells_at_the_int64_bounds(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("student_id\titem_id\toutcome\torder\n"
                        "s1\ta\t1\t0009223372036854775807\n"
                        "s2\ta\t1\t-9223372036854775808\n")
        with pytest.raises(InputError,
                           match="line 3: order must be positive"):
            load_transactions(path)
        path.write_text("student_id\titem_id\toutcome\torder\n"
                        "s1\ta\t1\t0009223372036854775807\n")
        assert load_transactions(path).rows[0].order == 2 ** 63 - 1

    def test_round_trip(self, tmp_path):
        log, _, _ = synth_afm_log(AfmLogSynthSpec(
            students=5, items=6, kcs=2, seed=3))
        path = tmp_path / "t.tsv"
        write_transactions(path, log)
        assert load_transactions(path).rows == log.rows

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("s1\ta\t1\t1\n")
        with pytest.raises(InputError, match="header"):
            load_transactions(path)


class TestImageIO:
    def test_write_read_round_trip_grayscale(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(1, 7, 5)).astype(np.float64) / 255.0
        path = tmp_path / "img.pgm"
        write_image(path, image)
        back = read_image(path)
        assert np.array_equal(back, image)

    def test_write_read_round_trip_rgb(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(3, 4, 6)).astype(np.float64) / 255.0
        path = tmp_path / "img.ppm"
        write_image(path, image)
        assert np.array_equal(read_image(path), image)

    def test_all_black_is_all_zero(self, tmp_path):
        path = tmp_path / "black.pgm"
        write_image(path, np.zeros((1, 4, 4)))
        assert np.array_equal(read_image(path), np.zeros((1, 4, 4)))

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = read_image(path)
        assert img.shape == (1, 2, 2)
        assert np.isclose(img[0, 0, 1], 128 / 255)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(InputError, match="raster"):
            read_image(path)

    def test_non_positive_dimensions_rejected(self, tmp_path):
        path = tmp_path / "neg.pgm"
        path.write_bytes(b"P5 -1 -1 255\n" + bytes(1))
        with pytest.raises(InputError, match="positive"):
            read_image(path)

    def test_raster_byte_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5 2 1 2\n" + bytes([200, 0]))
        with pytest.raises(InputError, match="maxval"):
            read_image(path)

    def test_raster_byte_at_maxval_reads_as_one(self, tmp_path):
        path = tmp_path / "top.pgm"
        path.write_bytes(b"P5 2 1 2\n" + bytes([2, 1]))
        assert np.array_equal(read_image(path), [[[1.0, 0.5]]])

    # every example overwrites the same file, so sharing tmp_path is safe
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(
        st.binary(max_size=200),
        st.builds(
            lambda magic, sep, w, h, maxval, raster:
                magic + sep + f"{w} {h} {maxval}".encode() + sep + raster,
            st.sampled_from([b"P5", b"P6", b"P2"]),
            st.sampled_from([b" ", b"\n", b"\n# note\n"]),
            st.integers(-3, 6), st.integers(-3, 6), st.integers(-1, 300),
            st.binary(max_size=120))))
    def test_arbitrary_bytes_parse_or_raise_input_error(self, tmp_path, blob):
        path = tmp_path / "fuzz.pgm"
        path.write_bytes(blob)
        try:
            img = read_image(path)
        except InputError:
            return
        assert img.ndim == 3 and img.shape[0] in (1, 3)
        assert min(img.shape) >= 1 and np.all(np.isfinite(img))

    def test_manifest_round_trip_and_mixed_channels(self, tmp_path):
        bundle = synth_visual(VisualSynthSpec(
            templates=2, images_per_template=2, image_shape=(1, 10, 10),
            jitter=1, seed=0))
        manifest = write_image_dataset(tmp_path, bundle)
        loaded = load_images(manifest)
        assert [p.item_id for p in loaded.problems] == \
               [p.item_id for p in bundle.problems]
        assert loaded.problems[0].content.shape == (1, 10, 10)
        # corrupt one entry to a 3-channel image
        write_image(tmp_path / "images" / "v00_00.pgm".replace(".pgm", ".pgm"),
                    np.zeros((1, 10, 10)))
        rows = (tmp_path / "manifest.tsv").read_text().splitlines()
        write_image(tmp_path / "images" / "rgb.ppm", np.zeros((3, 10, 10)))
        rows.append("odd\timages/rgb.ppm\tc0")
        (tmp_path / "manifest.tsv").write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match="channel"):
            load_images(manifest)


class TestClozeIO:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("item_id\ttext\tanswer\n"
                        "q1\t___ apple is red\tan\n"
                        "q2\tI saw ___ dog\ta\n"
                        "q3\tShe won ___ first prize\tthe\n")
        bundle = load_cloze(path)
        assert bundle.answer_labels == ["an", "a", "the"]
        assert bundle.problems[0].content.prefix == ""
        assert bundle.problems[0].content.suffix == " apple is red"

    def test_text_without_blank_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("item_id\ttext\tanswer\nq1\tno blank here\tan\n")
        with pytest.raises(InputError, match="line 2"):
            load_cloze(path)

    def test_two_blanks_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("item_id\ttext\tanswer\nq1\t___ and ___\tan\n")
        with pytest.raises(InputError, match="line 2"):
            load_cloze(path)

    def test_write_read_round_trip(self, tmp_path):
        bundle = synth_cloze(ClozeSynthSpec(seed=2))
        path = tmp_path / "c.tsv"
        write_cloze(path, bundle)
        back = load_cloze(path)
        assert [p.item_id for p in back.problems] == \
               [p.item_id for p in bundle.problems]
        assert back.answer_labels == bundle.answer_labels
        assert all(a.content.text == b.content.text
                   for a, b in zip(back.problems, bundle.problems))


class TestFeaturesIO:
    def test_round_trip(self, tmp_path):
        bundle = synth_cloze(ClozeSynthSpec(seed=1))
        feats = bundle.extras["features_human"]
        path = tmp_path / "f.tsv"
        write_features(path, feats, ARTICLE_FEATURE_NAMES)
        assert read_features(path) == feats

    def test_non_binary_rejected(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("item_id\tf1\nq1\t3\n")
        with pytest.raises(InputError):
            read_features(path)


TEXT_READERS = {
    "load_transactions": load_transactions,
    "read_features": read_features,
    "load_cloze": load_cloze,
    "load_images": load_images,
    "read_qmatrix": read_qmatrix,
    "read_kc_map": read_kc_map,
    "read_params": read_params,
    "read_representations": read_representations,
    "load_checkpoint": load_checkpoint,
}

# header line, cell tokens for the fuzzed rows
FUZZED_TABLES = {
    "load_transactions": ("student_id\titem_id\toutcome\torder",
                          ["s1", "s2", "a", "0", "1", "2", "-1", "x", ""]),
    "read_qmatrix": ("item_id\tk1\tk2",
                     ["a", "b", "0", "1", "2", "1.0", "k1", ""]),
    "read_params": ("entity\trole\tvalue",
                    ["a", "theta", "beta", "gamma", "0.5", "-1e308", "nan",
                     "inf", "1e999", "x", ""]),
    "read_representations": ("item_id\trep_00\trep_01",
                             ["a", "b", "0.5", "-1", "nan", "1e999", "x", ""]),
}


@st.composite
def tables(draw, header, tokens):
    rows = draw(st.lists(st.lists(st.sampled_from(tokens), min_size=1,
                                  max_size=5), max_size=6))
    text = "\n".join([header] + ["\t".join(r) for r in rows])
    return text.encode() + draw(st.binary(max_size=8))


class TestTextInput:
    @pytest.mark.parametrize("name", sorted(TEXT_READERS))
    def test_undecodable_bytes_raise_input_error(self, tmp_path, name):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(InputError, match="UTF-8") as info:
            TEXT_READERS[name](path)
        assert str(path) in str(info.value)

    def test_unicode_line_boundary_inside_a_cell_is_kept(self, tmp_path):
        bundle = synth_cloze(ClozeSynthSpec(seed=0))
        text = "I saw\u2028___ dog\x0cand\x85a cat"
        bundle.problems[0].content = split_blank(text)
        path = tmp_path / "cloze.tsv"
        write_cloze(path, bundle)
        loaded = load_cloze(path)
        assert loaded.problems[0].content.text == text
        assert len(loaded.problems) == len(bundle.problems)

    # every example overwrites the same file, so sharing tmp_path is safe
    @pytest.mark.parametrize("name", sorted(FUZZED_TABLES))
    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_arbitrary_bytes_parse_or_raise_input_error(self, tmp_path, name,
                                                        data):
        blob = data.draw(st.one_of(st.binary(max_size=200),
                                   tables(*FUZZED_TABLES[name])))
        path = tmp_path / "fuzz.tsv"
        path.write_bytes(blob)
        try:
            TEXT_READERS[name](path)
        except InputError:
            pass


class TestSynthVisual:
    def test_construction_counts_and_oracle(self):
        bundle = synth_visual(VisualSynthSpec(seed=0))
        assert len(bundle.problems) == 40
        oracle = bundle.extras["oracle_q"]
        assert oracle.cells.shape == (40, 4)
        assert np.all(oracle.cells.sum(axis=1) == 1)
        for p in bundle.problems:
            assert p.content.min() >= 0.0 and p.content.max() <= 1.0

    def test_zero_jitter_zero_noise_identical_within_template(self):
        bundle = synth_visual(VisualSynthSpec(
            templates=2, images_per_template=3, jitter=0, noise=0.0, seed=1))
        tpl = bundle.extras["template_of"]
        groups = {}
        for p in bundle.problems:
            groups.setdefault(tpl[p.item_id], []).append(p.content)
        for images in groups.values():
            for img in images[1:]:
                assert np.array_equal(img, images[0])

    def test_within_template_distance_below_across(self):
        bundle = synth_visual(VisualSynthSpec(seed=2))
        tpl = bundle.extras["template_of"]
        within, across = [], []
        problems = bundle.problems
        for i in range(len(problems)):
            for j in range(i + 1, len(problems)):
                d = np.linalg.norm(problems[i].content - problems[j].content)
                same = tpl[problems[i].item_id] == tpl[problems[j].item_id]
                (within if same else across).append(d)
        assert np.mean(within) < np.mean(across)

    def test_excessive_jitter_rejected(self):
        with pytest.raises(InputError, match="jitter"):
            synth_visual(VisualSynthSpec(
                templates=4, image_shape=(1, 10, 10), jitter=3, seed=0))

    def test_deterministic(self):
        a = synth_visual(VisualSynthSpec(seed=5))
        b = synth_visual(VisualSynthSpec(seed=5))
        for pa, pb in zip(a.problems, b.problems):
            assert np.array_equal(pa.content, pb.content)


class TestSynthCloze:
    def test_every_question_satisfies_its_rule(self):
        bundle = synth_cloze(ClozeSynthSpec(seed=0))
        rule_of = bundle.extras["rule_of_item"]
        human = bundle.extras["features_human"]
        expected_answer = {"rule_a_consonant": "a", "rule_an_vowel": "an",
                           "rule_an_hidden": "an"}
        signature_bit = {
            "rule_an_vowel": "next_word_starts_with_vowel",
            "rule_the_ordinal": "next_word_ending_st_nd_rd_th",
            "rule_the_that": "contains_that_where_who",
            "rule_the_mentioned": "next_word_already_mentioned",
            "rule_the_plural": "next_word_ends_in_s",
            "rule_the_clause": "contains_but_comma",
        }
        for p in bundle.problems:
            rule = rule_of[p.item_id]
            answer = bundle.answer_labels[p.answer]
            assert answer == expected_answer.get(rule, "the")
            if rule in signature_bit:
                assert human[p.item_id][signature_bit[rule]] == 1
            if rule in ("rule_a_consonant", "rule_an_hidden"):
                assert all(v == 0 for v in human[p.item_id].values())

    def test_hidden_rule_collides_on_human_features(self):
        bundle = synth_cloze(ClozeSynthSpec(seed=3))
        rule_of = bundle.extras["rule_of_item"]
        human = bundle.extras["features_human"]
        hidden_vecs = {tuple(human[p.item_id].values())
                       for p in bundle.problems
                       if rule_of[p.item_id] == "rule_an_hidden"}
        cons_vecs = {tuple(human[p.item_id].values())
                     for p in bundle.problems
                     if rule_of[p.item_id] == "rule_a_consonant"}
        assert hidden_vecs and hidden_vecs <= cons_vecs

    def test_full_features_resolve_all_answers(self):
        bundle = synth_cloze(ClozeSynthSpec(seed=3))
        full = bundle.extras["features_full"]
        by_vec = {}
        for p in bundle.problems:
            vec = tuple(sorted(full[p.item_id].items()))
            by_vec.setdefault(vec, set()).add(p.answer)
        assert all(len(answers) == 1 for answers in by_vec.values())

    def test_without_hidden_rule_no_collisions(self):
        bundle = synth_cloze(ClozeSynthSpec(seed=4, include_hidden_rule=False))
        human = bundle.extras["features_human"]
        by_vec = {}
        for p in bundle.problems:
            vec = tuple(sorted(human[p.item_id].items()))
            by_vec.setdefault(vec, set()).add(p.answer)
        assert all(len(answers) == 1 for answers in by_vec.values())

    def test_deterministic(self):
        a = synth_cloze(ClozeSynthSpec(seed=9))
        b = synth_cloze(ClozeSynthSpec(seed=9))
        assert [p.content.text for p in a.problems] == \
               [p.content.text for p in b.problems]

    def test_three_answer_classes(self):
        bundle = synth_cloze(ClozeSynthSpec(seed=0))
        assert bundle.answer_labels == ["a", "an", "the"]
        assert len({p.answer for p in bundle.problems}) == 3


@st.composite
def _afm_log_specs(draw):
    """Sampler specs with the default or a drawn Q-matrix (items without a
    KC and up to 30 KCs per item included), a few or over 1,000 students,
    and transactions_per_student below, at or above the item count."""
    items = draw(st.integers(1, 10))
    kcs = draw(st.integers(1, 30))
    q = None
    if draw(st.booleans()):
        cells = draw(st.lists(st.lists(st.integers(0, 1), min_size=kcs,
                                       max_size=kcs),
                              min_size=items, max_size=items))
        q = QMatrix([f"p{i}" for i in range(items)],
                    [f"k{j}" for j in range(kcs)], np.array(cells))

    def interval(low, high):
        return tuple(sorted(draw(st.lists(st.floats(low, high), min_size=2,
                                          max_size=2))))

    return AfmLogSynthSpec(
        students=draw(st.integers(1, 30) | st.integers(1001, 1100)),
        items=items, kcs=kcs,
        transactions_per_student=draw(st.none() | st.integers(1, items + 2)),
        theta_sd=draw(st.floats(0, 3)), beta_range=interval(-3, 3),
        gamma_range=interval(0, 1), seed=draw(st.integers(0, 2 ** 32 - 1)),
        q=q)


def _per_transaction_afm_log(spec):
    """The sampler as it was: one Python step per transaction, with its own
    running opportunity counts and one scalar sigmoid per row."""
    rng = np.random.default_rng(spec.seed)
    if spec.q is not None:
        q = spec.q
    else:
        item_ids = [f"i{i:03d}" for i in range(spec.items)]
        kc_names = [f"kc{j}" for j in range(spec.kcs)]
        cells = np.zeros((spec.items, spec.kcs), dtype=np.int64)
        for i in range(spec.items):
            cells[i, i % spec.kcs] = 1
            if spec.kcs > 1 and rng.uniform() < 0.5:
                extra = int(rng.integers(spec.kcs - 1))
                if extra >= i % spec.kcs:
                    extra += 1
                cells[i, extra] = 1
        q = QMatrix(item_ids, kc_names, cells)

    n_items, n_kcs = q.n_items, q.n_kcs
    students = [f"s{i:03d}" for i in range(spec.students)]
    theta = rng.normal(0.0, spec.theta_sd, size=spec.students)
    beta = rng.uniform(*spec.beta_range, size=n_kcs)
    gamma = rng.uniform(*spec.gamma_range, size=n_kcs)

    per_student = spec.transactions_per_student or n_items
    per_student = min(per_student, n_items)
    item_kcs = [np.flatnonzero(q.cells[i]) for i in range(n_items)]
    rows = []
    for s_idx, student in enumerate(students):
        seq = rng.permutation(n_items)[:per_student]
        counts = np.zeros(n_kcs, dtype=np.int64)
        for order, i_idx in enumerate(seq, start=1):
            kcs = item_kcs[i_idx]
            eta = theta[s_idx] + float(
                np.sum(beta[kcs] + gamma[kcs] * counts[kcs]))
            p = float(sigmoid(np.array([eta]))[0])
            outcome = int(rng.uniform() < p)
            rows.append((student, q.item_ids[i_idx], outcome, order))
            counts[kcs] += 1
    true_params = AFMParams(
        theta={s: float(v) for s, v in zip(students, theta)},
        beta={k: float(v) for k, v in zip(q.kc_names, beta)},
        gamma={k: float(v) for k, v in zip(q.kc_names, gamma)},
    )
    return TransactionLog(rows), q, true_params


class TestSynthAfmLog:
    def test_zero_gamma_flat_success_over_buckets(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=100, items=20, kcs=2, gamma_range=(0.0, 0.0), seed=1))
        table = compute_opportunities(log, q)
        early, late = [], []
        for tr, opps in zip(log.rows, table.rows):
            t = max(opps.values())
            (early if t < 5 else late).append(tr.outcome)
        assert abs(np.mean(early) - np.mean(late)) < 0.05

    def test_huge_theta_saturates(self):
        log, _, _ = synth_afm_log(AfmLogSynthSpec(
            students=20, items=10, kcs=2, theta_sd=0.0, seed=2,
            beta_range=(10.0, 10.0)))
        assert np.mean([tr.outcome for tr in log.rows]) > 0.99

    def test_deterministic(self):
        a, _, _ = synth_afm_log(AfmLogSynthSpec(students=5, items=6, kcs=2,
                                                seed=7))
        b, _, _ = synth_afm_log(AfmLogSynthSpec(students=5, items=6, kcs=2,
                                                seed=7))
        assert a.rows == b.rows

    def test_respects_given_qmatrix(self):
        bundle = synth_visual(VisualSynthSpec(seed=0))
        oracle = bundle.extras["oracle_q"]
        log, q, params = synth_afm_log(AfmLogSynthSpec(
            students=10, seed=0, q=oracle))
        assert q is oracle
        assert set(params.beta) == set(oracle.kc_names)
        assert {tr.item_id for tr in log.rows} <= set(oracle.item_ids)

    def test_transactions_per_student_cap(self):
        log, _, _ = synth_afm_log(AfmLogSynthSpec(
            students=4, items=10, kcs=2, transactions_per_student=6, seed=1))
        cols = log.columns
        assert np.bincount(cols.student).tolist() == [6] * 4
        # each item at most once per student
        assert len(set(zip(cols.student.tolist(), cols.item.tolist()))) == 24

    def test_fit_recovers_choice_of_q(self):
        # generator oracle loop: every KC in the emitted Q-matrix is used
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=8, items=9, kcs=3, seed=4))
        assert np.all(q.cells.sum(axis=0) >= 1)
        assert np.all(q.cells.sum(axis=1) >= 1)
        compute_opportunities(log, q)  # no missing items

    @pytest.mark.parametrize("kwargs, field", [
        (dict(theta_sd=math.nan), "theta_sd"),
        (dict(theta_sd=math.inf), "theta_sd"),
        (dict(theta_sd=-0.1), "theta_sd"),
        (dict(beta_range=(1.0, math.inf)), "beta_range"),
        (dict(beta_range=(math.nan, 1.0)), "beta_range"),
        (dict(beta_range=(1.0, -1.0)), "beta_range"),
        (dict(beta_range=(-1e308, 1e308)), "beta_range"),
        (dict(gamma_range=(0.3, 0.1)), "gamma_range"),
        (dict(gamma_range=(0.0, math.nan)), "gamma_range"),
        (dict(gamma_range=(-0.1, 0.3)), "gamma_range")])
    def test_bad_parameter_spec_rejected_before_any_draw(self, kwargs, field):
        with pytest.raises(InputError, match=field):
            AfmLogSynthSpec(**kwargs)

    @settings(deadline=None, max_examples=30)
    @example(AfmLogSynthSpec(students=1200, items=7, kcs=3, seed=9))
    @example(AfmLogSynthSpec(
        students=6, transactions_per_student=2, seed=5,
        q=QMatrix(["a", "b", "c"], ["k1", "k2"],
                  np.array([[1, 0], [0, 0], [1, 1]]))))
    @given(_afm_log_specs())
    def test_equals_per_transaction_sampler(self, spec):
        new_log, new_q, new_params = synth_afm_log(spec)
        old_log, old_q, old_params = _per_transaction_afm_log(spec)
        assert list(new_log.records()) == list(old_log.records())
        assert new_q.item_ids == old_q.item_ids
        assert new_q.kc_names == old_q.kc_names
        assert np.array_equal(new_q.cells, old_q.cells)
        assert (new_params.theta, new_params.beta, new_params.gamma) == \
            (old_params.theta, old_params.beta, old_params.gamma)

