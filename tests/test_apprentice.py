"""Article features, decision trees, and simulated learners."""

import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogrl import apprentice
from cogrl.afm import (
    FitConfig,
    TransactionLog,
    compute_opportunities,
)
from cogrl.apprentice import (
    ARTICLE_FEATURE_NAMES,
    STUDY_L2_BETA_GAMMA,
    SimConfig,
    _attempt_codes,
    _basis,
    _best_split,
    _codes,
    _encode,
    article_human_features,
    fit_decision_tree,
    human_features,
    simulate_and_estimate,
    simulate_learner,
    tree_predict,
)
from cogrl.cogmodel import QMatrix
from cogrl.errors import InputError
from cogrl.ingest import ClozeSynthSpec, synth_cloze
from cogrl.problems import ProblemInstance, split_blank


class TestArticleFeatures:
    def test_honest_man_sentence(self):
        q = split_blank("The salesman is not ___ honest man")
        f = article_human_features(q)
        assert f["next_word_starts_with_vowel"] == 0  # 'honest' starts 'h'
        assert f["next_word_already_mentioned"] == 0
        assert f["contains_but_comma"] == 0

    def test_watermelon_sentence(self):
        q = split_blank("When I have watermelon, I try not to eat ___ seeds")
        f = article_human_features(q)
        assert f["contains_but_comma"] == 1
        assert f["next_word_ends_in_s"] == 1

    def test_blank_at_start(self):
        f = article_human_features(split_blank("___ apple"))
        assert f["next_word_starts_with_vowel"] == 1
        assert f["contains_that_where_who"] == 0
        assert f["contains_but_comma"] == 0
        assert f["next_word_already_mentioned"] == 0

    def test_nothing_after_blank(self):
        f = article_human_features(split_blank("pick one ___"))
        assert f["next_word_starts_with_vowel"] == 0
        assert f["next_word_ends_in_s"] == 0
        assert f["next_word_ending_st_nd_rd_th"] == 0

    def test_ordinal_and_that_detection(self):
        f = article_human_features(
            split_blank("He kept ___ first stone that we found"))
        assert f["next_word_ending_st_nd_rd_th"] == 1
        assert f["contains_that_where_who"] == 1

    def test_already_mentioned_case_insensitive(self):
        f = article_human_features(split_blank("My Dog likes ___ dog bowl"))
        assert f["next_word_already_mentioned"] == 1

    def test_feature_name_order_stable(self):
        f = article_human_features(split_blank("___ apple"))
        assert list(f.keys()) == ARTICLE_FEATURE_NAMES


def _vec(bits):
    return {f"f{i}": b for i, b in enumerate(bits)}


def _coded(examples):
    """(feature names, x, label codes, sorted labels) of (features, label)
    examples, as ``fit_decision_tree`` codes them."""
    feature_rows, answers = zip(*examples)
    labels = sorted(set(answers))
    return (*_encode(feature_rows), _codes(labels, answers), labels)


def _root_split(examples):
    """The feature the CART on ``examples`` splits its root on; -1 for a
    leaf."""
    _, x, y, labels = _coded(examples)
    counts = _basis(x, y, len(labels)).sum(axis=0).astype(np.int64)
    return int(_best_split(counts.reshape(1, x.shape[1] + 1, -1))[0])


def _all_vectors(n_features):
    return [_vec([(v >> k) & 1 for k in range(n_features)])
            for v in range(2 ** n_features)]


class TestDecisionTree:
    def test_uniform_labels_single_leaf(self):
        examples = [(_vec([0, 1]), "x"), (_vec([1, 0]), "x")]
        assert _root_split(examples) == -1
        tree = fit_decision_tree(examples)
        assert [tree_predict(tree, f) for f in _all_vectors(2)] == ["x"] * 4

    def test_single_feature_split(self):
        examples = [(_vec([0, 0]), 0), (_vec([0, 1]), 0),
                    (_vec([1, 0]), 1), (_vec([1, 1]), 1)]
        assert _root_split(examples) == 0
        tree = fit_decision_tree(examples)
        for features, label in examples:
            assert tree_predict(tree, features) == label

    def test_xor_still_fit_exactly(self):
        examples = [(_vec([0, 0]), 0), (_vec([0, 1]), 1),
                    (_vec([1, 0]), 1), (_vec([1, 1]), 0)]
        tree = fit_decision_tree(examples)
        for features, label in examples:
            assert tree_predict(tree, features) == label

    def test_consistent_random_data_perfect_vs_lookup_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            lookup = {}
            examples = []
            for _ in range(40):
                bits = tuple(int(b) for b in rng.integers(0, 2, 6))
                label = lookup.setdefault(bits, int(rng.integers(0, 3)))
                examples.append((_vec(bits), label))
            tree = fit_decision_tree(examples)
            for bits, label in lookup.items():
                assert tree_predict(tree, _vec(bits)) == label

    def test_tie_breaks_to_lowest_feature_index(self):
        # feature 0 and feature 1 are identical columns: equal gain
        examples = [(_vec([0, 0, 1]), 0), (_vec([0, 0, 0]), 0),
                    (_vec([1, 1, 1]), 1), (_vec([1, 1, 0]), 1)]
        assert _root_split(examples) == 0

    def test_exact_gain_tie_breaks_to_lowest_feature_index(self):
        # both features score S = 16/5 exactly, while Gini gains computed
        # in floating point differ in the last bit and favour feature 1
        examples = [(_vec([1, 1]), 2), (_vec([1, 0]), 1), (_vec([1, 1]), 0),
                    (_vec([1, 1]), 0), (_vec([1, 1]), 0), (_vec([0, 1]), 1)]
        assert _root_split(examples) == 0

    def test_exact_tie_survives_float_rounding_of_split_score(self):
        # both features score S = A0/n0 + A1/n1 = 44/7, but in floating
        # point feature 1's S comes out one ulp larger
        bits = [(0, 1), (0, 0), (1, 1), (1, 1), (1, 0), (0, 0), (1, 0),
                (1, 0), (0, 1), (0, 0), (1, 0), (0, 1), (1, 1), (0, 1)]
        labels = [2, 0, 1, 1, 1, 1, 0, 1, 2, 0, 2, 1, 1, 2]
        assert _root_split(
            [(_vec(b), label) for b, label in zip(bits, labels)]) == 0

    def test_non_binary_feature_value_rejected(self):
        # compared before the int cast, which would turn 0.5 into 0 and
        # 1.7 or '1' into 1, and which raises TypeError on None
        for value in (2, 0.5, 1.7, "1", None):
            with pytest.raises(InputError, match="binary"):
                fit_decision_tree([(_vec([value]), 0), (_vec([1]), 1)])
        p = _cloze_problem("a", "I saw ___ dog", 0)
        q = QMatrix(["a"], ["k1", "k2"], np.ones((1, 2)))
        with pytest.raises(InputError, match="binary"):
            simulate_and_estimate(TransactionLog([("s", "a", 1, 1)]), [p],
                                  {"a": {"f0": 0.5}}, q)

    def test_leaf_majority_ties_to_lowest_label(self):
        examples = [(_vec([0]), 1), (_vec([0]), 0)]
        assert _root_split(examples) == -1
        tree = fit_decision_tree(examples)
        assert [tree_predict(tree, f) for f in _all_vectors(1)] == [0, 0]

    def test_depth_bounded_by_feature_count(self):
        rng = np.random.default_rng(5)
        examples = [(_vec([int(b) for b in rng.integers(0, 2, 4)]),
                     int(rng.integers(0, 2))) for _ in range(60)]
        tree = fit_decision_tree(examples)
        # one split per level of the query's path, and one more at its leaf
        for features in _all_vectors(4):
            with mock.patch.object(apprentice, "_best_split",
                                   wraps=_best_split) as split:
                tree_predict(tree, features)
            assert split.call_count <= 4 + 1
        assert cart_depth(cart_fit(examples)[2]) <= 4

    def test_inconsistent_feature_names_rejected(self):
        with pytest.raises(InputError):
            fit_decision_tree([({"a": 1}, 0), ({"b": 1}, 0)])

    def test_predict_unknown_feature_set_rejected(self):
        tree = fit_decision_tree([(_vec([0]), 0), (_vec([1]), 1)])
        with pytest.raises(InputError):
            tree_predict(tree, {"other": 1})

    def test_empty_examples_rejected(self):
        with pytest.raises(InputError):
            fit_decision_tree([])


def _cloze_problem(item_id, text, answer):
    return ProblemInstance(item_id=item_id, content=split_blank(text),
                           answer=answer)


def learn(curriculum, config, labels):
    """``simulate_learner`` on a (problem, features) curriculum, as a list
    of outcomes."""
    _, x = _encode([features for _, features in curriculum])
    return simulate_learner(x, [p.answer for p, _ in curriculum], config,
                            labels).tolist()


class TestSimulateLearner:
    def test_identical_problems_memorized_after_first(self):
        p = _cloze_problem("q", "I saw ___ dog", 0)
        features = article_human_features(p.content)
        curriculum = [(ProblemInstance(f"q{i}", p.content, p.answer), features)
                      for i in range(6)]
        outcomes = learn(curriculum, SimConfig(seed=1), labels=[0, 1, 2])
        assert outcomes[1:] == [1] * 5

    def test_determinism_same_seed(self):
        bundle = synth_cloze(ClozeSynthSpec(seed=2))
        feats = human_features(bundle.problems)
        curriculum = [(p, feats[p.item_id]) for p in bundle.problems[:20]]
        a = learn(curriculum, SimConfig(seed=9), labels=[0, 1, 2])
        b = learn(curriculum, SimConfig(seed=9), labels=[0, 1, 2])
        assert a == b

    def test_no_label_leakage_prefix_invariance(self):
        bundle = synth_cloze(ClozeSynthSpec(seed=3))
        feats = bundle.extras["features_full"]
        problems = bundle.problems[:24]
        curriculum = [(p, feats[p.item_id]) for p in problems]
        base = learn(curriculum, SimConfig(seed=4), labels=[0, 1, 2])
        cut = 10
        permuted = curriculum[:cut] + curriculum[cut:][::-1]
        other = learn(permuted, SimConfig(seed=4), labels=[0, 1, 2])
        assert base[:cut] == other[:cut]

    def test_fully_determining_features_reach_perfect_after_coverage(self):
        bundle = synth_cloze(ClozeSynthSpec(seed=5))
        feats = bundle.extras["features_full"]
        curriculum = [(p, feats[p.item_id]) for p in bundle.problems]
        outcomes = learn(curriculum, SimConfig(seed=0), labels=[0, 1, 2])
        # once every signature has been seen, everything later is correct
        seen = set()
        covered_at = None
        all_sigs = {tuple(sorted(feats[p.item_id].items()))
                    for p in bundle.problems}
        for i, (p, f) in enumerate(curriculum):
            seen.add(tuple(sorted(f.items())))
            if seen == all_sigs:
                covered_at = i
                break
        assert covered_at is not None
        assert all(o == 1 for o in outcomes[covered_at + 1:])

    def test_refit_every_two_defers_learning(self):
        p0 = _cloze_problem("a", "I saw ___ dog", 0)
        f0 = article_human_features(p0.content)
        curriculum = [(ProblemInstance(f"a{i}", p0.content, 0), f0)
                      for i in range(4)]
        outcomes = learn(curriculum, SimConfig(seed=3, refit_every=2),
                         labels=[0, 1])
        # attempts 1 and 2 both precede the first refit: both random draws
        # attempts 3, 4 use the tree fitted on two copies of the answer
        assert outcomes[2:] == [1, 1]

    def test_empty_curriculum_rejected(self):
        with pytest.raises(InputError, match="empty curriculum"):
            simulate_learner(np.zeros((0, 2), np.int8), [], SimConfig(seed=0),
                             [0])

    def test_row_and_answer_counts_must_match(self):
        with pytest.raises(InputError, match="3 feature rows for 2 answers"):
            simulate_learner(np.zeros((3, 2), np.int8), [0, 1],
                             SimConfig(seed=0), [0, 1])

    def test_empty_label_universe_rejected(self):
        # the first attempt has no tree and nothing to guess among
        with pytest.raises(InputError, match="no answer labels"):
            simulate_learner(np.zeros((1, 2), np.int8), [0], SimConfig(seed=0),
                             labels=[])


def cart_grow(member, x, basis):
    """The CART on the rows that ``member`` (0/1 per row) holds, grown whole
    and recursively with the split rule ``_best_split``: a node is a
    (feature, left, right) tuple and a leaf its label code."""
    counts = (member @ basis).astype(np.int64).reshape(1, x.shape[1] + 1, -1)
    if (j := int(_best_split(counts)[0])) < 0:
        return int(counts[0, -1].argmax())  # majority, ties to the lowest
    right = member * x[:, j]
    return (j, cart_grow(member - right, x, basis),
            cart_grow(right, x, basis))


def cart_fit(examples):
    """(feature names, sorted labels, root) of the whole CART on
    (features, label) examples."""
    names, x, y, labels = _coded(examples)
    return names, labels, cart_grow(np.ones(len(y)), x,
                                    _basis(x, y, len(labels)))


def cart_predict(tree, features):
    """Root-to-leaf walk, a value of 1 going right and any other left."""
    names, labels, node = tree
    while isinstance(node, tuple):
        j, left, right = node
        node = right if int(features[names[j]]) == 1 else left
    return labels[node]


def cart_depth(node):
    if not isinstance(node, tuple):
        return 0
    return 1 + max(cart_depth(node[1]), cart_depth(node[2]))


def refit_oracle(curriculum, config, labels=None):
    """The simulation loop that refits a whole recursive CART after every
    ``refit_every`` examples and walks it for each attempt."""
    if labels is None:
        labels = sorted({p.answer for p, _ in curriculum})
    rng = np.random.default_rng(config.seed)
    memory, tree, outcomes = [], None, []
    for problem, features in curriculum:
        if tree is None:
            attempt = labels[int(rng.integers(len(labels)))]
        else:
            attempt = cart_predict(tree, features)
        outcomes.append(int(attempt == problem.answer))
        memory.append((features, problem.answer))
        if len(memory) % config.refit_every == 0:
            tree = cart_fit(memory)
    return outcomes


@st.composite
def curricula(draw):
    """Curricula over a few distinct vectors (so duplicates and
    contradicting labels are common) with 1-4 answer labels."""
    n = draw(st.integers(1, 60))
    n_features = draw(st.integers(1, 8))
    n_labels = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_features,
                                  max_size=n_features), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(0, n_labels - 1)),
                          min_size=n, max_size=n))
    return [(ProblemInstance(f"i{k}", None, answer), _vec(pool[v]))
            for k, (v, answer) in enumerate(picks)]


class TestPathDescentEquivalence:
    @settings(deadline=None, max_examples=150)
    @given(curriculum=curricula(), refit_every=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_refit_every_example_oracle(self, curriculum,
                                                  refit_every, seed):
        config = SimConfig(seed=seed, refit_every=refit_every)
        labels = [0, 1, 2, 3]
        assert learn(curriculum, config, labels=labels) == \
            refit_oracle(curriculum, config, labels=labels)

    @settings(deadline=None, max_examples=150)
    @given(curriculum=curricula())
    def test_path_label_matches_fitted_tree(self, curriculum):
        # every (prefix, distinct query) pair in one call: the queries are
        # appended as rows that no prefix reaches, each with its prefix
        examples = [(f, p.answer) for p, f in curriculum]
        names, x, y, labels = _coded(examples)
        queries = np.unique(x, axis=0)
        n, m = len(y), len(queries)
        prefixes = np.repeat(np.arange(1, n + 1), m)
        codes = _attempt_codes(np.vstack([x, np.tile(queries, (n, 1))]),
                               np.concatenate([y, np.zeros(n * m, np.int64)]),
                               np.concatenate([np.zeros(n, np.int64), prefixes]))
        assert (codes[:n] == -1).all()
        trees = [cart_fit(examples[:f]) for f in range(1, n + 1)]
        for code, fitted, query in zip(codes[n:].tolist(), prefixes.tolist(),
                                       np.tile(queries, (n, 1)).tolist()):
            assert labels[code] == cart_predict(trees[fitted - 1],
                                                dict(zip(names, query)))

    @settings(deadline=None, max_examples=100)
    @given(curriculum=curricula(), data=st.data())
    def test_tree_predict_matches_recursive_cart(self, curriculum, data):
        examples = [(f, p.answer) for p, f in curriculum]
        tree, oracle = fit_decision_tree(examples), cart_fit(examples)
        # a value other than 0 or 1 takes the 0 side in both
        for bits in data.draw(st.lists(st.lists(
                st.integers(0, 2), min_size=len(tree.feature_names),
                max_size=len(tree.feature_names)), min_size=1, max_size=5)):
            assert tree_predict(tree, _vec(bits)) == \
                cart_predict(oracle, _vec(bits))

    def test_inconsistent_feature_names_rejected(self):
        # one learner whose two items name different features
        problems = [_cloze_problem("a", "I saw ___ dog", 0),
                    _cloze_problem("b", "I saw ___ cat", 0)]
        q = QMatrix(["a", "b"], ["k1", "k2"], np.ones((2, 2)))
        log = TransactionLog([("s", "a", 1, 1), ("s", "b", 0, 2)])
        with pytest.raises(InputError, match="feature names"):
            simulate_and_estimate(log, problems, {"a": {"f0": 1},
                                                  "b": {"f1": 1}}, q)


def exact_path_code(x, y, fitted, query):
    """Label code of the exact-Gini CART on rows ``[:fitted]`` for
    ``query``, growing only the query's path: per node, the feature with the
    largest S = A0/n0 + A1/n1 as a ``Fraction``, lowest index among equals;
    a leaf at one label or when no feature separates the rows."""
    rows = np.arange(fitted)
    while True:
        counts = Counter(y[rows].tolist())
        best, best_s = None, None
        for j in range(x.shape[1]) if len(counts) > 1 else ():
            sides = [rows[x[rows, j] == v] for v in (0, 1)]
            if all(len(side) for side in sides):
                s = sum(Fraction(sum(c * c for c in Counter(
                    y[side].tolist()).values()), len(side)) for side in sides)
                if best_s is None or s > best_s:
                    best, best_s = j, s
        if best is None:
            return min(counts, key=lambda label: (-counts[label], label))
        rows = rows[x[rows, best] == query[best]]


@st.composite
def tied_curricula(draw):
    """Up to 300 attempts whose 0-6 feature columns are copies or
    complements of at most three source columns, so exact split ties are
    the rule; 1-3 labels."""
    n = draw(st.integers(1, 300))
    n_labels = draw(st.integers(1, 3))
    n_sources = draw(st.integers(1, 3))
    columns = draw(st.lists(st.tuples(st.integers(0, n_sources - 1),
                                      st.integers(0, 1)), max_size=6))
    pool = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_sources,
                                  max_size=n_sources), min_size=1, max_size=8))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(0, n_labels - 1)),
                          min_size=n, max_size=n))
    x = np.array([[pool[v][src] ^ flip for src, flip in columns]
                  for v, _ in picks], dtype=np.int8).reshape(n, len(columns))
    return x, np.array([label for _, label in picks], dtype=np.int64)


class TestBatchedPathDescent:
    @settings(deadline=None, max_examples=60)
    @given(data=tied_curricula(), refit_every=st.integers(1, 3),
           cells=st.integers(1, 2000))
    def test_codes_match_exact_fraction_oracle(self, data, refit_every,
                                               cells):
        x, y = data
        fitted = np.arange(len(y)) - np.arange(len(y)) % refit_every
        with mock.patch.object(apprentice, "CELLS", cells):  # many blocks
            codes = _attempt_codes(x, y, fitted)
        assert codes.tolist() == [
            exact_path_code(x, y, f, q) if f else -1
            for f, q in zip(fitted.tolist(), x)]

    def test_exact_tie_with_different_denominators(self):
        # both features score S = 4 exactly, f0 as 28/7 (n0, n1 = 7, 1) and
        # f1 as 64/16 (4, 4); splitting on f0 (the lowest index) sends the
        # last query (1, 1) to the one row labelled 2, splitting on f1 to
        # a majority of 1s
        bits = [(0, 0), (1, 0), (0, 0), (0, 1), (0, 1), (0, 1), (0, 1), (0, 0),
                (1, 1)]
        answers = [0, 2, 1, 1, 1, 1, 2, 0, 2]
        curriculum = [(ProblemInstance(f"i{k}", None, answer), _vec(b))
                      for k, (b, answer) in enumerate(zip(bits, answers))]
        assert learn(curriculum, SimConfig(seed=0), labels=[0, 1, 2])[-1] == 1


def pooled_learners(log, problems, features, sim):
    """The simulated log as one ``simulate_learner`` per student over that
    student's rows in row order, seeded from ``sim.seed`` in sorted student
    order, with the log's orders and the students pooled in sorted order."""
    by_id = {p.item_id: p for p in problems}
    labels = sorted({p.answer for p in problems})
    rows = list(log.records())
    students = sorted({student for student, *_ in rows})
    seeds = np.random.SeedSequence(sim.seed).spawn(len(students))
    pooled = []
    for student, seq in zip(students, seeds):
        mine = [(item, order) for s, item, _, order in rows if s == student]
        config = SimConfig(seed=int(seq.generate_state(1)[0]),
                           refit_every=sim.refit_every)
        outcomes = learn([(by_id[item], features[item]) for item, _ in mine],
                         config, labels)
        pooled += [(student, item, outcome, order)
                   for (item, order), outcome in zip(mine, outcomes)]
    return pooled


@st.composite
def studies(draw):
    """A log whose students' rows interleave, with ids that do not sort in
    row order and orders with gaps, over 1-6 items; a 0-4 feature table
    over those items; answers from up to 4 labels, some of them only on
    problems the log never visits, so that learners meet few labels."""
    n_items = draw(st.integers(1, 6))
    n_labels = draw(st.integers(1, 4))
    answers = draw(st.lists(st.integers(0, n_labels - 1),
                            min_size=n_items + 2, max_size=n_items + 2))
    problems = [ProblemInstance(f"i{k}", None, a)
                for k, a in enumerate(answers)]
    n_features = draw(st.integers(0, 4))
    features = {p.item_id: _vec(draw(st.lists(
        st.integers(0, 1), min_size=n_features, max_size=n_features)))
        for p in problems}
    ids = ["s3", "s10", "s1", "s2"]
    last = dict.fromkeys(ids, 0)
    rows = []
    for s, k in draw(st.lists(st.tuples(st.sampled_from(ids),
                                        st.integers(0, n_items - 1)),
                              min_size=1, max_size=30)):
        last[s] += draw(st.integers(1, 3))
        rows.append((s, f"i{k}", draw(st.integers(0, 1)), last[s]))
    return TransactionLog(rows), problems, features


class TestStudyEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2])
    @settings(deadline=None, max_examples=40)
    @given(study=studies(), refit_every=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_simulated_log_is_the_pooled_learners(self, jobs, study,
                                                  refit_every, seed):
        log, problems, features = study
        # the study needs two KCs; the property is about the simulated log
        q = QMatrix([p.item_id for p in problems], ["k1", "k2"],
                    np.ones((len(problems), 2)))
        sim = SimConfig(seed=seed, refit_every=refit_every)
        # two copies of one KC need not correlate: report nothing
        with mock.patch.object(apprentice, "param_report"):
            simulated = simulate_and_estimate(log, problems, features, q,
                                              sim=sim, jobs=jobs).simulated_log
        assert list(simulated.records()) == \
            pooled_learners(log, problems, features, sim)


class TestSimulateAndEstimate:
    def _study_inputs(self, n_students=6, seed=11):
        bundle = synth_cloze(ClozeSynthSpec(seed=7))
        feats = bundle.extras["features_full"]
        problems = bundle.problems
        pooled = []
        order_rng = np.random.default_rng(seed)
        sim_seeds = np.random.SeedSequence(seed).spawn(n_students)
        for s in range(n_students):
            perm = order_rng.permutation(len(problems))
            curriculum = [(problems[i], feats[problems[i].item_id])
                          for i in perm]
            outcomes = learn(
                curriculum, SimConfig(seed=int(sim_seeds[s].generate_state(1)[0])),
                labels=[0, 1, 2])
            pooled.extend((f"s{s:02d}", p.item_id, outcome, order)
                          for order, ((p, _), outcome) in enumerate(
                              zip(curriculum, outcomes), start=1))
        return bundle, TransactionLog(pooled)

    def test_replaying_same_seed_gives_perfect_correlation(self):
        bundle, log = self._study_inputs()
        q = bundle.extras["oracle_q"]
        feats = bundle.extras["features_full"]
        study = simulate_and_estimate(log, bundle.problems, feats, q,
                                      sim=SimConfig(seed=21))
        again = simulate_and_estimate(log, bundle.problems, feats, q,
                                      sim=SimConfig(seed=21))
        assert study.simulated_log.rows == again.simulated_log.rows
        report = study.report
        assert report.slope_correlation is not None
        assert math.isfinite(report.slope_correlation)

    def test_study_fits_penalize_beta_and_gamma_by_default(self):
        bundle, log = self._study_inputs(n_students=6)
        q = bundle.extras["oracle_q"]
        human = human_features(bundle.problems)
        study = simulate_and_estimate(log, bundle.problems, human, q,
                                      sim=SimConfig(seed=4))
        explicit = simulate_and_estimate(
            log, bundle.problems, human, q, sim=SimConfig(seed=4),
            fit=FitConfig(l2_beta_gamma=STUDY_L2_BETA_GAMMA))
        unpenalized = simulate_and_estimate(
            log, bundle.problems, human, q, sim=SimConfig(seed=4),
            fit=FitConfig())
        assert study.report == explicit.report
        assert study.report != unpenalized.report

    def test_simulated_log_mirrors_orders_and_students(self):
        bundle, log = self._study_inputs()
        q = bundle.extras["oracle_q"]
        study = simulate_and_estimate(
            log, bundle.problems, human_features(bundle.problems), q,
            sim=SimConfig(seed=3))
        orig = [(s, item, order) for s, item, _, order in log.rows]
        sim = [(s, item, order)
               for s, item, _, order in study.simulated_log.rows]
        assert sorted(orig) == sorted(sim)

    def test_study_runs_the_public_learner(self, monkeypatch):
        bundle, log = self._study_inputs(n_students=4)
        q = bundle.extras["oracle_q"]
        feats = bundle.extras["features_full"]
        unpatched = simulate_and_estimate(log, bundle.problems, feats, q,
                                          sim=SimConfig(seed=6))
        calls = []

        def counting(*args):
            calls.append(args)
            return simulate_learner(*args)

        monkeypatch.setattr(apprentice, "simulate_learner", counting)
        study = simulate_and_estimate(log, bundle.problems, feats, q,
                                      sim=SimConfig(seed=6), jobs=1)
        assert len(calls) == len(log.columns.students) == 4
        assert list(study.simulated_log.records()) == \
            list(unpatched.simulated_log.records())
        assert study.report == unpatched.report

    def test_jobs_do_not_change_study(self):
        bundle, log = self._study_inputs(n_students=4)
        q = bundle.extras["oracle_q"]
        human = human_features(bundle.problems)
        a = simulate_and_estimate(log, bundle.problems, human, q,
                                  sim=SimConfig(seed=2), jobs=1)
        b = simulate_and_estimate(log, bundle.problems, human, q,
                                  sim=SimConfig(seed=2), jobs=3)
        assert a.simulated_log.rows == b.simulated_log.rows

    def test_missing_feature_row_names_the_item(self):
        bundle, log = self._study_inputs(n_students=2)
        feats = dict(bundle.extras["features_full"])
        missing = log.rows[0][1]
        del feats[missing]
        with pytest.raises(InputError, match=repr(missing)):
            simulate_and_estimate(log, bundle.problems, feats,
                                  bundle.extras["oracle_q"])

    def test_human_features_need_cloze_content(self):
        image = ProblemInstance("img", np.zeros((1, 2, 2)), 0)
        with pytest.raises(InputError, match="cloze content"):
            human_features([image])

    def test_cogrl_features_from_thresholded_matrix(self):
        bundle, log = self._study_inputs(n_students=8)
        q = bundle.extras["oracle_q"]
        rows = {item: dict(zip(q.kc_names, q.row(item).tolist()))
                for item in q.item_ids}
        # one-hot rule columns as binary input features fully determine the
        # answer, so every KC is learnable from these features
        study = simulate_and_estimate(log, bundle.problems, rows, q,
                                      sim=SimConfig(seed=13))
        assert min(study.report.slopes) > 0.2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_feature_names_checked_across_students(self, jobs):
        bundle = synth_cloze(ClozeSynthSpec(seed=1))
        items = [p.item_id for p in bundle.problems]
        feats = dict(bundle.extras["features_full"])
        for item in items[35:]:
            feats[item] = {f"x_{k}": v for k, v in feats[item].items()}
        # student a works items 0-34 and student b items 35-69, so each
        # learner alone sees one consistent set of names
        split = TransactionLog(
            [("a" if k < 35 else "b", item, k % 2, k + 1)
             for k, item in enumerate(items)])
        alone = TransactionLog(
            [("a", item, k % 2, k + 1) for k, item in enumerate(items)])
        for log in (split, alone):
            with pytest.raises(InputError, match="inconsistent feature names"):
                simulate_and_estimate(log, bundle.problems, feats,
                                      bundle.extras["oracle_q"], jobs=jobs)

    def test_monotone_success_over_opportunities_with_full_features(self):
        bundle, log = self._study_inputs(n_students=20, seed=5)
        q = bundle.extras["oracle_q"]
        feats = bundle.extras["features_full"]
        study = simulate_and_estimate(log, bundle.problems, feats, q,
                                      sim=SimConfig(seed=8))
        table = compute_opportunities(study.simulated_log, q)
        by_kc: dict[str, dict[str, list[int]]] = {}
        for (_, _, outcome, _), opps in zip(study.simulated_log.rows,
                                            table.rows):
            for kc, t in opps.items():
                bucket = "first" if t == 0 else "later"
                by_kc.setdefault(kc, {}).setdefault(bucket, []).append(
                    outcome)
        for kc, buckets in by_kc.items():
            if "first" in buckets and "later" in buckets:
                assert np.mean(buckets["later"]) >= np.mean(buckets["first"])
