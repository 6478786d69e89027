"""Simulated apprentice learners.

A simulated student sees problems in the same order a real student did.
For each problem it first attempts an answer from the worked examples of
its last refit (a decision tree over binary input features; before any
training it guesses uniformly at random among the dataset's answer labels),
then is told the correct answer and keeps the worked example. The pooled
first-attempt logs are then fit with the Additive Factors Model so skill
difficulty and learning-rate estimates can be compared against estimates
from the original log.

Feature vectors are either the six hand-written article-selection
predicates below (``human_features``) or any caller-provided binary
features, such as the thresholded learned-representation dimensions.

A learner's predictions come from one batched, level-synchronous descent:
each attempt holds its current node as a 0/1 membership over the learner's
worked examples, one matrix product per tree level gives every node's label
counts, one vectorized split rule (``_best_split``) picks every node's
feature, and the attempts that reach a leaf drop out. No whole tree is ever
built: ``tree_predict`` answers a ``fit_decision_tree`` query with the same
descent over the tree's training rows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .afm import (
    FitConfig,
    FitDiagnostics,
    ParamReport,
    TransactionLog,
    afm_fit,
    param_report,
)
from .cogmodel import QMatrix
from .errors import ConfigurationError, InputError
from .parallel import run_tasks
from .problems import ClozeContent, ProblemInstance

# The L2 penalty on beta and gamma of the study's fits: a simulated log can
# be separable (a learner with every feature it needs errs on no seen
# vector), and then only a penalty gives its fit an optimum.
STUDY_L2_BETA_GAMMA = 0.01

TOKEN_RE = re.compile(r"[a-z]+")
VOWELS = set("aeiou")

ARTICLE_FEATURE_NAMES = [
    "next_word_starts_with_vowel",
    "next_word_ending_st_nd_rd_th",
    "contains_that_where_who",
    "next_word_already_mentioned",
    "next_word_ends_in_s",
    "contains_but_comma",
]


def article_human_features(question: ClozeContent) -> dict[str, int]:
    """The six expert-written binary predicates for article selection.

    Tokens are maximal alphabetic runs of the lowercased text. The
    following-word features are 0 when nothing follows the blank.
    """
    pre_tokens = TOKEN_RE.findall(question.prefix.lower())
    post_tokens = TOKEN_RE.findall(question.suffix.lower())
    all_tokens = pre_tokens + post_tokens
    next_word = post_tokens[0] if post_tokens else ""
    mentioned = 0
    if next_word:
        mentioned = int(next_word in pre_tokens or next_word in post_tokens[1:])
    return {
        "next_word_starts_with_vowel": int(bool(next_word)
                                           and next_word[0] in VOWELS),
        "next_word_ending_st_nd_rd_th": int(next_word.endswith(
            ("st", "nd", "rd", "th"))),
        "contains_that_where_who": int(bool({"that", "where", "who"}
                                            & set(all_tokens))),
        "next_word_already_mentioned": mentioned,
        "next_word_ends_in_s": int(next_word.endswith("s")),
        "contains_but_comma": int("," in question.text
                                  or "but" in all_tokens),
    }


# ---------------------------------------------------------------------------
# decision tree


@dataclass
class DecisionTree:
    """A CART on 0/1 features, kept as its training rows: ``x`` in
    ``feature_names`` order and ``y`` as codes into the sorted ``labels``."""

    feature_names: list[str]
    x: np.ndarray
    y: np.ndarray
    labels: list


def _codes(values, labels) -> np.ndarray:
    """Each label's index in ``values``, -1 where it is none of them."""
    index = {v: c for c, v in enumerate(values)}
    return np.array([index.get(label, -1) for label in labels], dtype=np.int64)


def _encode(feature_rows):
    """Feature dicts as an (n, F) int8 matrix in the first row's name order,
    which every row's names must match; no rows give a (0, 0) matrix."""
    names = next(iter(feature_rows), {}).keys()
    if any(features.keys() != names for features in feature_rows):
        raise InputError("inconsistent feature names across examples")
    rows = [[f[name] for name in names] for f in feature_rows]
    # compared before the cast, which would truncate 0.5 or parse '1'
    if not all(v == 0 or v == 1 for row in rows for v in row):
        raise InputError("features must be binary")
    return list(names), np.array(rows, dtype=np.int8).reshape(
        len(rows), len(names))


# attempts whose nodes are held at once: at most this many (attempt, row)
# membership cells, so a long curriculum does not raise peak memory
CELLS = 1 << 16


def _basis(x: np.ndarray, y: np.ndarray, n_labels: int) -> np.ndarray:
    """(n, (F + 1) * L) float64 rows: each row's one-hot label in the block
    of every feature it has set, then once more in a last block, so a 0/1
    row membership times this basis gives a node's label counts at
    x[:, j] == 1 for each feature j, then over all of its rows."""
    onehot = np.eye(n_labels)[y]
    return np.concatenate([x[:, :, None] * onehot[:, None, :],
                           onehot[:, None, :]], axis=1).reshape(len(y), -1)


def _best_split(counts: np.ndarray) -> np.ndarray:
    """For each node's (F + 1, L) label counts (as ``_basis`` lays them out,
    int64), the feature whose 0/1 split most reduces Gini impurity, ties
    going to the lowest index; -1 when the node is a leaf (one label, or no
    feature separates its rows).

    Gini gain is monotone in S = A0/n0 + A1/n1, A being the sum of squared
    label counts on a side. Float S shortlists the features within rounding
    of the maximum; exact integer ratios pick among them.
    """
    ones, total = counts[:, :-1], counts[:, -1:]
    if ones.shape[1] == 0:
        return np.full(len(counts), -1)
    zeros = total - ones
    n1, n0 = ones.sum(axis=2), zeros.sum(axis=2)
    a1, a0 = (ones * ones).sum(axis=2), (zeros * zeros).sum(axis=2)
    s = np.where((n0 > 0) & (n1 > 0),  # else the feature does not separate
                 a0 / np.maximum(n0, 1) + a1 / np.maximum(n1, 1), -1.0)
    top = s.max(axis=1)
    best = np.where((np.count_nonzero(total[:, 0], axis=1) > 1) & (top >= 0),
                    s.argmax(axis=1), -1)
    shortlist = s >= top[:, None] * (1.0 - 1e-9)
    for b in np.flatnonzero((best >= 0) & (shortlist.sum(axis=1) > 1)):
        tied = np.flatnonzero(shortlist[b]).tolist()
        den = {j: int(n0[b, j]) * int(n1[b, j]) for j in tied}
        common = math.lcm(*den.values())  # S as Python-int numerators over this
        best[b] = max(tied, key=lambda j: (common // den[j] * (
            int(a0[b, j]) * int(n1[b, j]) + int(a1[b, j]) * int(n0[b, j])), -j))
    return best


def _attempt_codes(x: np.ndarray, y: np.ndarray,
                   fitted: np.ndarray) -> np.ndarray:
    """Label code that the CART on rows ``[:fitted[i]]`` of (x, y) predicts
    for the query ``x[i]``, for every i (-1 where ``fitted[i]`` is 0).

    Only the nodes on the queries' paths are grown, all attempts one tree
    level per pass: each live attempt holds its node as a 0/1 membership
    over the rows, one matrix product gives every node's label counts, and
    each non-leaf keeps the rows that match its query on the split feature.
    """
    codes = np.full(len(y), -1)
    n = int(fitted.max())  # the rows that any attempt's tree was fit on
    if n == 0:
        return codes
    basis = _basis(x[:n], y[:n], int(y.max()) + 1)
    live = np.flatnonzero(fitted > 0)
    block = max(1, CELLS // n)
    for start in range(0, len(live), block):
        attempts = live[start:start + block]
        member = (np.arange(n) < fitted[attempts, None]).astype(np.float64)
        while len(attempts):
            counts = (member @ basis).astype(np.int64).reshape(
                len(attempts), x.shape[1] + 1, -1)
            j = _best_split(counts)
            leaf = j < 0
            codes[attempts[leaf]] = counts[leaf, -1].argmax(axis=1)
            attempts, member, j = attempts[~leaf], member[~leaf], j[~leaf]
            member *= x[:n, j].T == x[attempts, j][:, None]
    return codes


def fit_decision_tree(examples) -> DecisionTree:
    """Greedy binary CART on 0/1 features with Gini impurity.

    Splits maximize impurity reduction, ties going to the lowest feature
    index, and growth continues while any feature still separates the node
    (so contradiction-free data is always fit exactly). Leaves take the
    majority label, ties going to the lowest label. Only the examples are
    kept: ``tree_predict`` grows the one path a query follows.
    """
    examples = list(examples)
    if not examples:
        raise InputError("fit_decision_tree needs at least one example")
    feature_rows, answers = zip(*examples)
    labels = sorted(set(answers))
    return DecisionTree(*_encode(feature_rows), _codes(labels, answers),
                        labels)


def tree_predict(tree: DecisionTree, features: dict[str, int]):
    """The label of the leaf that ``features`` reaches, a value of 1 going
    to the feature's 1 side and any other value to its 0 side."""
    if set(features.keys()) != set(tree.feature_names):
        raise InputError("feature names do not match the trained tree")
    query = np.array([[int(features[name]) == 1
                       for name in tree.feature_names]], dtype=np.int8)
    n = len(tree.y)
    # the query is one more row, answered by the tree on all n rows before it
    codes = _attempt_codes(np.vstack([tree.x, query]), np.append(tree.y, 0),
                           np.append(np.zeros(n, np.int64), n))
    return tree.labels[codes[-1]]


# ---------------------------------------------------------------------------
# simulation


@dataclass
class SimConfig:
    seed: int = 0
    refit_every: int = 1

    def __post_init__(self):
        if self.refit_every < 1:
            raise ConfigurationError("refit_every must be at least 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


def simulate_learner(x: np.ndarray, answers, config: SimConfig,
                     labels) -> np.ndarray:
    """Run one apprentice through a curriculum: its (n, F) 0/1 feature rows
    and answer labels, in order. Returns each first attempt's 0/1 outcome.

    Attempt i answers with the tree fit on the first i - i % refit_every
    worked examples, so the current problem's answer is never visible to
    its own attempt. Before any fit it guesses uniformly among ``labels``,
    the dataset's answer-label universe, one draw per such attempt from
    ``default_rng(config.seed)``, in attempt order.

    No tree is built: every attempt's root-to-leaf path in the tree of its
    last refit is grown at once, one tree level per pass over all attempts
    (``_attempt_codes``), in blocks of attempts that bound the memory held.
    """
    if not len(answers):
        raise InputError("empty curriculum")
    if len(x) != len(answers):
        raise InputError(f"{len(x)} feature rows for {len(answers)} answers")
    values = sorted(set(answers))
    y = _codes(values, answers)
    guesses = _codes(values, labels)
    if not len(guesses):
        raise InputError("no answer labels to guess among")
    step = np.arange(len(y))
    codes = _attempt_codes(x, y, step - step % config.refit_every)
    rng = np.random.default_rng(config.seed)
    for i in np.flatnonzero(codes < 0).tolist():
        codes[i] = guesses[int(rng.integers(len(guesses)))]
    return (codes == y).astype(np.int64)


@dataclass
class SimulationStudy:
    """Outcome of the simulate-and-estimate comparison."""

    simulated_log: TransactionLog
    report: ParamReport  # sim columns first, original as reference
    original_fit: FitDiagnostics
    simulated_fit: FitDiagnostics

    def to_tsv_lines(self) -> list[str]:
        """Per-KC table: original estimates first, then simulated, then a
        correlations footer row."""
        lines = ["kc\torig_intercept\torig_slope\tsim_intercept\tsim_slope"]
        r = self.report
        for kc, si, ss, oi, os_ in zip(r.kc_names, r.intercepts, r.slopes,
                                       r.ref_intercepts, r.ref_slopes):
            lines.append(f"{kc}\t{oi:.6f}\t{os_:.6f}\t{si:.6f}\t{ss:.6f}")
        lines.append(
            f"correlation_with_original\t\t\t{r.intercept_correlation:.6f}"
            f"\t{r.slope_correlation:.6f}")
        return lines


def human_features(problems) -> dict[str, dict[str, int]]:
    """The six article predicates of every problem, keyed by item id."""
    features = {}
    for p in problems:
        if not isinstance(p.content, ClozeContent):
            raise InputError(f"human features need cloze content ({p.item_id})")
        features[p.item_id] = article_human_features(p.content)
    return features


def simulate_and_estimate(original_log: TransactionLog,
                          problems: list[ProblemInstance],
                          features: dict[str, dict[str, int]],
                          q_eval: QMatrix,
                          fit: FitConfig | None = None,
                          sim: SimConfig | None = None,
                          jobs: int = 1) -> SimulationStudy:
    """Simulate one apprentice per student and compare AFM estimates.

    Each simulated learner replays its student's exact item sequence from
    the original log on binary ``features`` keyed by item id (such as
    ``human_features`` or the rows of a thresholded Q-matrix), the same
    names in every log item's row. The log's items are encoded once; each
    learner (one ``simulate_learner`` call) gets its student's rows and
    answer labels and a seed spawned from ``sim.seed`` in sorted student
    order, and the simulated log is the original's rows
    grouped that way with the learners' outcomes. Both logs are fit against
    ``q_eval`` and the per-KC intercepts and slopes are correlated. jobs > 1
    simulates the students in worker processes, with the same result.
    Without ``fit``, both fits use ``l2_beta_gamma = STUDY_L2_BETA_GAMMA``.
    """
    if q_eval.n_kcs < 2:
        raise InputError(f"q_eval needs at least 2 KCs to correlate per-KC "
                         f"parameters, got {q_eval.n_kcs}")
    fit = fit or FitConfig(l2_beta_gamma=STUDY_L2_BETA_GAMMA)
    sim = sim or SimConfig()
    by_id = {p.item_id: p for p in problems}
    cols = original_log.columns
    for item in cols.items:
        if item not in by_id:
            raise InputError(f"log item {item!r} has no problem content")
        if item not in features:
            raise InputError(f"log item {item!r} has no feature row")
    _, x = _encode([features[item] for item in cols.items])
    answers = [by_id[item].answer for item in cols.items]
    labels = sorted({p.answer for p in problems})
    by = np.argsort(cols.student, kind="stable")
    curricula = np.split(cols.item[by],
                         np.cumsum(np.bincount(cols.student))[:-1])
    seeds = np.random.SeedSequence(sim.seed).spawn(len(cols.students))
    outcomes = run_tasks(simulate_learner, [
        (x[mine], [answers[i] for i in mine.tolist()],
         SimConfig(seed=int(seq.generate_state(1)[0]),
                   refit_every=sim.refit_every), labels)
        for seq, mine in zip(seeds, curricula)], jobs)
    simulated_log = TransactionLog.from_columns(cols._replace(
        student=cols.student[by], item=cols.item[by], order=cols.order[by],
        # float64 like every log's outcomes, and defined for no students
        y=np.concatenate([np.zeros(0), *outcomes])))

    fitted, simulated_fit = afm_fit(simulated_log, q_eval, fit)
    reference, original_fit = afm_fit(original_log, q_eval, fit)
    return SimulationStudy(simulated_log, param_report(
        fitted, q_eval, reference=reference), original_fit, simulated_fit)
