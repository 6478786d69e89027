"""Additive Factors Model fitting and evaluation.

The model predicts first-attempt correctness as

    p = sigmoid(theta_student + sum over the item's KCs of
                (beta_kc + gamma_kc * opportunity_count))

where the opportunity count is how many of the student's prior transactions
required that KC. Fitting maximizes the L2-penalized Bernoulli
log-likelihood, keeping all learning rates non-negative, by projected
Newton iterated until the Newton decrement is negligible: every Hessian
block is one ``np.bincount`` pass, and one Schur step reduces each Newton
system to the students or to the KC coordinates. Model comparison uses
item-stratified cross-validated RMSE: folds partition items, so a model
only scores well if its KCs carry information across problems.

Data are columnar: a log is its columns, coded and validated in one pass,
and each Q-matrix adds one CSR-ordered array of (row, KC, opportunity)
pairs, from which ``afm_logits`` computes every logit of the fit, scoring
and log sampler. A CV fold is a boolean mask over those arrays; the softplus
max(eta, 0) + log1p(exp(-|eta|)) leaves exp(-|eta|) to the next gradient.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .cogmodel import QMatrix
from .errors import (
    ConfigurationError,
    FitError,
    InputError,
    read_table,
    write_lines,
)
from .neuralcore.layers import sigmoid
from .parallel import run_tasks


# ---------------------------------------------------------------------------
# transaction logs


Transaction = NamedTuple("Transaction", [
    ("student_id", str), ("item_id", str), ("outcome", int), ("order", int)])


# a log column-wise: the distinct student and item ids (a TransactionLog
# sorts them), per row their indices into them, the outcome and the order
LogColumns = namedtuple("LogColumns", "students items student item y order")


def _code(ids):
    """The sorted distinct ids, and each id's index into them."""
    distinct = sorted(set(ids))
    index = {v: k for k, v in enumerate(distinct)}
    return distinct, np.array([index[v] for v in ids], dtype=np.intp)


_INT64 = range(-2 ** 63, 2 ** 63)


class TransactionLog:
    """Ordered first-attempt records, stored as columns.

    Takes (student_id, item_id, outcome, order) tuples. Per student, orders
    strictly increase in row sequence and (student, order) pairs are unique;
    the first broken rule raises InputError naming its row via ``where``,
    after every order is checked to be an integer within int64.
    """

    def __init__(self, rows, where=None):
        where = where or (lambda i: f"row {i + 1}")
        rows = list(rows)
        student_ids, item_ids, outcomes, orders = (
            [row[k] for row in rows] for k in range(4))
        students, student = _code(student_ids)
        items, item = _code(item_ids)
        # an outcome other than 0 or 1 reads as NaN
        y = np.fromiter(map({0: 0.0, 1: 1.0}.get, outcomes, repeat(math.nan)),
                        np.float64, len(outcomes))
        # an order is a Python or numpy integer within int64
        if not all(type(o) is int and o in _INT64 for o in orders):
            for i, o in enumerate(orders):
                if not (isinstance(o, (int, np.integer)) and int(o) in _INT64):
                    raise InputError(f"{where(i)}: order must be an integer "
                                     f"within int64, got {o!r}")
        order = np.array(orders, dtype=np.int64)
        # rows whose order does not exceed their student's previous order
        by = np.argsort(student, kind="stable")
        behind = np.zeros(len(order), dtype=bool)
        behind[by[1:]] = (student[by[1:]] == student[by[:-1]]) \
            & (order[by[1:]] <= order[by[:-1]])
        bad = np.flatnonzero(np.isnan(y) | (order < 1) | behind)
        if len(bad):
            i = int(bad[0])
            key = (student_ids[i], orders[i])
            seen = [j for j in range(i) if (student_ids[j], orders[j]) == key]
            if np.isnan(y[i]):
                problem = f"outcome must be 0 or 1, got {outcomes[i]!r}"
            elif order[i] < 1:
                problem = f"order must be positive, got {orders[i]}"
            elif seen:
                problem = (f"duplicate (student, order) {key} first seen at "
                           f"{where(seen[0])}")
            else:
                problem = (f"orders not strictly increasing for student "
                           f"{student_ids[i]!r} at order {orders[i]}")
            raise InputError(f"{where(i)}: {problem}")
        self.columns = LogColumns(students, items, student, item, y, order)

    def __len__(self):
        return len(self.columns.y)

    def records(self):
        """Per row, (student_id, item_id, outcome, order) as plain values."""
        c = self.columns
        return zip(map(c.students.__getitem__, c.student.tolist()),
                   map(c.items.__getitem__, c.item.tolist()),
                   c.y.astype(np.int64).tolist(), c.order.tolist())

    @cached_property
    def rows(self) -> tuple[Transaction, ...]:
        return tuple(map(Transaction._make, self.records()))


# ---------------------------------------------------------------------------
# opportunity counting


# (row, KC, opportunity) triples as three arrays, ordered by row then by KC
Pairs = namedtuple("Pairs", "row kc t")


def opportunity_pairs(cols: LogColumns, q: QMatrix) -> Pairs:
    """Per transaction and required KC, how many of the student's earlier
    transactions required that KC, whatever their outcome."""
    cells = np.array([q.row(item) for item in cols.items],
                     dtype=bool).reshape(len(cols.items), q.n_kcs)
    per_item = cells.sum(axis=1)
    lengths = per_item[cols.item]
    row = np.repeat(np.arange(len(lengths)), lengths)
    # pair p of row r is KC number p - (first pair of r) of r's item
    offset = (np.cumsum(per_item) - per_item)[cols.item] \
        - (np.cumsum(lengths) - lengths)
    kc = np.nonzero(cells)[1][np.arange(len(row)) + np.repeat(offset, lengths)]
    # a stable sort keeps each (student, KC) group in row order
    key = cols.student[row] * q.n_kcs + kc
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    t = np.empty(len(row), dtype=np.int64)
    t[order] = np.arange(len(row)) - np.repeat(
        starts, np.diff(starts, append=len(row)))
    return Pairs(row, kc, t)


@dataclass
class OpportunityTable:
    """Per transaction, the prior-practice count for each KC its item needs."""

    rows: list[dict[str, int]]


def compute_opportunities(log: TransactionLog, q: QMatrix) -> OpportunityTable:
    """The opportunity pairs of ``log`` as one {KC name: count} per row."""
    pairs = opportunity_pairs(log.columns, q)
    rows: list[dict[str, int]] = [{} for _ in range(len(log))]
    for r, k, t in zip(pairs.row.tolist(), pairs.kc.tolist(), pairs.t.tolist()):
        rows[r][q.kc_names[k]] = t
    return OpportunityTable(rows)


# ---------------------------------------------------------------------------
# parameters and configuration


@dataclass
class AFMParams:
    """Student proficiencies, KC easiness and KC learning rates (logits)."""

    theta: dict[str, float]
    beta: dict[str, float]
    gamma: dict[str, float]

    def __post_init__(self):
        for name, vals in (("theta", self.theta), ("beta", self.beta),
                           ("gamma", self.gamma)):
            for key, v in vals.items():
                if not np.isfinite(v):
                    raise InputError(f"non-finite {name}[{key!r}]")
        for key, v in self.gamma.items():
            if v < 0:
                raise InputError(f"gamma[{key!r}] must be non-negative")


@dataclass
class FitConfig:
    """L2 penalties, and when a fit stops: once the Newton decrement is at
    most tol * max(1, |objective|), or after max_iter Newton steps."""

    l2_theta: float = 1.0
    l2_beta_gamma: float = 0.0
    tol: float = 1e-14
    max_iter: int = 500

    def __post_init__(self):
        # written so that NaN fails every check
        if not all(math.isfinite(v) and v >= 0
                   for v in (self.l2_theta, self.l2_beta_gamma)):
            raise ConfigurationError(
                "L2 penalties must be finite and non-negative")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigurationError("tol must be finite and positive")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")


@dataclass
class CVConfig:
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigurationError("cross-validation needs at least 2 folds")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


@dataclass
class FitDiagnostics:
    converged: bool
    iterations: int
    objective: float
    residual: float  # max-norm of the projected gradient at the fit
    objective_history: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# prediction and scoring


def afm_logits(theta, beta, gamma, pairs: Pairs) -> np.ndarray:
    """The AFM logit of each row from its student's theta (one value per
    row) and its (row, KC, opportunity) pairs: theta + (0 + c_1 + c_2 + ...)
    with c = beta[kc] + gamma[kc] * opportunity, summed in pair order."""
    # np.bincount of no pairs is integer zeros: keep its uses out of place
    return theta + np.bincount(
        pairs.row, beta[pairs.kc] + gamma[pairs.kc] * pairs.t, len(theta))


def afm_predict(params: AFMParams, q: QMatrix, student: str, item: str,
                opportunities: dict[str, int]) -> float:
    """Probability of a correct first attempt for (student, item); the same
    value ``afm_logits`` gives the row, to the bit."""
    if student not in params.theta:
        raise InputError(f"unknown student {student!r}")
    terms = 0.0
    for kc in q.kcs_for_item(item):
        if kc not in params.beta or kc not in params.gamma:
            raise InputError(f"unknown KC {kc!r} in params")
        if kc not in opportunities:
            raise InputError(f"no opportunity count for KC {kc!r}")
        terms += params.beta[kc] + params.gamma[kc] * opportunities[kc]
    return float(sigmoid(np.array([params.theta[student] + terms]))[0])


# ---------------------------------------------------------------------------
# vectorized design shared by fit and cross-validation


def _softplus(x, e):
    """log(1 + e^x), given e = exp(-|x|)."""
    return np.maximum(x, 0.0) + np.log1p(e)


def _psd_solve(m, b):
    """A solution of m x = b for a symmetric positive semi-definite m.

    An LU solve of the unit-diagonal scaling of m once its Cholesky factor
    shows m is positive definite (numpy has no triangular solve); where the
    factorization fails or a pivot is numerically zero (m is singular, as
    with collinear KC columns and no penalty), the minimum-norm
    least-squares solution instead."""
    if len(b) == 0:
        return np.zeros(0)
    scale = np.sqrt(np.maximum(np.diagonal(m), 0.0))
    scale = 1.0 / np.where(scale > 0, scale, 1.0)
    m = m * scale[:, None] * scale
    b = b * scale
    try:
        if np.min(np.diagonal(np.linalg.cholesky(m))) ** 2 > 1e-12:
            return scale * np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        pass
    return scale * np.linalg.lstsq(m, b, rcond=None)[0]


@dataclass
class _Design:
    """Flat index arrays for one set of transactions against one Q-matrix,
    the pairs in row order. A point is (theta, x) with x = (beta, gamma)."""

    s_idx: np.ndarray
    n_students: int
    y: np.ndarray
    pair_trans: np.ndarray
    pair_kc: np.ndarray
    pair_t: np.ndarray
    n_kcs: int

    def __post_init__(self):
        self.pairs = Pairs(self.pair_trans, self.pair_kc, self.pair_t)
        self.right = self.y > 0
        self.sign = 2.0 * self.y - 1.0
        # each pair's flat (KC, student) cell of the KC-by-theta block
        self.pair_cell = self.pair_kc * self.n_students \
            + self.s_idx[self.pair_trans]
        # no row needs two KCs: the KC-by-KC block is then block-diagonal,
        # one 2 x 2 (beta, gamma) block per KC
        self.single_kc = not np.any(np.diff(self.pair_trans) == 0)

    @classmethod
    def masked(cls, cols: LogColumns, pairs: Pairs, n_kcs: int, rows):
        """The rows the mask ``rows`` keeps, with their students renumbered
        in sorted order; returns the design and the kept student codes."""
        students, s_idx = np.unique(cols.student[rows], return_inverse=True)
        kept = rows[pairs.row]
        design = cls(s_idx, len(students), cols.y[rows],
                     (np.cumsum(rows) - 1)[pairs.row[kept]], pairs.kc[kept],
                     pairs.t[kept].astype(np.float64), n_kcs)
        return design, students

    def objective(self, theta, beta, gamma, cfg: FitConfig):
        """Penalized log-likelihood, with the eta and exp(-|eta|) it used."""
        eta = afm_logits(theta[self.s_idx], beta, gamma, self.pairs)
        e = np.exp(-np.abs(eta))
        ll = float(np.sum(self.y * eta - _softplus(eta, e)))
        ll -= 0.5 * cfg.l2_theta * float(np.sum(theta * theta))
        ll -= 0.5 * cfg.l2_beta_gamma * float(np.sum(beta * beta)
                                              + np.sum(gamma * gamma))
        return ll, eta, e

    def newton_direction(self, eta, e, theta, x, cfg: FitConfig):
        """The gradient (g_theta, g_x) at the point with the given eta and
        exp(-|eta|), and the projected Newton direction (d_theta, d_x) there.

        The direction solves H d = g, H the penalized Fisher information
        (the negated Hessian), over the free coordinates: every gamma except
        those at 0 whose gradient points below 0 (the active set), and no
        coordinate that has neither data nor penalty. Each row has one
        student, so the theta block of H is diagonal and one Schur step
        eliminates a side: the KCs when each row has at most one (leaving
        an S x S system), theta otherwise (a P x P one, P <= 2K)."""
        k, n_s = self.n_kcs, self.n_students
        inv = 1.0 / (1.0 + e)
        small = e * inv  # min(p, 1 - p), so never rounded to 0
        w = small * inv  # p (1 - p)
        # y - p is small where the outcome agrees with the sign of eta
        r = self.sign * np.where((eta >= 0) == self.right, small, inv)
        rp, wp, t = r[self.pair_trans], w[self.pair_trans], self.pair_t
        g_theta = np.bincount(self.s_idx, r, n_s) - cfg.l2_theta * theta
        g_x = np.concatenate([np.bincount(self.pair_kc, rp, k),
                              np.bincount(self.pair_kc, rp * t, k)]) \
            - cfg.l2_beta_gamma * x
        wt = wp * t
        # the (beta, beta), (beta, gamma) and (gamma, gamma) curvature per KC
        c = [np.bincount(self.pair_kc, v, k) for v in (wp, wt, wt * t)]
        free = np.concatenate([c[0], c[2]]) + cfg.l2_beta_gamma > 0
        free[k:] &= (x[k:] > 0) | (g_x[k:] >= 0)
        a = np.bincount(self.s_idx, w, n_s) + cfg.l2_theta
        # the KC-by-theta block: its beta rows and its gamma rows
        b_b, b_g = (np.bincount(self.pair_cell, v, k * n_s).reshape(k, n_s)
                    for v in (wp, wt))
        b_b *= free[:k, None]
        b_g *= free[k:, None]
        eliminate = self._eliminate_kcs if self.single_kc \
            else self._eliminate_theta
        d_theta, d_x = eliminate(w, a, b_b, b_g, c, g_theta,
                                 np.where(free, g_x, 0.0), free,
                                 cfg.l2_beta_gamma)
        return g_theta, g_x, d_theta, d_x

    def _eliminate_kcs(self, w, a, b_b, b_g, c, g_theta, g_x, free, l2):
        """Solve by the S x S Schur complement of the KC block, given that
        each row has at most one KC; b_b, b_g and g_x are 0 off the free
        set, and c holds the unpenalized 2 x 2 block entries per KC."""
        k = self.n_kcs
        c_bb = (c[0] + l2) * free[:k]
        c_bg = c[1] * (free[:k] & free[k:])
        c_gg = (c[2] + l2) * free[k:]
        # per KC, the pseudo-inverse of its block [c_bb c_bg; c_bg c_gg]; a
        # singular block has rank <= 1, and then it is C / tr(C)^2
        trace = c_bb + c_gg
        det = c_bb * c_gg - c_bg * c_bg
        regular = det > 1e-12 * trace * trace
        s = np.divide(1.0, np.where(regular, det, trace * trace),
                      out=np.zeros(k), where=trace > 0)
        i_bb = s * np.where(regular, c_gg, c_bb)
        i_gg = s * np.where(regular, c_bb, c_gg)
        i_bg = s * np.where(regular, -c_bg, c_bg)
        u_b = b_b * i_bb[:, None]
        u_b += b_g * i_bg[:, None]
        u_g = b_b * i_bg[:, None]
        u_g += b_g * i_gg[:, None]
        v_b = i_bb * g_x[:k] + i_bg * g_x[k:]
        v_g = i_bg * g_x[:k] + i_gg * g_x[k:]
        schur = np.diag(a) - b_b.T @ u_b - b_g.T @ u_g
        d_theta = _psd_solve(schur, g_theta - b_b.T @ v_b - b_g.T @ v_g)
        return d_theta, np.concatenate([v_b - u_b @ d_theta,
                                        v_g - u_g @ d_theta])

    @cached_property
    def _pair_products(self):
        """Every ordered (p, q) of two pairs on one row, p = q included: its
        flat (KC_p, KC_q) cell, its row, t_q and t_p * t_q."""
        per_row = np.bincount(self.pair_trans, minlength=len(self.y))
        m = per_row[self.pair_trans]
        p = np.repeat(np.arange(len(m)), m)
        first = (np.cumsum(per_row) - per_row)[self.pair_trans]
        q = np.repeat(first - (np.cumsum(m) - m), m) + np.arange(len(p))
        return (self.pair_kc[p] * self.n_kcs + self.pair_kc[q],
                self.pair_trans[p], self.pair_t[q],
                self.pair_t[p] * self.pair_t[q])

    def _eliminate_theta(self, w, a, b_b, b_g, c, g_theta, g_x, free, l2):
        """Solve by the P x P Schur complement of the theta block, P the
        number of free KC coordinates; takes what ``_eliminate_kcs`` takes
        and builds the KC-by-KC block from the row weights w."""
        k = self.n_kcs
        cell, row, t_q, t_pq = self._pair_products
        w_row = w[row]
        c_bb, c_bg, c_gg = (
            np.bincount(cell, weights, k * k).reshape(k, k)
            for weights in (w_row, w_row * t_q, w_row * t_pq))
        on = np.flatnonzero(free)
        h_kk = (np.block([[c_bb, c_bg], [c_bg.T, c_gg]])
                + l2 * np.eye(2 * k))[np.ix_(on, on)]
        inv_a = np.divide(1.0, a, out=np.zeros_like(a), where=a > 0)
        b_on = np.concatenate([b_b, b_g])[on]
        d_on = _psd_solve(h_kk - (b_on * inv_a) @ b_on.T,
                          g_x[on] - b_on @ (inv_a * g_theta))
        d_x = np.zeros(2 * k)
        d_x[on] = d_on
        return inv_a * (g_theta - b_on.T @ d_on), d_x


# ---------------------------------------------------------------------------
# fitting


def afm_fit(log: TransactionLog, q: QMatrix, config: FitConfig | None = None):
    """Fit AFM parameters; returns (AFMParams, FitDiagnostics).

    Projected Newton (Bertsekas 1982): each iteration solves for the Newton
    direction over the free coordinates (``_Design.newton_direction``),
    then backtracks by halving from a unit step, projecting gamma onto
    [0, inf) and accepting the first step that does not lower the
    penalized log-likelihood. The fit has converged when the Newton
    decrement g'd is at most config.tol * max(1, |objective|); it stops
    unconverged after config.max_iter steps, or when no step of at least
    1e-14 keeps the objective from falling.
    """
    config = config or FitConfig()
    if len(log) == 0:
        raise InputError("cannot fit on an empty log")
    cols = log.columns
    design, _ = _Design.masked(cols, opportunity_pairs(cols, q), q.n_kcs,
                               np.ones(len(log), dtype=bool))
    theta, beta, gamma, diag = _newton(design, config)
    return AFMParams(theta=dict(zip(cols.students, theta.tolist())),
                     beta=dict(zip(q.kc_names, beta.tolist())),
                     gamma=dict(zip(q.kc_names, gamma.tolist()))), diag


def _newton(design: _Design, config: FitConfig):
    """The fit ``afm_fit`` describes, on one design: theta, beta, gamma and
    the FitDiagnostics."""
    k = design.n_kcs
    theta, x = np.zeros(design.n_students), np.zeros(2 * k)
    f, eta, e = design.objective(theta, x[:k], x[k:], config)
    if not np.isfinite(f):
        raise FitError("objective non-finite at the zero start")
    history = [f]
    iterations = 0
    while True:
        g_theta, g_x, d_theta, d_x = design.newton_direction(
            eta, e, theta, x, config)
        decrement = float(g_theta @ d_theta + g_x @ d_x)
        converged = decrement <= config.tol * max(1.0, abs(f))
        if converged or iterations == config.max_iter:
            break
        iterations += 1
        alpha = 1.0
        while alpha >= 1e-14:
            cand_theta = theta + alpha * d_theta
            cand_x = x + alpha * d_x
            cand_x[k:] = np.maximum(cand_x[k:], 0.0)
            fc, eta_c, e_c = design.objective(cand_theta, cand_x[:k],
                                              cand_x[k:], config)
            if fc >= f:  # a NaN never is
                break
            alpha *= 0.5
        else:
            break
        theta, x, f, eta, e = cand_theta, cand_x, fc, eta_c, e_c
        history.append(f)
    # gamma at 0 may keep a gradient that points below 0
    g_x[k:] = np.where(x[k:] > 0, g_x[k:], np.maximum(g_x[k:], 0.0))
    residual = float(np.max(np.abs(np.concatenate([g_theta, g_x]))))
    return theta, x[:k], x[k:], FitDiagnostics(
        converged=converged, iterations=iterations, objective=f,
        residual=residual, objective_history=history)


# ---------------------------------------------------------------------------
# cross-validation


def assign_folds(item_ids, folds: int, seed: int) -> list[list[str]]:
    """Deterministically partition items into folds by seeded shuffle."""
    unique = sorted(set(item_ids))
    if folds > len(unique):
        raise InputError(
            f"{folds} folds exceed {len(unique)} distinct items")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(unique))
    return [[unique[i] for i in chunk]
            for chunk in np.array_split(perm, folds)]


@dataclass
class CVResult:
    mean_rmse: float
    fold_rmses: list[float]
    fold_items: list[list[str]]
    fold_fits: list[FitDiagnostics]


def _cv_fold(cols: LogColumns, pairs: Pairs, n_kcs: int, held,
             fit: FitConfig) -> tuple[float, FitDiagnostics]:
    design, students = _Design.masked(cols, pairs, n_kcs, ~held)
    theta_fit, beta, gamma, diag = _newton(design, fit)
    theta = np.zeros(len(cols.students))
    theta[students] = theta_fit
    p = sigmoid(afm_logits(theta[cols.student], beta, gamma, pairs)[held])
    return float(np.sqrt(np.mean((cols.y[held] - p) ** 2))), diag


def item_stratified_cv(log: TransactionLog, q: QMatrix,
                       fit: FitConfig | None = None,
                       cv: CVConfig | None = None,
                       jobs: int = 1) -> CVResult:
    """Cross-validated RMSE with folds that partition items, not students.

    Opportunity counts come from the full log (practice history is part of
    the data); each fold fits on training-item transactions only and scores
    the held-out items' transactions, with unseen students at theta = 0 and
    unseen KCs at beta = gamma = 0. Folds are independent; jobs > 1 runs
    them in worker processes with results merged by fold index, so the
    outcome does not depend on the job count.
    """
    fit = fit or FitConfig()
    cv = cv or CVConfig()
    cols = log.columns
    folds = assign_folds(cols.items, cv.folds, cv.seed)
    pairs = opportunity_pairs(cols, q)
    fold_of = {item: k for k, fold in enumerate(folds) for item in fold}
    row_fold = np.array([fold_of[item] for item in cols.items])[cols.item]
    fold_rmses, fold_fits = zip(*run_tasks(
        _cv_fold, [(cols, pairs, q.n_kcs, row_fold == k, fit)
                   for k in range(len(folds))], jobs))
    return CVResult(mean_rmse=float(np.mean(fold_rmses)),
                    fold_rmses=list(fold_rmses), fold_items=folds,
                    fold_fits=list(fold_fits))


@dataclass
class ComparisonTable:
    """Cross-validated RMSE per cognitive model, shared folds."""

    names: list[str]
    results: list[CVResult]

    def to_tsv_lines(self) -> list[str]:
        return ["model\tmean_rmse\tfold_rmses"] + [
            f"{name}\t{res.mean_rmse:.6f}\t"
            + ",".join(f"{v:.6f}" for v in res.fold_rmses)
            for name, res in zip(self.names, self.results)]

    def to_text(self) -> str:
        width = max(len(n) for n in self.names + ["model"])
        return "\n".join([f"{'model'.ljust(width)}  mean CV-RMSE"] + [
            f"{name.ljust(width)}  {res.mean_rmse:.6f}"
            for name, res in zip(self.names, self.results)])


def compare_models(log: TransactionLog, models,
                   fit: FitConfig | None = None,
                   cv: CVConfig | None = None,
                   jobs: int = 1) -> ComparisonTable:
    """Item-stratified CV-RMSE for several (name, QMatrix) pairs.

    Fold assignment depends only on the log's item ids and the seed, so
    every model is scored on identical folds and shares the log's columns.
    """
    models = list(models)
    if not models:
        raise InputError("compare_models needs at least one model")
    names = [name for name, _ in models]
    results = [item_stratified_cv(log, q, fit, cv, jobs=jobs)
               for _, q in models]
    return ComparisonTable(names=names, results=results)


# ---------------------------------------------------------------------------
# reporting


def pearson(xs, ys) -> float:
    """Pearson product-moment correlation."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise InputError("pearson needs two equal-length vectors of >= 2 values")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise InputError("correlation undefined: zero variance input")
    return float(np.sum(dx * dy) / (sx * sy))


@dataclass
class ParamReport:
    """Per-KC intercepts (probability scale) and slopes (logit scale)."""

    kc_names: list[str]
    intercepts: list[float]
    slopes: list[float]
    ref_intercepts: list[float] | None = None
    ref_slopes: list[float] | None = None
    intercept_correlation: float | None = None
    slope_correlation: float | None = None

    def to_tsv_lines(self) -> list[str]:
        return ["kc\tintercept\tslope"] + [
            f"{kc}\t{i:.6f}\t{s:.6f}"
            for kc, i, s in zip(self.kc_names, self.intercepts, self.slopes)]


def param_report(params: AFMParams, q: QMatrix,
                 reference: AFMParams | None = None) -> ParamReport:
    """Per-KC table: intercept = sigmoid(beta), slope = gamma.

    With a reference parameter set, both columns are correlated against the
    reference's over the Q-matrix's KCs.
    """
    def columns(p: AFMParams, what: str):
        for kc in q.kc_names:
            if kc not in p.beta or kc not in p.gamma:
                raise InputError(f"{what} missing KC {kc!r}")
        return (sigmoid(np.array([p.beta[k] for k in q.kc_names])).tolist(),
                [p.gamma[k] for k in q.kc_names])

    report = ParamReport(list(q.kc_names), *columns(params, "params"))
    if reference is not None:
        report.ref_intercepts, report.ref_slopes = columns(
            reference, "reference params")
        report.intercept_correlation = pearson(report.intercepts,
                                               report.ref_intercepts)
        report.slope_correlation = pearson(report.slopes, report.ref_slopes)
    return report


# ---------------------------------------------------------------------------
# parameter file I/O


def write_params(path, params: AFMParams) -> None:
    write_lines(path, chain(["entity\trole\tvalue"], (
        f"{name}\t{role}\t{format(table[name], '.17g')}"
        for role, table in (("theta", params.theta), ("beta", params.beta),
                            ("gamma", params.gamma))
        for name in sorted(table))))


def read_params(path) -> AFMParams:
    roles: dict[str, dict[str, float]] = {"theta": {}, "beta": {}, "gamma": {}}
    for ln, (name, role, value) in read_table(
            path, ["entity", "role", "value"])[1]:
        if role not in roles:
            raise InputError(f"{path}: line {ln}: unknown role {role!r}")
        if name in roles[role]:
            raise InputError(
                f"{path}: line {ln}: duplicate {role} row for {name!r}")
        try:
            roles[role][name] = float(value)
        except ValueError:
            raise InputError(f"{path}: line {ln}: bad value") from None
    return AFMParams(**roles)
