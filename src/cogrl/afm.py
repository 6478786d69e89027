"""Additive Factors Model fitting and evaluation.

The model predicts first-attempt correctness as

    p = sigmoid(theta_student + sum over the item's KCs of
                (beta_kc + gamma_kc * opportunity_count))

where the opportunity count is how many of the student's prior transactions
required that KC. Fitting maximizes the L2-penalized Bernoulli
log-likelihood, keeping all learning rates non-negative, by projected
Newton iterated until the Newton decrement is negligible: every gradient
and Hessian block comes from five sums per (student, KC) cell, and one
Schur step reduces each Newton system to the students or to the KC
coordinates. Model comparison uses item-stratified cross-validated RMSE:
folds partition items, so a model only scores well if its KCs carry
information across problems; every fold's fit starts from the fit to the
whole log.

Data are columnar: a log is its columns, coded and validated in one pass,
and each Q-matrix adds one CSR-ordered array of (row, KC, opportunity)
pairs, from which ``afm_logits`` computes the logits of the log sampler
and a design's ``logits`` those of the fit and of held-out scoring, with
the same arithmetic. A CV fold is a boolean mask over the rows, and every
fit of a run writes into one workspace of buffers; the softplus
max(eta, 0) + log1p(exp(-|eta|)) leaves exp(-|eta|) to the next gradient.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .cogmodel import QMatrix
from .errors import (
    ConfigurationError,
    FitError,
    InputError,
    read_floats,
    read_table,
    write_lines,
)
from .neuralcore.layers import sigmoid
from .parallel import run_tasks


# ---------------------------------------------------------------------------
# transaction logs


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

    @classmethod
    def from_columns(cls, columns: LogColumns) -> "TransactionLog":
        """The log of columns that keep the rules above, left unchecked."""
        log = cls.__new__(cls)
        log.columns = columns
        return log

    def __len__(self):
        return len(self.columns.y)

    def records(self):
        """Per row, (student_id, item_id, outcome, order) as plain values."""
        c = self.columns
        return zip(map(c.students.__getitem__, c.student.tolist()),
                   map(c.items.__getitem__, c.item.tolist()),
                   c.y.astype(np.int64).tolist(), c.order.tolist())

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(self.records())


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


# ---------------------------------------------------------------------------
# prediction and scoring


def afm_logits(theta, beta, gamma, pairs: Pairs) -> np.ndarray:
    """The AFM logit of each row from its student's theta (one value per
    row) and its (row, KC, opportunity) pairs: theta + (0 + c_1 + c_2 + ...)
    with c = beta[kc] + gamma[kc] * opportunity, summed in pair order."""
    # np.bincount of no pairs is integer zeros: keep its uses out of place
    return theta + np.bincount(
        pairs.row, beta[pairs.kc] + gamma[pairs.kc] * pairs.t, len(theta))


# ---------------------------------------------------------------------------
# vectorized design shared by fit and cross-validation


def _softplus(x, e, out, scratch):
    """log(1 + e^x), given e = exp(-|x|), written into ``out``; ``scratch``
    holds log1p(e). Both buffers are shaped like x."""
    out = np.maximum(x, 0.0, out=out)
    out += np.log1p(e, out=scratch)
    return out


def _psd_solve(m, b):
    """A solution of m x = b for a symmetric positive semi-definite m, and
    whether m was found singular.

    An LU solve of the unit-diagonal scaling of m once its Cholesky factor
    shows m is positive definite (numpy has no triangular solve); where the
    factorization fails or a pivot is numerically zero (m is singular, as
    with collinear KC columns and no penalty), the minimum-norm
    least-squares solution instead."""
    if len(b) == 0:
        return np.zeros(0), False
    scale = np.sqrt(np.maximum(np.diagonal(m), 0.0))
    scale = 1.0 / np.where(scale > 0, scale, 1.0)
    m = m * scale[:, None] * scale
    b = b * scale
    try:
        if np.min(np.diagonal(np.linalg.cholesky(m))) ** 2 > 1e-12:
            return scale * np.linalg.solve(m, b), False
    except np.linalg.LinAlgError:
        pass
    return scale * np.linalg.lstsq(m, b, rcond=None)[0], True


class _Workspace:
    """The buffers every Newton step writes into, for designs of at most
    n rows, u units, K KCs and S students; a smaller design uses the
    leading part of each. Two (eta, exp(-|eta|)) slots hold the current
    point and the candidate the objective writes; ``accept`` swaps them."""

    def __init__(self, n_rows, n_units, n_kcs, n_students):
        self.sizes = (n_rows, n_units, n_kcs, n_students)
        self.slots = np.empty((2, 2, n_rows))
        self.candidate = 1
        self.rows = np.empty((4, n_rows))
        self.flag = np.empty(n_rows, dtype=bool)
        # five unit-sized weights and their sums per (student, KC) cell
        self.units = np.empty(5 * n_units)
        self.cells = np.empty(5 * n_students * (n_kcs + 1))
        self.students_by_kcs = np.empty((3, n_students * n_kcs))

    def __reduce__(self):
        # a worker process gets the sizes and allocates its own buffers
        return _Workspace, self.sizes

    def accept(self):
        """Make the candidate slot the current one."""
        self.candidate = 1 - self.candidate


class _Design:
    """Flat index arrays for one set of transactions against one Q-matrix.
    A point is (theta, x) with x = (beta, gamma).

    The units are the (row, KC) pairs in row order, ``unit_row`` giving
    each its row, and a row that needs no KC holds one unit of the idle KC
    ``n_kcs`` at opportunity 0. ``single`` says whether every row holds
    exactly one unit. A design owns its columns; the workspace holds only
    what a Newton step writes, and may be shared by designs that step one
    at a time."""

    def __init__(self, s_idx, n_students, y, kc, t, n_kcs, unit_row,
                 ws=None):
        self.s_idx, self.n_students, self.y = s_idx, n_students, y
        self.kc, self.t, self.n_kcs, self.unit_row = kc, t, n_kcs, unit_row
        self.single = len(kc) == len(y)
        self.ws = ws or _Workspace(len(y), len(kc), n_kcs, n_students)
        self.sign = y * 2.0 - 1.0
        # each unit's flat (student, KC) cell, the idle KC last
        self.cell = s_idx[unit_row] * (n_kcs + 1) + kc

    @classmethod
    def of_log(cls, cols: LogColumns, q: QMatrix):
        """The design of every row of a log, whose student codes index it:
        its (row, KC, opportunity) pairs, plus an idle unit for each row
        without a pair."""
        pairs = opportunity_pairs(cols, q)
        bare = np.flatnonzero(
            np.bincount(pairs.row, minlength=len(cols.y)) == 0)
        at = np.searchsorted(pairs.row, bare)
        return cls(cols.student, len(cols.students), cols.y,
                   np.insert(pairs.kc, at, q.n_kcs),
                   np.insert(pairs.t.astype(np.float64), at, 0.0), q.n_kcs,
                   np.insert(pairs.row, at, bare))

    def subset(self, rows):
        """The design of the rows the mask ``rows`` keeps, stepping in this
        design's workspace, with their students renumbered in sorted
        order; returns it and the kept students' codes."""
        code = self.s_idx[rows]
        present = np.zeros(self.n_students, dtype=bool)
        present[code] = True
        students = np.flatnonzero(present)
        kept = np.flatnonzero(rows[self.unit_row])
        return _Design((np.cumsum(present) - 1)[code], len(students),
                       self.y[rows], self.kc[kept], self.t[kept], self.n_kcs,
                       (np.cumsum(rows) - 1)[self.unit_row[kept]],
                       self.ws), students

    def idle(self):
        """Per coordinate of x, whether no unit informs it: a beta whose KC
        has no unit, a gamma whose KC has none at opportunity above 0."""
        k = self.n_kcs
        return np.concatenate([np.bincount(self.kc, minlength=k + 1)[:k],
                               np.bincount(self.kc, self.t, k + 1)[:k]]) == 0

    def logits(self, theta, beta, gamma):
        """``afm_logits`` of the design's rows, written into the
        workspace's candidate eta: theta[s_idx] + (0 + c_1 + ...) with
        c = beta[kc] + gamma[kc] * t per unit."""
        ws, n, u = self.ws, len(self.y), len(self.kc)
        eta = ws.slots[ws.candidate, 0, :n]
        c, g = ws.units[:u], ws.units[u:2 * u]
        # the idle KC adds 0 + 0 * 0
        np.take(np.append(beta, 0.0), self.kc, out=c, mode="clip")
        np.take(np.append(gamma, 0.0), self.kc, out=g, mode="clip")
        g *= self.t
        c += g
        np.take(theta, self.s_idx, out=eta, mode="clip")
        eta += c if self.single else np.bincount(self.unit_row, c, n)
        return eta

    def objective(self, theta, beta, gamma, cfg: FitConfig):
        """Penalized log-likelihood, with the eta and exp(-|eta|) it used:
        views of the workspace's candidate slot."""
        ws, n = self.ws, len(self.y)
        eta = self.logits(theta, beta, gamma)
        e = np.abs(eta, out=ws.slots[ws.candidate, 1, :n])
        np.negative(e, out=e)
        np.exp(e, out=e)
        terms = np.multiply(self.y, eta, out=ws.rows[0, :n])
        terms -= _softplus(eta, e, ws.rows[1, :n], ws.rows[2, :n])
        ll = float(np.sum(terms))
        ll -= 0.5 * cfg.l2_theta * float(np.sum(theta * theta))
        ll -= 0.5 * cfg.l2_beta_gamma * float(np.sum(beta * beta)
                                              + np.sum(gamma * gamma))
        return ll, eta, e

    def newton_direction(self, eta, e, theta, x, cfg: FitConfig):
        """The gradient (g_theta, g_x) at the point with the given eta and
        exp(-|eta|), the projected Newton direction (d_theta, d_x) there,
        and whether its system was singular.

        The direction solves H d = g, H the penalized Fisher information
        (the negated Hessian), over the free coordinates: every gamma except
        those at 0 whose gradient points below 0 (the active set), and no
        coordinate that has neither data nor penalty. Each row has one
        student, so the theta block of H is diagonal and one Schur step
        eliminates a side: the KCs when every row holds one unit (leaving
        an S x S system), theta when some row needs two KCs (a P x P one,
        P <= 2K). Every sum over units comes from five sums per (student,
        KC) cell, of r = y - p, r t, w = p (1 - p), w t and w t^2: a KC's
        is the sum of its column and, when every row holds one unit, a
        student's the sum of its row."""
        k, n_s, n, u = self.n_kcs, self.n_students, len(self.y), len(self.kc)
        ws = self.ws
        inv = np.add(e, 1.0, out=ws.rows[0, :n])
        np.divide(1.0, inv, out=inv)
        small = np.multiply(e, inv, out=ws.rows[1, :n])  # min(p, 1 - p)
        weights = ws.units[:5 * u].reshape(5, u)
        single = self.single
        r, w = (weights[0], weights[2]) if single else ws.rows[2:, :n]
        np.multiply(small, inv, out=w)  # so never rounded to 0
        # |y - p| is e * inv where the outcome agrees with the sign of eta,
        # inv where it does not: max(e, 0 or 1) * inv picks one exactly
        disagree = np.less(np.multiply(self.sign, eta, out=r), 0.0,
                           out=ws.flag[:n])
        np.maximum(e, disagree, out=r)
        r *= inv
        r *= self.sign
        if not single:
            np.take(r, self.unit_row, out=weights[0], mode="clip")
            np.take(w, self.unit_row, out=weights[2], mode="clip")
        np.multiply(weights[0], self.t, out=weights[1])
        np.multiply(weights[2], self.t, out=weights[3])
        np.multiply(weights[3], self.t, out=weights[4])
        sums = ws.cells[:5 * n_s * (k + 1)].reshape(5, n_s, k + 1)
        sums.fill(0.0)
        for cells, v in zip(sums, weights):
            np.add.at(cells.reshape(-1), self.cell, v)
        by_kc = sums[:, :, :k].sum(axis=1)
        if single:
            g_theta, a = sums[0].sum(axis=1), sums[2].sum(axis=1)
        else:
            g_theta, a = (np.bincount(self.s_idx, v, n_s) for v in (r, w))
        g_theta -= cfg.l2_theta * theta
        a += cfg.l2_theta
        g_x = by_kc[:2].reshape(-1) - cfg.l2_beta_gamma * x
        # the (beta, beta), (beta, gamma) and (gamma, gamma) curvature per KC
        c = by_kc[2:]
        free = np.concatenate([c[0], c[2]]) + cfg.l2_beta_gamma > 0
        free[k:] &= (x[k:] > 0) | (g_x[k:] >= 0)
        # the theta-by-KC block: its beta columns and its gamma columns
        b_b, b_g = sums[2, :, :k], sums[3, :, :k]
        b_b *= free[:k]
        b_g *= free[k:]
        # when every row holds one unit the KC-by-KC block is
        # block-diagonal, one 2 x 2 (beta, gamma) block per KC
        eliminate = self._eliminate_kcs if single else self._eliminate_theta
        d_theta, d_x, singular = eliminate(w, a, b_b, b_g, c, g_theta,
                                           np.where(free, g_x, 0.0), free,
                                           cfg.l2_beta_gamma)
        return g_theta, g_x, d_theta, d_x, singular

    def _eliminate_kcs(self, w, a, b_b, b_g, c, g_theta, g_x, free, l2):
        """Solve by the S x S Schur complement of the KC block, given that
        no row needs two KCs; the S x K blocks b_b and b_g and g_x are 0
        off the free set, and c holds the unpenalized 2 x 2 block entries
        per KC."""
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
        u_b, u_g, tmp = (m[:b_b.size].reshape(b_b.shape)
                         for m in self.ws.students_by_kcs)
        np.multiply(b_b, i_bb, out=u_b)
        u_b += np.multiply(b_g, i_bg, out=tmp)
        np.multiply(b_b, i_bg, out=u_g)
        u_g += np.multiply(b_g, i_gg, out=tmp)
        v_b = i_bb * g_x[:k] + i_bg * g_x[k:]
        v_g = i_bg * g_x[:k] + i_gg * g_x[k:]
        schur = np.diag(a) - b_b @ u_b.T - b_g @ u_g.T
        d_theta, singular = _psd_solve(schur, g_theta - b_b @ v_b - b_g @ v_g)
        return d_theta, np.concatenate([v_b - d_theta @ u_b,
                                        v_g - d_theta @ u_g]), singular

    @cached_property
    def _pair_products(self):
        """Every ordered (p, q) of two units on one row, p = q included:
        its flat (KC_p, KC_q) cell over the KCs and the idle KC, its row,
        t_q and t_p * t_q."""
        per_row = np.bincount(self.unit_row, minlength=len(self.y))
        m = per_row[self.unit_row]
        p = np.repeat(np.arange(len(m)), m)
        first = (np.cumsum(per_row) - per_row)[self.unit_row]
        q = np.repeat(first - (np.cumsum(m) - m), m) + np.arange(len(p))
        return (self.kc[p] * (self.n_kcs + 1) + self.kc[q], self.unit_row[p],
                self.t[q], self.t[p] * self.t[q])

    def _eliminate_theta(self, w, a, b_b, b_g, c, g_theta, g_x, free, l2):
        """Solve by the P x P Schur complement of the theta block, P the
        number of free KC coordinates; takes what ``_eliminate_kcs`` takes
        and builds the KC-by-KC block from the row weights w."""
        k = self.n_kcs
        cell, row, t_q, t_pq = self._pair_products
        w_row = w[row]
        c_bb, c_bg, c_gg = (
            np.bincount(cell, weights, (k + 1) ** 2).reshape(k + 1, -1)[:k, :k]
            for weights in (w_row, w_row * t_q, w_row * t_pq))
        on = np.flatnonzero(free)
        h_kk = (np.block([[c_bb, c_bg], [c_bg.T, c_gg]])
                + l2 * np.eye(2 * k))[np.ix_(on, on)]
        inv_a = np.divide(1.0, a, out=np.zeros_like(a), where=a > 0)
        b_on = np.concatenate([b_b, b_g], axis=1)[:, on]
        d_on, singular = _psd_solve(h_kk - (inv_a * b_on.T) @ b_on,
                                    g_x[on] - (inv_a * g_theta) @ b_on)
        d_x = np.zeros(2 * k)
        d_x[on] = d_on
        return inv_a * (g_theta - b_on @ d_on), d_x, singular


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
    theta, x, diag = _newton(_Design.of_log(log.columns, q), config)
    return AFMParams(theta=dict(zip(log.columns.students, theta.tolist())),
                     beta=dict(zip(q.kc_names, x[:q.n_kcs].tolist())),
                     gamma=dict(zip(q.kc_names, x[q.n_kcs:].tolist()))), diag


def _newton(design: _Design, config: FitConfig, start=None):
    """The fit ``afm_fit`` describes, on one design: theta, x = (beta,
    gamma) and the FitDiagnostics. It starts from 0, or from ``start`` =
    (theta, x) with every coordinate that has neither data nor penalty at
    0; a start whose first Newton system is singular gives way to 0,
    because the optimum it would reach is not unique."""
    k, ws = design.n_kcs, design.ws
    starts = [(np.zeros(design.n_students), np.zeros(2 * k))]
    if start is not None:
        theta, x = np.array(start[0]), np.array(start[1])
        if config.l2_beta_gamma == 0:
            x[design.idle()] = 0.0
        starts.insert(0, (theta, x))
    for theta, x in starts:
        f, eta, e = design.objective(theta, x[:k], x[k:], config)
        if not np.isfinite(f):
            raise FitError("objective non-finite at the start")
        ws.accept()
        g_theta, g_x, d_theta, d_x, singular = design.newton_direction(
            eta, e, theta, x, config)
        if not singular:
            break
    iterations = 0
    while True:
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
        ws.accept()
        theta, x, f, eta, e = cand_theta, cand_x, fc, eta_c, e_c
        g_theta, g_x, d_theta, d_x, _ = design.newton_direction(
            eta, e, theta, x, config)
    # gamma at 0 may keep a gradient that points below 0
    g_x[k:] = np.where(x[k:] > 0, g_x[k:], np.maximum(g_x[k:], 0.0))
    residual = float(np.max(np.abs(np.concatenate([g_theta, g_x]))))
    return theta, x, FitDiagnostics(
        converged=converged, iterations=iterations, objective=f,
        residual=residual)


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
    fold_fits: list[FitDiagnostics]
    start_fit: FitDiagnostics  # the full-log fit every fold starts from


def _cv_fold(design: _Design, held, fit: FitConfig,
             start) -> tuple[float, FitDiagnostics]:
    """A fold's fit to the rows not ``held``, from the full-log ``start``,
    and its RMSE on the ``held`` rows of the full-log design, with the
    students the fit did not see at theta = 0."""
    train, students = design.subset(~held)
    theta_fit, x, diag = _newton(train, fit, (start[0][students], start[1]))
    theta = np.zeros(design.n_students)
    theta[students] = theta_fit
    p = sigmoid(design.logits(theta, *np.split(x, 2))[held])
    return float(np.sqrt(np.mean((design.y[held] - p) ** 2))), diag


def item_stratified_cv(log: TransactionLog, q: QMatrix,
                       fit: FitConfig | None = None,
                       cv: CVConfig | None = None,
                       jobs: int = 1) -> CVResult:
    """Cross-validated RMSE with folds that partition items, not students.

    Opportunity counts come from the full log (practice history is part of
    the data); each fold fits on training-item transactions only and scores
    the held-out items' transactions, with unseen students at theta = 0 and
    unseen KCs at beta = gamma = 0. Every fold's fit starts from the fit to
    the full log (see ``_newton`` for the coordinates it starts at 0, and
    for the folds it fits from 0), and every fit of the run steps in one
    workspace. Folds are independent; jobs > 1 runs them in worker
    processes with results merged by fold index, so the outcome does not
    depend on the job count.
    """
    fit = fit or FitConfig()
    cv = cv or CVConfig()
    cols = log.columns
    folds = assign_folds(cols.items, cv.folds, cv.seed)
    design = _Design.of_log(cols, q)
    theta, x, start_fit = _newton(design, fit)
    fold_of = {item: k for k, fold in enumerate(folds) for item in fold}
    row_fold = np.array([fold_of[item] for item in cols.items])[cols.item]
    fold_rmses, fold_fits = zip(*run_tasks(
        _cv_fold, [(design, row_fold == k, fit, (theta, x))
                   for k in range(len(folds))], jobs))
    return CVResult(mean_rmse=float(np.mean(fold_rmses)),
                    fold_rmses=list(fold_rmses), fold_fits=list(fold_fits),
                    start_fit=start_fit)


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
            roles[role][name] = float(read_floats([value])[0])
        except ValueError:
            raise InputError(f"{path}: line {ln}: bad value") from None
    return AFMParams(**roles)
