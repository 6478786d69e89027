"""Additive Factors Model fitting and evaluation.

The model predicts first-attempt correctness as

    p = sigmoid(theta_student + sum over the item's KCs of
                (beta_kc + gamma_kc * opportunity_count))

where the opportunity count is how many of the student's prior transactions
required that KC. Fitting maximizes the L2-penalized Bernoulli
log-likelihood by projected gradient ascent with step halving, keeping all
learning rates non-negative. Model comparison uses item-stratified
cross-validated RMSE: folds partition items, so a model only scores well if
its KCs carry information across problems.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cogmodel import QMatrix
from .errors import ConfigurationError, FitError, InputError, read_lines
from .neuralcore.layers import sigmoid


# ---------------------------------------------------------------------------
# transaction logs


@dataclass(frozen=True)
class Transaction:
    student_id: str
    item_id: str
    outcome: int
    order: int


class TransactionLog:
    """Ordered first-attempt records.

    Per student, order values must be strictly increasing in the sequence
    the rows appear; (student, order) pairs are unique.
    """

    def __init__(self, rows):
        rows = tuple(rows)
        last_order: dict[str, int] = {}
        seen: set[tuple[str, int]] = set()
        for tr in rows:
            if tr.outcome not in (0, 1):
                raise InputError(
                    f"outcome must be 0 or 1, got {tr.outcome!r} "
                    f"({tr.student_id}, {tr.item_id})")
            if tr.order < 1:
                raise InputError(f"order must be positive, got {tr.order}")
            key = (tr.student_id, tr.order)
            if key in seen:
                raise InputError(f"duplicate (student, order) pair {key}")
            seen.add(key)
            prev = last_order.get(tr.student_id)
            if prev is not None and tr.order <= prev:
                raise InputError(
                    f"orders not strictly increasing for student "
                    f"{tr.student_id!r} at order {tr.order}")
            last_order[tr.student_id] = tr.order
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def students(self) -> list[str]:
        return sorted({tr.student_id for tr in self.rows})

    def items(self) -> list[str]:
        return sorted({tr.item_id for tr in self.rows})

    def by_student(self) -> dict[str, list[Transaction]]:
        out: dict[str, list[Transaction]] = {}
        for tr in self.rows:
            out.setdefault(tr.student_id, []).append(tr)
        return out


# ---------------------------------------------------------------------------
# opportunity counting


@dataclass
class OpportunityTable:
    """Per transaction, the prior-practice count for each KC its item needs."""

    rows: list[dict[str, int]]


def compute_opportunities(log: TransactionLog, q: QMatrix) -> OpportunityTable:
    """Count, per transaction and required KC, the student's prior practice.

    A prior transaction counts toward KC k if its own item requires k,
    regardless of outcome.
    """
    item_kcs: dict[str, np.ndarray] = {}
    for item in {tr.item_id for tr in log}:
        if not q.has_item(item):
            raise InputError(f"item {item!r} missing from Q-matrix")
        item_kcs[item] = np.flatnonzero(q.row(item))
    counters: dict[str, np.ndarray] = {}
    rows = []
    for tr in log:
        cnt = counters.get(tr.student_id)
        if cnt is None:
            cnt = counters[tr.student_id] = np.zeros(q.n_kcs, dtype=np.int64)
        kcs = item_kcs[tr.item_id]
        rows.append({q.kc_names[j]: int(cnt[j]) for j in kcs})
        cnt[kcs] += 1
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
    l2_theta: float = 1.0
    l2_beta_gamma: float = 0.0
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if self.l2_theta < 0 or self.l2_beta_gamma < 0:
            raise ConfigurationError("L2 penalties must be non-negative")
        if self.tol <= 0:
            raise ConfigurationError("tol must be positive")
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
    objective_history: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# prediction


def afm_predict(params: AFMParams, q: QMatrix, student: str, item: str,
                opportunities: dict[str, int]) -> float:
    """Probability of a correct first attempt for (student, item)."""
    if student not in params.theta:
        raise InputError(f"unknown student {student!r}")
    eta = params.theta[student]
    for kc in q.kcs_for_item(item):
        if kc not in params.beta or kc not in params.gamma:
            raise InputError(f"unknown KC {kc!r} in params")
        if kc not in opportunities:
            raise InputError(f"no opportunity count for KC {kc!r}")
        eta += params.beta[kc] + params.gamma[kc] * opportunities[kc]
    return float(sigmoid(np.array([eta]))[0])


# ---------------------------------------------------------------------------
# vectorized design shared by fit / rmse


class _Design:
    """Flat index arrays for one set of transactions against one Q-matrix."""

    def __init__(self, rows, opp_rows, q: QMatrix, students: list[str]):
        self.students = students
        self.kc_names = list(q.kc_names)
        s_index = {s: i for i, s in enumerate(students)}
        kc_index = {k: j for j, k in enumerate(q.kc_names)}
        n = len(rows)
        self.n = n
        self.y = np.array([tr.outcome for tr in rows], dtype=np.float64)
        self.s_idx = np.array([s_index[tr.student_id] for tr in rows],
                              dtype=np.intp)
        pair_trans, pair_kc, pair_t = [], [], []
        for i, (tr, opps) in enumerate(zip(rows, opp_rows)):
            for kc, t in opps.items():
                pair_trans.append(i)
                pair_kc.append(kc_index[kc])
                pair_t.append(t)
        self.pair_trans = np.array(pair_trans, dtype=np.intp)
        self.pair_kc = np.array(pair_kc, dtype=np.intp)
        self.pair_t = np.array(pair_t, dtype=np.float64)

    def linear_predictor(self, theta, beta, gamma):
        eta = theta[self.s_idx].astype(np.float64, copy=True)
        if len(self.pair_trans):
            contrib = beta[self.pair_kc] + gamma[self.pair_kc] * self.pair_t
            eta += np.bincount(self.pair_trans, weights=contrib, minlength=self.n)
        return eta

    def objective(self, theta, beta, gamma, cfg: FitConfig) -> float:
        eta = self.linear_predictor(theta, beta, gamma)
        ll = float(np.sum(self.y * eta - np.logaddexp(0.0, eta)))
        ll -= 0.5 * cfg.l2_theta * float(np.sum(theta * theta))
        ll -= 0.5 * cfg.l2_beta_gamma * float(np.sum(beta * beta)
                                              + np.sum(gamma * gamma))
        return ll

    def gradient(self, theta, beta, gamma, cfg: FitConfig):
        eta = self.linear_predictor(theta, beta, gamma)
        p = sigmoid(eta)
        r = self.y - p
        g_theta = np.bincount(self.s_idx, weights=r,
                              minlength=len(self.students))
        g_theta -= cfg.l2_theta * theta
        k = len(self.kc_names)
        if len(self.pair_trans):
            r_pairs = r[self.pair_trans]
            g_beta = np.bincount(self.pair_kc, weights=r_pairs, minlength=k)
            g_gamma = np.bincount(self.pair_kc, weights=r_pairs * self.pair_t,
                                  minlength=k)
        else:
            g_beta = np.zeros(k)
            g_gamma = np.zeros(k)
        g_beta -= cfg.l2_beta_gamma * beta
        g_gamma -= cfg.l2_beta_gamma * gamma
        return (g_theta, g_beta, g_gamma), p

    def fisher_diag(self, p, cfg: FitConfig):
        """Diagonal of the penalized Fisher information at probabilities p.

        Used to precondition the ascent direction; a shared KC sums over
        every transaction while a student sums over a handful, and without
        this scaling one global step size stalls the small coordinates.
        """
        w = p * (1.0 - p)
        d_theta = np.bincount(self.s_idx, weights=w,
                              minlength=len(self.students)) + cfg.l2_theta
        k = len(self.kc_names)
        if len(self.pair_trans):
            w_pairs = w[self.pair_trans]
            d_beta = np.bincount(self.pair_kc, weights=w_pairs, minlength=k)
            d_gamma = np.bincount(self.pair_kc,
                                  weights=w_pairs * self.pair_t ** 2,
                                  minlength=k)
        else:
            d_beta = np.zeros(k)
            d_gamma = np.zeros(k)
        d_beta += cfg.l2_beta_gamma
        d_gamma += cfg.l2_beta_gamma
        return d_theta, d_beta, d_gamma


# ---------------------------------------------------------------------------
# fitting


def afm_fit(log: TransactionLog, q: QMatrix, config: FitConfig | None = None,
            opportunities: OpportunityTable | None = None):
    """Fit AFM parameters; returns (AFMParams, FitDiagnostics).

    Projected gradient ascent with step halving: the gradient is scaled by
    the diagonal of the penalized Fisher information (so shared-KC and
    per-student coordinates move at comparable rates), a candidate step is
    accepted only if the penalized log-likelihood does not decrease, and
    gamma is projected onto [0, inf) after every step. Convergence is a
    relative objective change below config.tol. Pass ``opportunities`` to
    reuse counts computed on a larger log (as cross-validation does).
    """
    config = config or FitConfig()
    if len(log) == 0:
        raise InputError("cannot fit on an empty log")
    if opportunities is None:
        opportunities = compute_opportunities(log, q)
    if len(opportunities.rows) != len(log):
        raise InputError("opportunity table does not match log length")
    return _fit_rows(list(log.rows), opportunities.rows, q, config)


def _fit_rows(rows, opp_rows, q: QMatrix, config: FitConfig):
    students = sorted({tr.student_id for tr in rows})
    design = _Design(rows, opp_rows, q, students)
    n_s, n_k = len(students), q.n_kcs
    theta = np.zeros(n_s)
    beta = np.zeros(n_k)
    gamma = np.zeros(n_k)

    f = design.objective(theta, beta, gamma, config)
    if not np.isfinite(f):
        raise FitError("objective non-finite at the zero start")
    history = [f]
    alpha = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        (g_theta, g_beta, g_gamma), p = design.gradient(theta, beta, gamma,
                                                        config)
        d_theta, d_beta, d_gamma = design.fisher_diag(p, config)
        # preconditioned ascent direction; coordinates with neither data nor
        # penalty have zero gradient and stay put
        s_theta = np.divide(g_theta, d_theta,
                            out=np.zeros_like(g_theta), where=d_theta > 0)
        s_beta = np.divide(g_beta, d_beta,
                           out=np.zeros_like(g_beta), where=d_beta > 0)
        s_gamma = np.divide(g_gamma, d_gamma,
                            out=np.zeros_like(g_gamma), where=d_gamma > 0)
        accepted = False
        while alpha >= 1e-14:
            cand_theta = theta + alpha * s_theta
            cand_beta = beta + alpha * s_beta
            cand_gamma = np.maximum(gamma + alpha * s_gamma, 0.0)
            fc = design.objective(cand_theta, cand_beta, cand_gamma, config)
            if not np.isfinite(fc):
                raise FitError(
                    f"objective non-finite at iteration {iterations} "
                    f"(step {alpha:g}, |theta|max "
                    f"{np.max(np.abs(cand_theta)):g})")
            if fc >= f:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            converged = True
            break
        rel = (fc - f) / max(1.0, abs(f))
        theta, beta, gamma, f = cand_theta, cand_beta, cand_gamma, fc
        history.append(f)
        if rel < config.tol:
            converged = True
            break
        alpha = min(alpha * 2.0, 2.0)

    params = AFMParams(
        theta={s: float(v) for s, v in zip(students, theta)},
        beta={k: float(v) for k, v in zip(q.kc_names, beta)},
        gamma={k: float(v) for k, v in zip(q.kc_names, gamma)},
    )
    return params, FitDiagnostics(converged=converged, iterations=iterations,
                                  objective=f, objective_history=history)


# ---------------------------------------------------------------------------
# scoring


def _probabilities(params: AFMParams, q: QMatrix, rows, opp_rows) -> np.ndarray:
    """Predicted correctness per row; unseen students and KCs fall back to 0
    parameters (the cross-validation cold-start rule)."""
    eta = np.empty(len(rows))
    for i, (tr, opps) in enumerate(zip(rows, opp_rows)):
        e = params.theta.get(tr.student_id, 0.0)
        for kc, t in opps.items():
            e += params.beta.get(kc, 0.0) + params.gamma.get(kc, 0.0) * t
        eta[i] = e
    return sigmoid(eta)


def afm_rmse(params: AFMParams, q: QMatrix, log: TransactionLog,
             opportunities: OpportunityTable | None = None) -> float:
    """Root mean squared error of predicted correctness over a log."""
    if len(log) == 0:
        raise InputError("cannot score an empty log")
    if opportunities is None:
        opportunities = compute_opportunities(log, q)
    p = _probabilities(params, q, list(log.rows), opportunities.rows)
    y = np.array([tr.outcome for tr in log], dtype=np.float64)
    return float(np.sqrt(np.mean((y - p) ** 2)))


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
    shuffled = [unique[i] for i in perm]
    return [list(chunk) for chunk in np.array_split(shuffled, folds)]


@dataclass
class CVResult:
    mean_rmse: float
    fold_rmses: list[float]
    fold_items: list[list[str]]


def _cv_fold_worker(payload):
    train_rows, train_opps, test_rows, test_opps, q, fit = payload
    params, _ = _fit_rows(train_rows, train_opps, q, fit)
    p = _probabilities(params, q, test_rows, test_opps)
    y = np.array([tr.outcome for tr in test_rows], dtype=np.float64)
    return float(np.sqrt(np.mean((y - p) ** 2)))


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
    folds = assign_folds([tr.item_id for tr in log], cv.folds, cv.seed)
    opportunities = compute_opportunities(log, q)
    payloads = []
    for fold_items in folds:
        held = set(fold_items)
        train_rows, train_opps, test_rows, test_opps = [], [], [], []
        for tr, opps in zip(log.rows, opportunities.rows):
            if tr.item_id in held:
                test_rows.append(tr)
                test_opps.append(opps)
            else:
                train_rows.append(tr)
                train_opps.append(opps)
        if not train_rows:
            raise InputError("a fold left the training split empty")
        if not test_rows:
            raise InputError("a fold has no held-out transactions")
        payloads.append((train_rows, train_opps, test_rows, test_opps, q, fit))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fold_rmses = list(pool.map(_cv_fold_worker, payloads))
    else:
        fold_rmses = [_cv_fold_worker(p) for p in payloads]
    return CVResult(mean_rmse=float(np.mean(fold_rmses)),
                    fold_rmses=fold_rmses, fold_items=folds)


@dataclass
class ComparisonTable:
    """Cross-validated RMSE per cognitive model, shared folds."""

    names: list[str]
    results: list[CVResult]

    def to_tsv_lines(self) -> list[str]:
        lines = ["model\tmean_rmse\tfold_rmses"]
        for name, res in zip(self.names, self.results):
            folds = ",".join(f"{v:.6f}" for v in res.fold_rmses)
            lines.append(f"{name}\t{res.mean_rmse:.6f}\t{folds}")
        return lines

    def to_text(self) -> str:
        width = max(len(n) for n in self.names + ["model"])
        out = [f"{'model'.ljust(width)}  mean CV-RMSE"]
        for name, res in zip(self.names, self.results):
            out.append(f"{name.ljust(width)}  {res.mean_rmse:.6f}")
        return "\n".join(out)


def compare_models(log: TransactionLog, models,
                   fit: FitConfig | None = None,
                   cv: CVConfig | None = None,
                   jobs: int = 1) -> ComparisonTable:
    """Item-stratified CV-RMSE for several (name, QMatrix) pairs.

    Fold assignment depends only on the log's item ids and the seed, so
    every model is scored on identical folds.
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
        if self.ref_intercepts is None:
            lines = ["kc\tintercept\tslope"]
            for kc, i, s in zip(self.kc_names, self.intercepts, self.slopes):
                lines.append(f"{kc}\t{i:.6f}\t{s:.6f}")
            return lines
        lines = ["kc\tintercept\tslope\tref_intercept\tref_slope"]
        for kc, i, s, ri, rs in zip(self.kc_names, self.intercepts, self.slopes,
                                    self.ref_intercepts, self.ref_slopes):
            lines.append(f"{kc}\t{i:.6f}\t{s:.6f}\t{ri:.6f}\t{rs:.6f}")
        lines.append(
            f"correlation_with_reference\t{self.intercept_correlation:.6f}"
            f"\t{self.slope_correlation:.6f}\t\t")
        return lines


def param_report(params: AFMParams, q: QMatrix,
                 reference: AFMParams | None = None) -> ParamReport:
    """Per-KC table: intercept = sigmoid(beta), slope = gamma.

    With a reference parameter set, both columns are correlated against the
    reference's over the Q-matrix's KCs.
    """
    for kc in q.kc_names:
        if kc not in params.beta or kc not in params.gamma:
            raise InputError(f"params missing KC {kc!r}")
    intercepts = [float(sigmoid(np.array([params.beta[k]]))[0])
                  for k in q.kc_names]
    slopes = [params.gamma[k] for k in q.kc_names]
    report = ParamReport(list(q.kc_names), intercepts, slopes)
    if reference is not None:
        for kc in q.kc_names:
            if kc not in reference.beta or kc not in reference.gamma:
                raise InputError(f"reference params missing KC {kc!r}")
        report.ref_intercepts = [float(sigmoid(np.array([reference.beta[k]]))[0])
                                 for k in q.kc_names]
        report.ref_slopes = [reference.gamma[k] for k in q.kc_names]
        report.intercept_correlation = pearson(report.intercepts,
                                               report.ref_intercepts)
        report.slope_correlation = pearson(report.slopes, report.ref_slopes)
    return report


# ---------------------------------------------------------------------------
# parameter file I/O


def write_params(path, params: AFMParams) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("entity\trole\tvalue\n")
        for s in sorted(params.theta):
            fh.write(f"{s}\ttheta\t{format(params.theta[s], '.17g')}\n")
        for k in sorted(params.beta):
            fh.write(f"{k}\tbeta\t{format(params.beta[k], '.17g')}\n")
        for k in sorted(params.gamma):
            fh.write(f"{k}\tgamma\t{format(params.gamma[k], '.17g')}\n")


def read_params(path) -> AFMParams:
    lines = read_lines(path)
    if not lines or lines[0].split("\t") != ["entity", "role", "value"]:
        raise InputError(f"{path}: expected header entity<TAB>role<TAB>value")
    theta: dict[str, float] = {}
    beta: dict[str, float] = {}
    gamma: dict[str, float] = {}
    roles = {"theta": theta, "beta": beta, "gamma": gamma}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3 or fields[1] not in roles:
            raise InputError(f"{path}: line {ln}: malformed parameter row")
        try:
            roles[fields[1]][fields[0]] = float(fields[2])
        except ValueError:
            raise InputError(f"{path}: line {ln}: bad value") from None
    return AFMParams(theta=theta, beta=beta, gamma=gamma)
