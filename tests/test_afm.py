"""Additive Factors Model: counting, prediction, fitting and evaluation."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogrl.afm import (
    AFMParams,
    CVConfig,
    FitConfig,
    FitDiagnostics,
    Transaction,
    TransactionLog,
    _Design,
    _newton,
    _softplus,
    afm_fit,
    afm_logits,
    afm_predict,
    assign_folds,
    compare_models,
    compute_opportunities,
    item_stratified_cv,
    opportunity_pairs,
    param_report,
    pearson,
)
from cogrl.cogmodel import QMatrix, faculty_transfer, identical_transfer
from cogrl.errors import ConfigurationError, InputError
from cogrl.ingest import AfmLogSynthSpec, synth_afm_log
from cogrl.neuralcore.layers import sigmoid


def _log(rows):
    return TransactionLog([Transaction(*r) for r in rows])


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestTransactionLog:
    def test_duplicate_student_order_rejected(self):
        with pytest.raises(InputError):
            _log([("s1", "a", 1, 1), ("s1", "b", 0, 1)])

    def test_decreasing_order_rejected(self):
        with pytest.raises(InputError):
            _log([("s1", "a", 1, 2), ("s1", "b", 0, 1)])

    def test_bad_outcome_rejected(self):
        with pytest.raises(InputError):
            _log([("s1", "a", 2, 1)])

    @pytest.mark.parametrize("order", [
        2.9, 2.0, "3", None, 2 ** 63, -2 ** 63 - 1, np.float64(2),
        np.uint64(2 ** 64 - 1)])
    def test_order_not_an_int64_integer_rejected(self, order):
        with pytest.raises(InputError) as info:
            _log([("s1", "a", 1, 1), ("s1", "b", 0, order)])
        assert str(info.value) == \
            f"row 2: order must be an integer within int64, got {order!r}"

    def test_numpy_integer_orders_accepted(self):
        log = _log([("s1", "a", 1, np.int32(1)), ("s1", "b", 0, np.uint64(2)),
                    ("s1", "c", 0, 2 ** 63 - 1)])
        assert log.columns.order.tolist() == [1, 2, 2 ** 63 - 1]

    def test_interleaved_students_fine(self):
        log = _log([("s1", "a", 1, 1), ("s2", "a", 0, 1),
                    ("s1", "b", 1, 2), ("s2", "b", 1, 2)])
        assert log.columns.students == ["s1", "s2"]
        assert log.columns.items == ["a", "b"]


class TestComputeOpportunities:
    def test_first_transaction_all_zero(self):
        q = QMatrix(["a"], ["k1", "k2"], np.array([[1, 1]]))
        log = _log([("s1", "a", 1, 1)])
        table = compute_opportunities(log, q)
        assert table.rows == [{"k1": 0, "k2": 0}]

    def test_counting_by_definition(self):
        q = QMatrix(["A", "B"], ["kc1", "kc2"], np.array([[1, 0], [1, 1]]))
        log = _log([("s", "A", 1, 1), ("s", "B", 0, 2), ("s", "A", 1, 3)])
        table = compute_opportunities(log, q)
        assert table.rows == [{"kc1": 0}, {"kc1": 1, "kc2": 0}, {"kc1": 2}]

    def test_faculty_gives_transaction_index(self):
        q = faculty_transfer(["A", "B", "C"])
        log = _log([("s", "A", 1, 1), ("s", "B", 0, 2), ("s", "C", 1, 3)])
        table = compute_opportunities(log, q)
        assert [r["faculty"] for r in table.rows] == [0, 1, 2]

    def test_unknown_item_rejected(self):
        q = faculty_transfer(["A"])
        with pytest.raises(InputError, match="missing"):
            compute_opportunities(_log([("s", "Z", 1, 1)]), q)

    def test_counts_non_decreasing_per_student_kc(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=6, items=12, kcs=3, seed=9))
        table = compute_opportunities(log, q)
        last: dict[tuple[str, str], int] = {}
        for tr, opps in zip(log.rows, table.rows):
            for kc, t in opps.items():
                key = (tr.student_id, kc)
                assert t >= last.get(key, 0)
                last[key] = t


class TestPredict:
    def _setup(self):
        q = QMatrix(["A"], ["k1"], np.array([[1]]))
        params = AFMParams(theta={"s": 0.0}, beta={"k1": 0.0},
                           gamma={"k1": 0.5})
        return q, params

    def test_all_zero_params_half(self):
        q, _ = self._setup()
        params = AFMParams(theta={"s": 0.0}, beta={"k1": 0.0},
                           gamma={"k1": 0.0})
        assert afm_predict(params, q, "s", "A", {"k1": 3}) == 0.5

    def test_arithmetic_example(self):
        q, params = self._setup()
        p = afm_predict(params, q, "s", "A", {"k1": 2})
        assert math.isclose(p, _sig(1.0), rel_tol=1e-9)
        assert math.isclose(p, 0.7311, abs_tol=5e-5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        q = QMatrix(["A"], ["k1", "k2", "k3"], np.array([[1, 0, 1]]))
        params = AFMParams(
            theta={"s": float(rng.normal())},
            beta={k: float(rng.normal()) for k in q.kc_names},
            gamma={k: float(rng.uniform(0, 1)) for k in q.kc_names})
        opps = {"k1": 4, "k3": 2}
        expected = _sig(params.theta["s"]
                        + params.beta["k1"] + params.gamma["k1"] * 4
                        + params.beta["k3"] + params.gamma["k3"] * 2)
        assert math.isclose(afm_predict(params, q, "s", "A", opps), expected,
                            rel_tol=1e-12)

    def test_logits_hand_computation_four_transactions(self):
        q = faculty_transfer(["A", "B"])
        log = _log([("s1", "A", 1, 1), ("s1", "B", 0, 2),
                    ("s2", "A", 0, 1), ("s2", "B", 1, 2)])
        cols = log.columns
        theta = np.array([0.5, -0.5])  # s1, s2
        eta = afm_logits(theta[cols.student], np.array([0.2]), np.array([0.1]),
                         opportunity_pairs(cols, q))
        expected = [0.5 + 0.2, 0.5 + 0.2 + 0.1, -0.5 + 0.2, -0.5 + 0.2 + 0.1]
        assert np.allclose(eta, expected, rtol=1e-12, atol=0.0)

    def test_unknown_student_rejected(self):
        q, params = self._setup()
        with pytest.raises(InputError):
            afm_predict(params, q, "nobody", "A", {"k1": 0})

    def test_monotone_in_theta_beta_and_gamma(self):
        q, _ = self._setup()
        base = dict(theta={"s": 0.1}, beta={"k1": -0.2}, gamma={"k1": 0.3})
        p0 = afm_predict(AFMParams(**base), q, "s", "A", {"k1": 2})
        up_theta = AFMParams(theta={"s": 0.6}, beta=base["beta"],
                             gamma=base["gamma"])
        up_beta = AFMParams(theta=base["theta"], beta={"k1": 0.3},
                            gamma=base["gamma"])
        up_gamma = AFMParams(theta=base["theta"], beta=base["beta"],
                             gamma={"k1": 0.8})
        assert afm_predict(up_theta, q, "s", "A", {"k1": 2}) > p0
        assert afm_predict(up_beta, q, "s", "A", {"k1": 2}) > p0
        assert afm_predict(up_gamma, q, "s", "A", {"k1": 2}) > p0


class TestFit:
    def test_all_correct_outcomes_push_probabilities_up(self):
        q = faculty_transfer(["A", "B"])
        log = _log([("s1", "A", 1, 1), ("s1", "B", 1, 2),
                    ("s2", "A", 1, 1), ("s2", "B", 1, 2)])
        params, diag = afm_fit(log, q)
        assert diag.converged
        table = compute_opportunities(log, q)
        for tr, opps in zip(log.rows, table.rows):
            assert afm_predict(params, q, tr.student_id, tr.item_id, opps) > 0.5
        for v in params.theta.values():
            assert math.isfinite(v)

    def test_objective_history_non_decreasing(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=20, items=12, kcs=3, seed=4))
        _, diag = afm_fit(log, q)
        hist = diag.objective_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_gamma_non_negative(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=25, items=15, kcs=4, seed=5))
        params, _ = afm_fit(log, q)
        assert all(v >= 0.0 for v in params.gamma.values())

    def test_recovers_generator_parameters(self):
        log, q, true = synth_afm_log(AfmLogSynthSpec(seed=1))
        params, diag = afm_fit(log, q)
        kcs = q.kc_names
        r_beta = pearson([params.beta[k] for k in kcs],
                         [true.beta[k] for k in kcs])
        r_gamma = pearson([params.gamma[k] for k in kcs],
                          [true.gamma[k] for k in kcs])
        assert r_beta >= 0.9
        assert r_gamma >= 0.8

    def test_matches_grid_search_on_tiny_instance(self):
        q = faculty_transfer(["A", "B"])
        log = _log([("s1", "A", 1, 1), ("s1", "B", 0, 2),
                    ("s2", "A", 1, 1), ("s2", "B", 1, 2)])
        cfg = FitConfig(tol=1e-12, max_iter=2000)
        params, diag = afm_fit(log, q, cfg)

        y = [1, 0, 1, 1]
        students = [0, 0, 1, 1]
        t = [0, 1, 0, 1]

        def objective(th1, th2, b, g):
            thetas = (th1, th2)
            ll = 0.0
            for yi, si, ti in zip(y, students, t):
                p = _sig(thetas[si] + b + g * ti)
                ll += yi * math.log(p) + (1 - yi) * math.log(1.0 - p)
            return ll - 0.5 * (th1 * th1 + th2 * th2)

        # coarse-to-fine grid over the full 4-parameter slice
        centers = [0.0, 0.0, 0.0, 0.0]
        width = 3.0
        best = None
        for _ in range(4):
            grids = [np.linspace(c - width, c + width, 13) for c in centers]
            grids[3] = np.maximum(grids[3], 0.0)  # gamma >= 0
            best = (-np.inf, None)
            for a in grids[0]:
                for bb in grids[1]:
                    for c in grids[2]:
                        for d in grids[3]:
                            v = objective(a, bb, c, d)
                            if v > best[0]:
                                best = (v, (a, bb, c, d))
            centers = list(best[1])
            width /= 4.0
        assert abs(diag.objective - best[0]) < 1e-3

    def test_empty_log_rejected(self):
        with pytest.raises(InputError):
            afm_fit(TransactionLog([]), faculty_transfer(["A"]))


class TestItemStratifiedCV:
    def test_deterministic_given_seed(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=20, items=12, kcs=3, seed=2))
        r1 = item_stratified_cv(log, q, None, CVConfig(folds=4, seed=7))
        r2 = item_stratified_cv(log, q, None, CVConfig(folds=4, seed=7))
        assert r1.fold_items == r2.fold_items
        assert r1.fold_rmses == r2.fold_rmses

    def test_fold_assignment_pure_function_of_ids(self):
        ids = [f"i{k}" for k in range(10)]
        a = assign_folds(ids, 3, 5)
        b = assign_folds(list(reversed(ids)) * 2, 3, 5)  # order/dupes ignored
        assert a == b
        assert assign_folds(ids, 3, 6) != a

    def test_too_many_folds_rejected(self):
        with pytest.raises(InputError):
            assign_folds(["a", "b"], 3, 0)

    def test_identical_worse_than_faculty_on_shared_skill_domain(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=40, items=24, kcs=3, seed=6))
        items = q.item_ids
        cv = CVConfig(folds=8, seed=1)
        fac = item_stratified_cv(log, faculty_transfer(items), None, cv)
        ide = item_stratified_cv(log, identical_transfer(items), None, cv)
        assert ide.mean_rmse > fac.mean_rmse

    def test_item_ids_ending_in_nul_keep_their_folds(self):
        # numpy's fixed-width strings drop trailing NULs, so folds must
        # hold the ids themselves
        rows = [(f"s{k}", item, k % 2, j + 1) for k in range(6)
                for j, item in enumerate(["a\x00", "b", "c"])]
        log = _log(rows)
        result = item_stratified_cv(log, faculty_transfer(log.columns.items),
                                    None, CVConfig(folds=3, seed=0))
        assert sorted(i for fold in result.fold_items for i in fold) == \
            ["a\x00", "b", "c"]
        assert len(result.fold_rmses) == 3

    def test_jobs_do_not_change_results(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=15, items=10, kcs=2, seed=3))
        serial = item_stratified_cv(log, q, None, CVConfig(folds=3, seed=2))
        parallel = item_stratified_cv(log, q, None, CVConfig(folds=3, seed=2),
                                      jobs=3)
        assert serial.fold_rmses == parallel.fold_rmses
        assert serial.fold_fits == parallel.fold_fits
        assert len(serial.fold_fits) == 3
        assert all(fit.converged for fit in serial.fold_fits)


class TestCompareModels:
    def test_single_model_matches_cv(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=15, items=10, kcs=2, seed=8))
        cv = CVConfig(folds=3, seed=4)
        table = compare_models(log, [("true", q)], None, cv)
        direct = item_stratified_cv(log, q, None, cv)
        assert table.results[0].mean_rmse == direct.mean_rmse

    def test_models_share_folds(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=15, items=10, kcs=2, seed=8))
        items = q.item_ids
        table = compare_models(
            log, [("faculty", faculty_transfer(items)),
                  ("identical", identical_transfer(items))],
            None, CVConfig(folds=3, seed=4))
        assert table.results[0].fold_items == table.results[1].fold_items

    def test_tsv_and_text_outputs(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=12, items=8, kcs=2, seed=8))
        table = compare_models(log, [("true", q)], None,
                               CVConfig(folds=2, seed=0))
        lines = table.to_tsv_lines()
        assert lines[0] == "model\tmean_rmse\tfold_rmses"
        assert "true" in table.to_text()

    def test_no_models_rejected(self):
        log, _, _ = synth_afm_log(AfmLogSynthSpec(
            students=5, items=4, kcs=2, seed=0))
        with pytest.raises(InputError):
            compare_models(log, [])


class TestPearson:
    def test_identity(self):
        assert math.isclose(pearson([1, 2, 3], [1, 2, 3]), 1.0, rel_tol=1e-12)

    def test_negation(self):
        assert math.isclose(pearson([1, 2, 3], [-1, -2, -3]), -1.0,
                            rel_tol=1e-12)

    def test_hand_computation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [1.1, 1.9, 3.2, 3.8]
        mx, my = sum(xs) / 4, sum(ys) / 4
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = math.sqrt(sum((x - mx) ** 2 for x in xs)
                        * sum((y - my) ** 2 for y in ys))
        assert math.isclose(pearson(xs, ys), num / den, abs_tol=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(InputError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InputError):
            pearson([1, 2], [1, 2, 3])


class TestParamReport:
    def test_zero_beta_intercept_half(self):
        q = QMatrix(["A"], ["k1"], np.array([[1]]))
        params = AFMParams(theta={}, beta={"k1": 0.0}, gamma={"k1": 0.4})
        report = param_report(params, q)
        assert report.intercepts == [0.5]
        assert report.slopes == [0.4]

    def test_self_comparison_perfect_correlation(self):
        q = QMatrix(["A", "B"], ["k1", "k2"], np.eye(2, dtype=int))
        params = AFMParams(theta={}, beta={"k1": 0.3, "k2": -0.8},
                           gamma={"k1": 0.1, "k2": 0.9})
        report = param_report(params, q, reference=params)
        assert math.isclose(report.intercept_correlation, 1.0, rel_tol=1e-12)
        assert math.isclose(report.slope_correlation, 1.0, rel_tol=1e-12)

    def test_missing_kc_rejected(self):
        q = QMatrix(["A"], ["k1"], np.array([[1]]))
        params = AFMParams(theta={}, beta={}, gamma={})
        with pytest.raises(InputError):
            param_report(params, q)


class TestParamsIO:
    def test_round_trip(self, tmp_path):
        from cogrl.afm import read_params, write_params

        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=8, items=6, kcs=2, seed=12))
        params, _ = afm_fit(log, q)
        path = tmp_path / "params.tsv"
        write_params(path, params)
        back = read_params(path)
        assert back.theta == params.theta
        assert back.beta == params.beta
        assert back.gamma == params.gamma


class TestIdentifiability:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.floats(-2.0, 2.0))
    def test_theta_beta_shift_leaves_predictions(self, seed, c):
        rng = np.random.default_rng(seed)
        # single KC per item so the shift lands exactly once per prediction
        items = [f"i{k}" for k in range(4)]
        q = identical_transfer(items)
        params = AFMParams(
            theta={"s": float(rng.normal())},
            beta={k: float(rng.normal()) for k in q.kc_names},
            gamma={k: float(rng.uniform(0, 0.5)) for k in q.kc_names})
        shifted = AFMParams(
            theta={"s": params.theta["s"] + c},
            beta={k: v - c for k, v in params.beta.items()},
            gamma=dict(params.gamma))
        for item in items:
            kc = f"item:{item}"
            p0 = afm_predict(params, q, "s", item, {kc: 2})
            p1 = afm_predict(shifted, q, "s", item, {kc: 2})
            assert math.isclose(p0, p1, rel_tol=1e-9)


class TestFitConfig:
    @pytest.mark.parametrize("kwargs", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0},
        {"l2_theta": math.nan}, {"l2_theta": math.inf}, {"l2_theta": -1.0},
        {"l2_beta_gamma": math.nan}, {"l2_beta_gamma": math.inf},
    ])
    def test_non_finite_or_out_of_range_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FitConfig(**kwargs)

    def test_defaults_accepted(self):
        FitConfig(l2_theta=0.0, l2_beta_gamma=0.0, tol=1e-12)


class TestSoftplus:
    EDGES = [0.0, 1e-300, -1e-300, 36.0, -36.0, 710.0, -710.0, 1e300, -1e300]

    @staticmethod
    def _check(x):
        x = np.asarray(x, dtype=np.float64)
        got = _softplus(x, np.exp(-np.abs(x)))
        want = np.logaddexp(0.0, x)
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(x)))

    def test_edges(self):
        self._check(self.EDGES)

    def test_dense_range(self):
        self._check(np.linspace(-60.0, 60.0, 24_001))

    @settings(deadline=None, max_examples=200)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_value(self, x):
        self._check([x])


# ---------------------------------------------------------------------------
# dict-based oracle: the per-row opportunity dicts, fold designs and
# held-out scoring that the columnar core replaced


def _oracle_opportunities(log, q):
    item_kcs = {item: np.flatnonzero(q.row(item))
                for item in {tr.item_id for tr in log.rows}}
    counters = {}
    rows = []
    for tr in log.rows:
        cnt = counters.get(tr.student_id)
        if cnt is None:
            cnt = counters[tr.student_id] = np.zeros(q.n_kcs, dtype=np.int64)
        kcs = item_kcs[tr.item_id]
        rows.append({q.kc_names[j]: int(cnt[j]) for j in kcs})
        cnt[kcs] += 1
    return rows


def _oracle_design(rows, opp_rows, q):
    students = sorted({tr.student_id for tr in rows})
    s_index = {s: i for i, s in enumerate(students)}
    kc_index = {k: j for j, k in enumerate(q.kc_names)}
    y = np.array([tr.outcome for tr in rows], dtype=np.float64)
    s_idx = np.array([s_index[tr.student_id] for tr in rows], dtype=np.intp)
    pair_trans, pair_kc, pair_t = [], [], []
    for i, opps in enumerate(opp_rows):
        for kc, t in opps.items():
            pair_trans.append(i)
            pair_kc.append(kc_index[kc])
            pair_t.append(t)
    design = _Design(s_idx, len(students), y,
                     np.array(pair_trans, dtype=np.intp),
                     np.array(pair_kc, dtype=np.intp),
                     np.array(pair_t, dtype=np.float64), q.n_kcs)
    return students, design


def _oracle_probabilities(params, rows, opp_rows):
    eta = np.empty(len(rows))
    for i, (tr, opps) in enumerate(zip(rows, opp_rows)):
        eta[i] = params.theta.get(tr.student_id, 0.0) + sum(
            params.beta.get(kc, 0.0) + params.gamma.get(kc, 0.0) * t
            for kc, t in opps.items())
    return sigmoid(eta)


@st.composite
def _cv_cases(draw):
    """A log with interleaved students, multi-KC items, items with no KC and
    one student seen on a single item (so only in that item's held-out
    fold), a Q-matrix over its items, a fold count and a seed."""
    n_items = draw(st.integers(2, 7))
    n_kcs = draw(st.integers(1, 4))
    cells = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_kcs,
                                   max_size=n_kcs),
                          min_size=n_items, max_size=n_items))
    items = [f"i{k}" for k in range(n_items)]
    q = QMatrix(items, [f"k{j}" for j in range(n_kcs)], np.array(cells))
    events = draw(st.lists(st.tuples(st.sampled_from(["s0", "s1", "s2", "s3"]),
                                     st.sampled_from(items),
                                     st.integers(0, 1),
                                     st.integers(1, 3)),
                           min_size=1, max_size=40))
    solo = (draw(st.integers(0, len(events))), draw(st.sampled_from(items)),
            draw(st.integers(0, 1)))
    events.insert(solo[0], ("solo", solo[1], solo[2], 1))
    order: dict[str, int] = {}
    rows = []
    for student, item, outcome, gap in events:
        order[student] = order.get(student, 0) + gap
        rows.append(Transaction(student, item, outcome, order[student]))
    n_log_items = len({tr.item_id for tr in rows})
    folds = draw(st.integers(2, max(2, n_log_items)))
    return TransactionLog(rows), q, folds, draw(st.integers(0, 1000))


class TestColumnarEquivalence:
    """The columnar core against the dict-based oracle, exactly."""

    @settings(deadline=None, max_examples=80)
    @given(_cv_cases(), st.integers(0, 2**32 - 1))
    def test_pairs_designs_and_held_out_probabilities(self, case, seed):
        log, q, folds, fold_seed = case
        n_log_items = len(log.columns.items)
        if folds > n_log_items:
            with pytest.raises(InputError):
                assign_folds(log.columns.items, folds, fold_seed)
            return
        oracle_opps = _oracle_opportunities(log, q)
        assert compute_opportunities(log, q).rows == oracle_opps
        cols = log.columns
        pairs = opportunity_pairs(cols, q)
        kc_index = {k: j for j, k in enumerate(q.kc_names)}
        assert list(zip(pairs.row.tolist(), pairs.kc.tolist(),
                        pairs.t.tolist())) == \
            [(i, kc_index[kc], t) for i, opps in enumerate(oracle_opps)
             for kc, t in opps.items()]

        rng = np.random.default_rng(seed)
        for fold_items in assign_folds(log.columns.items, folds, fold_seed):
            held = set(fold_items)
            mask = np.array([tr.item_id in held for tr in log.rows])
            train = [(tr, o) for tr, o in zip(log.rows, oracle_opps)
                     if tr.item_id not in held]
            test = [(tr, o) for tr, o in zip(log.rows, oracle_opps)
                    if tr.item_id in held]
            students, want = _oracle_design(*zip(*train), q)
            got, codes = _Design.masked(cols, pairs, q.n_kcs, ~mask)
            assert [cols.students[c] for c in codes] == students
            for name in ("s_idx", "y", "pair_trans", "pair_kc", "pair_t"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert got.n_students == want.n_students

            params = AFMParams(
                theta={s: float(rng.normal()) for s in students},
                beta={k: float(rng.normal()) for k in q.kc_names},
                gamma={k: float(rng.uniform(0, 1)) for k in q.kc_names})
            theta = np.array([params.theta.get(s, 0.0) for s in cols.students])
            beta = np.array([params.beta[k] for k in q.kc_names])
            gamma = np.array([params.gamma[k] for k in q.kc_names])
            assert np.array_equal(
                sigmoid(afm_logits(theta[cols.student], beta, gamma,
                                   pairs)[mask]),
                _oracle_probabilities(params, *zip(*test)))

    @settings(deadline=None, max_examples=80)
    @given(_cv_cases(), st.data())
    def test_afm_predict_equals_shared_logits(self, case, data):
        log, q, _, _ = case
        value = st.floats(-20, 20)
        params = AFMParams(
            theta={s: data.draw(value) for s in log.columns.students},
            beta={k: data.draw(value) for k in q.kc_names},
            gamma={k: data.draw(st.floats(0, 5)) for k in q.kc_names})
        cols = log.columns
        theta = np.array([params.theta[s] for s in cols.students])
        beta = np.array([params.beta[k] for k in q.kc_names])
        gamma = np.array([params.gamma[k] for k in q.kc_names])
        p = sigmoid(afm_logits(theta[cols.student], beta, gamma,
                               opportunity_pairs(cols, q)))
        assert [afm_predict(params, q, tr.student_id, tr.item_id, opps)
                for tr, opps in zip(log.rows,
                                    compute_opportunities(log, q).rows)] \
            == p.tolist()

    @settings(deadline=None, max_examples=40)
    @given(_cv_cases())
    def test_fold_rmses_equal_oracle_cv(self, case):
        log, q, folds, fold_seed = case
        if folds > len(log.columns.items):
            return
        fit = FitConfig(max_iter=40)
        result = item_stratified_cv(log, q, fit, CVConfig(folds, fold_seed))
        oracle_opps = _oracle_opportunities(log, q)
        expected = []
        for fold_items in assign_folds(log.columns.items, folds, fold_seed):
            held = set(fold_items)
            train = [(tr, o) for tr, o in zip(log.rows, oracle_opps)
                     if tr.item_id not in held]
            test = [(tr, o) for tr, o in zip(log.rows, oracle_opps)
                    if tr.item_id in held]
            students, design = _oracle_design(*zip(*train), q)
            theta, beta, gamma, _ = _newton(design, fit)
            params = AFMParams(dict(zip(students, theta.tolist())),
                               dict(zip(q.kc_names, beta.tolist())),
                               dict(zip(q.kc_names, gamma.tolist())))
            p = _oracle_probabilities(params, *zip(*test))
            y = np.array([tr.outcome for tr, _ in test], dtype=np.float64)
            expected.append(float(np.sqrt(np.mean((y - p) ** 2))))
        assert result.fold_rmses == expected


# ---------------------------------------------------------------------------
# the projected Newton solver against the first-order ascent it replaced


def _oracle_ascent_direction(design, eta, e, theta, beta, gamma, cfg):
    """The gradient divided by the diagonal of the penalized Fisher
    information; coordinates with neither data nor penalty stay put."""
    p = np.where(eta >= 0, 1.0, e) / (1.0 + e)
    r = design.y - p
    w = p * (1.0 - p)
    r_pairs, w_pairs = r[design.pair_trans], w[design.pair_trans]
    blocks = [
        (design.s_idx, r, w, design.n_students, cfg.l2_theta, theta),
        (design.pair_kc, r_pairs, w_pairs, design.n_kcs,
         cfg.l2_beta_gamma, beta),
        (design.pair_kc, r_pairs * design.pair_t,
         w_pairs * design.pair_t ** 2, design.n_kcs, cfg.l2_beta_gamma,
         gamma)]
    steps = []
    for index, grad_w, fisher_w, length, l2, x in blocks:
        g = np.bincount(index, grad_w, length) - l2 * x
        d = np.bincount(index, fisher_w, length) + l2
        steps.append(np.divide(g, d, out=np.zeros_like(g), where=d > 0))
    return steps


def _oracle_solve(design, config):
    """Projected, Fisher-preconditioned gradient ascent with step halving,
    stopping on a relative objective change below config.tol."""
    theta, beta, gamma = (np.zeros(n) for n in (design.n_students,
                                                design.n_kcs, design.n_kcs))
    f, eta, e = design.objective(theta, beta, gamma, config)
    history = [f]
    alpha = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        s_theta, s_beta, s_gamma = _oracle_ascent_direction(
            design, eta, e, theta, beta, gamma, config)
        while alpha >= 1e-14:
            cand_theta = theta + alpha * s_theta
            cand_beta = beta + alpha * s_beta
            cand_gamma = np.maximum(gamma + alpha * s_gamma, 0.0)
            fc, eta_c, e_c = design.objective(cand_theta, cand_beta,
                                              cand_gamma, config)
            assert np.isfinite(fc)
            if fc >= f:
                break
            alpha *= 0.5
        else:
            converged = True
            break
        rel = (fc - f) / max(1.0, abs(f))
        theta, beta, gamma, f = cand_theta, cand_beta, cand_gamma, fc
        eta, e = eta_c, e_c
        history.append(f)
        if rel < config.tol:
            converged = True
            break
        alpha = min(alpha * 2.0, 2.0)
    return theta, beta, gamma, FitDiagnostics(
        converged=converged, iterations=iterations, objective=f,
        residual=math.nan, objective_history=history)


def _design(log, q):
    cols = log.columns
    return _Design.masked(cols, opportunity_pairs(cols, q), q.n_kcs,
                          np.ones(len(log), dtype=bool))[0]


def _projected_gradient(design, theta, beta, gamma, cfg):
    """The gradient, with each gamma at 0 that it points below 0 dropped."""
    eta = afm_logits(theta[design.s_idx], beta, gamma, design.pairs)
    r = design.y - sigmoid(eta)
    r_pairs = r[design.pair_trans]
    k = design.n_kcs
    g_gamma = np.bincount(design.pair_kc, r_pairs * design.pair_t, k) \
        - cfg.l2_beta_gamma * gamma
    return np.concatenate([
        np.bincount(design.s_idx, r, design.n_students) - cfg.l2_theta * theta,
        np.bincount(design.pair_kc, r_pairs, k) - cfg.l2_beta_gamma * beta,
        np.where(gamma > 0, g_gamma, np.maximum(g_gamma, 0.0))])


@st.composite
def _fit_cases(draw, single_kc=False):
    """A log, a Q-matrix over its items and a fit configuration. Items may
    need several KCs (unless ``single_kc``) or none; in a declining log each
    student gets the first half of their attempts right and the rest
    wrong, so the best learning rates are 0."""
    n_items = draw(st.integers(1, 6))
    n_kcs = draw(st.integers(1, 3))
    if single_kc:
        kc_of = draw(st.lists(st.integers(-1, n_kcs - 1), min_size=n_items,
                              max_size=n_items))
        cells = [[int(j == k) for j in range(n_kcs)] for k in kc_of]
    else:
        cells = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_kcs,
                                       max_size=n_kcs),
                              min_size=n_items, max_size=n_items))
    items = [f"i{k}" for k in range(n_items)]
    q = QMatrix(items, [f"k{j}" for j in range(n_kcs)], np.array(cells))
    declining = draw(st.booleans())
    rows = []
    for s in range(draw(st.integers(1, 5))):
        seq = draw(st.lists(st.sampled_from(items), min_size=1, max_size=10))
        for j, item in enumerate(seq):
            outcome = int(2 * j < len(seq)) if declining \
                else draw(st.integers(0, 1))
            rows.append(Transaction(f"s{s}", item, outcome, j + 1))
    l2 = draw(st.sampled_from([0.01, 1.0] if single_kc else [0.0, 0.01, 1.0]))
    return TransactionLog(rows), q, FitConfig(l2_beta_gamma=l2)


class TestNewtonSolver:
    """The projected Newton fit against the first-order oracle, and the
    designs on which a Newton system is singular."""

    @settings(deadline=None, max_examples=150)
    @given(_fit_cases())
    def test_objective_at_least_the_oracles(self, case):
        log, q, cfg = case
        design = _design(log, q)
        *_, want = _oracle_solve(design, FitConfig(
            cfg.l2_theta, cfg.l2_beta_gamma, tol=1e-6))
        theta, beta, gamma, got = _newton(design, cfg)
        assert got.objective >= \
            want.objective - 1e-9 * max(1.0, abs(want.objective))
        assert np.all(gamma >= 0)
        assert design.objective(theta, beta, gamma, cfg)[0] == got.objective
        assert math.isclose(got.residual, np.max(np.abs(_projected_gradient(
            design, theta, beta, gamma, cfg))), rel_tol=1e-6, abs_tol=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(_fit_cases(single_kc=True), st.data())
    def test_both_eliminations_give_one_step(self, case, data):
        log, q, cfg = case
        design = _design(log, q)
        assert design.single_kc
        k = design.n_kcs
        value = st.floats(-3, 3)
        theta = np.array([data.draw(value) for _ in range(design.n_students)])
        x = np.array([data.draw(value) for _ in range(k)] + [
            data.draw(st.sampled_from([0.0, 0.3, 1.0])) for _ in range(k)])
        _, eta, e = design.objective(theta, x[:k], x[k:], cfg)
        *_, d_theta, d_x = design.newton_direction(eta, e, theta, x, cfg)
        design.single_kc = False
        *_, d_theta2, d_x2 = design.newton_direction(eta, e, theta, x, cfg)
        step, step2 = np.concatenate([d_theta, d_x]), \
            np.concatenate([d_theta2, d_x2])
        assert np.max(np.abs(step - step2)) <= \
            1e-10 * max(np.max(np.abs(step)), 1e-300)

    def test_every_gamma_at_zero_when_students_decline(self):
        rows = [(f"s{s}", f"i{j}", int(j < 3), j + 1)
                for s in range(4) for j in range(6)]
        log = _log(rows)
        params, diag = afm_fit(log, faculty_transfer(log.columns.items))
        assert diag.converged
        assert params.gamma == {"faculty": 0.0}
        assert diag.residual < 1e-6

    def test_log_without_pairs(self):
        # every item needs no KC: np.bincount over no pairs gives integers
        log = _log([("s1", "a", 1, 1), ("s1", "b", 0, 2), ("s2", "a", 1, 1)])
        q = QMatrix(["a", "b"], ["k"], np.zeros((2, 1), dtype=int))
        params, diag = afm_fit(log, q)
        assert diag.converged
        assert params.beta == {"k": 0.0} and params.gamma == {"k": 0.0}
        # theta alone: s1 is 1 of 2 right (theta 0), s2 1 of 1 with the
        # penalty 1: d/dtheta = 1 - sigmoid(theta) - theta = 0
        assert params.theta["s1"] == pytest.approx(0.0, abs=1e-9)
        s2 = params.theta["s2"]
        assert 1.0 - _sig(s2) - s2 == pytest.approx(0.0, abs=1e-6)
        result = item_stratified_cv(log, q, None, CVConfig(folds=2, seed=0))
        assert all(fit.converged for fit in result.fold_fits)

    def test_collinear_kc_columns_without_penalty(self):
        # k0 and k1 mark the same items: the P x P system is singular
        log, q0, _ = synth_afm_log(AfmLogSynthSpec(
            students=12, items=8, kcs=2, seed=3))
        cells = np.array([q0.row(item) for item in q0.item_ids], dtype=int)
        q = QMatrix(q0.item_ids, ["k0", "k1", "k2"],
                    np.column_stack([cells[:, 0], cells[:, 0], cells[:, 1]]))
        design = _design(log, q)
        assert not design.single_kc
        cfg = FitConfig()
        theta, beta, gamma, diag = _newton(design, cfg)
        *_, want = _oracle_solve(design, FitConfig(tol=1e-6))
        assert diag.converged and np.isfinite(diag.objective)
        assert diag.objective >= want.objective
        # the minimum-norm steps split the shared column's weight evenly
        assert beta[0] == pytest.approx(beta[1], abs=1e-6)
        assert gamma[0] == pytest.approx(gamma[1], abs=1e-6)

    @pytest.mark.parametrize("model", [faculty_transfer, identical_transfer])
    def test_separable_log_without_penalty(self, model):
        # every attempt right: beta grows without bound as the fit goes on
        log = _log([(f"s{s}", f"i{j}", 1, j + 1)
                    for s in range(3) for j in range(4)])
        params, diag = afm_fit(log, model(log.columns.items))
        assert np.isfinite(diag.objective)
        assert all(math.isfinite(v) for v in params.beta.values())
        assert min(params.gamma.values()) >= 0.0
        assert diag.objective >= diag.objective_history[0]

    def test_max_iter_bounds_the_steps(self):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=20, items=12, kcs=3, seed=4))
        _, diag = afm_fit(log, q, FitConfig(max_iter=2))
        assert not diag.converged and diag.iterations == 2
        assert len(diag.objective_history) == 3
        _, done = afm_fit(log, q)
        assert done.converged and done.residual < diag.residual


# ---------------------------------------------------------------------------
# the log as columns against the row-object log it replaced


@dataclass(frozen=True)
class _OldTransaction:
    student_id: str
    item_id: str
    outcome: int
    order: int


class _OldTransactionLog:
    """The log as a tuple of row objects, validated row by row, with
    columns derived from the rows by np.unique over object arrays."""

    def __init__(self, rows, where=None):
        rows = tuple(rows)
        where = where or (lambda i: f"row {i + 1}")
        last_order: dict[str, int] = {}
        first_at: dict[tuple[str, int], int] = {}
        for i, tr in enumerate(rows):
            key = (tr.student_id, tr.order)
            prev = last_order.get(tr.student_id)
            if tr.outcome not in (0, 1):
                problem = f"outcome must be 0 or 1, got {tr.outcome!r}"
            elif tr.order < 1:
                problem = f"order must be positive, got {tr.order}"
            elif key in first_at:
                problem = (f"duplicate (student, order) {key} first seen at "
                           f"{where(first_at[key])}")
            elif prev is not None and tr.order <= prev:
                problem = (f"orders not strictly increasing for student "
                           f"{tr.student_id!r} at order {tr.order}")
            else:
                first_at[key] = i
                last_order[tr.student_id] = tr.order
                continue
            raise InputError(f"{where(i)}: {problem}")
        self.rows = rows

    @property
    def columns(self):
        students, student = np.unique(np.array(
            [tr.student_id for tr in self.rows], dtype=object),
            return_inverse=True)
        items, item = np.unique(np.array(
            [tr.item_id for tr in self.rows], dtype=object),
            return_inverse=True)
        y = np.array([tr.outcome for tr in self.rows], dtype=np.float64)
        return students.tolist(), items.tolist(), student, item, y


LOG_IDS = ["s", "s\x00", "s\x00\x00", "t", "\x00", "a b"]
OUTCOMES = [0, 1, True, False, 0.0, 1.0, -0.0, "0", "1", "", "true", 2, -1,
            0.5, math.nan, math.inf]
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def _raw_logs(draw):
    """(student, item, outcome, order) rows of interleaved students with
    increasing orders, then up to three faults put in: any outcome, or an
    order that is zero, negative, another row's (a duplicate when that row
    is the same student's), or any int64."""
    students = draw(st.lists(st.sampled_from(LOG_IDS), min_size=1,
                             max_size=4, unique=True))
    owners = draw(st.lists(st.sampled_from(students), max_size=14))
    last = dict.fromkeys(students, 0)
    rows = []
    for s in owners:
        last[s] += draw(st.integers(1, 3))
        rows.append([s, draw(st.sampled_from(LOG_IDS)),
                     draw(st.sampled_from([0, 1, True, 1.0])), last[s]])
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row[2] = draw(st.sampled_from(OUTCOMES))
        else:
            row[3] = draw(st.one_of(
                st.sampled_from([0, -1, -2 ** 63, 2 ** 63 - 1]),
                st.sampled_from([r[3] for r in rows]), INT64))
    return [tuple(r) for r in rows]


class TestColumnarLogEquivalence:
    """Coded and validated in one columnar pass, a log accepts, rejects
    (message included), codes and derives rows exactly as the row-object
    log did."""

    @settings(deadline=None, max_examples=400)
    @given(_raw_logs())
    def test_same_decision_columns_and_rows(self, rows):
        try:
            old = _OldTransactionLog([_OldTransaction(*r) for r in rows])
        except InputError as exc:
            with pytest.raises(InputError) as new_exc:
                TransactionLog(rows)
            assert str(new_exc.value) == str(exc)
            return
        new = TransactionLog(rows)
        students, items, student, item, y = old.columns
        cols = new.columns
        assert cols.students == students and cols.items == items
        for mine, theirs in ((cols.student, student), (cols.item, item),
                             (cols.y, y)):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)
        assert [(t.student_id, t.item_id, t.outcome, t.order)
                for t in old.rows] == list(new.rows)
        assert len(new) == len(rows)

    def test_empty_log(self):
        assert _OldTransactionLog([]).rows == TransactionLog([]).rows == ()
        cols = TransactionLog([]).columns
        assert cols.students == cols.items == [] and len(cols.y) == 0

    def test_rows_are_built_on_first_read_only(self):
        log = TransactionLog([("s", "a", 1, 1), ("s", "b", 0, 2)])
        assert "rows" not in vars(log)
        assert log.rows == (Transaction("s", "a", 1, 1),
                            Transaction("s", "b", 0, 2))
        assert log.rows is log.rows
