"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The expensive trainings (visual CNN, cloze LSTM)
are shared module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from cogrl.afm import (
    CVConfig,
    Pairs,
    TransactionLog,
    afm_fit,
    afm_logits,
    assign_folds,
    item_stratified_cv,
    opportunity_pairs,
    pearson,
)
from cogrl.apprentice import (
    SimConfig,
    _encode,
    human_features,
    simulate_and_estimate,
    simulate_learner,
)
from cogrl.cli import main as cli_main
from cogrl.cogmodel import (
    QMatrix,
    faculty_transfer,
    identical_transfer,
    sanitize_qmatrix,
)
from cogrl.ingest import (
    AfmLogSynthSpec,
    ClozeSynthSpec,
    VisualSynthSpec,
    synth_afm_log,
    synth_cloze,
    synth_visual,
)
from cogrl.neuralcore import (
    ConvLayer,
    LSTMCell,
    SGDConfig,
    grad_check,
    sigmoid,
)
from cogrl.problems import split_blank
from cogrl.representation import (
    CharVocab,
    ClozeArchSpec,
    ClozeLSTM,
    ImageArchSpec,
    ImageCNN,
    extract_representations,
    threshold_qmatrix,
    train_model,
    training_accuracy,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail})")


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def visual_study():
    """Visual domain, deeply trained CNN, thresholded Q-matrix, timing."""
    bundle = synth_visual(VisualSynthSpec(seed=7))
    spec = ImageArchSpec(in_shape=(1, 20, 20), n_classes=2, filters=10,
                         kernel=5, stride=2)
    net = ImageCNN(spec, seed=7)
    start = time.time()
    train_model(net, bundle.problems,
                SGDConfig(learning_rate=0.5, seed=7, max_epochs=4000,
                          target_loss=1e-5))
    train_seconds = time.time() - start
    reps, logits = extract_representations(net, bundle.problems)
    accuracy = training_accuracy(logits, bundle.problems)
    q_cogrl, _ = threshold_qmatrix(reps, 0.95)
    return {
        "bundle": bundle,
        "net": net,
        "accuracy": accuracy,
        "q_cogrl": q_cogrl,
        "train_seconds": train_seconds,
    }


@pytest.fixture(scope="module")
def cloze_study():
    """Cloze domain with curricula and an apprentice-generated original log.

    The original log is produced by apprentice learners running on
    full-information features under an independent seed stream; the study
    criteria compare fresh simulations against it.
    """
    bundle = synth_cloze(ClozeSynthSpec(seed=5))
    full = bundle.extras["features_full"]
    problems = bundle.problems
    n_students = 25
    order_seeds = np.random.SeedSequence(777).spawn(n_students)
    sim_seeds = np.random.SeedSequence(888).spawn(n_students)
    _, x = _encode([full[p.item_id] for p in problems])
    answers = np.array([p.answer for p in problems])
    pooled = []
    for s in range(n_students):
        rng = np.random.default_rng(order_seeds[s].generate_state(1)[0])
        perm = rng.permutation(len(problems))
        outcomes = simulate_learner(
            x[perm], answers[perm].tolist(),
            SimConfig(seed=int(sim_seeds[s].generate_state(1)[0])),
            labels=[0, 1, 2])
        pooled.extend((f"s{s:03d}", problems[i].item_id, outcome, order)
                      for order, (i, outcome) in enumerate(
                          zip(perm.tolist(), outcomes.tolist()), start=1))
    return {"bundle": bundle, "original_log": TransactionLog(pooled)}


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity


def test_criterion_1_gradient_fidelity():
    start = time.time()
    rng = np.random.default_rng(0)
    cnn = ImageCNN(ImageArchSpec(
        in_shape=(2, 10, 10), n_classes=3, filters=3, kernel=3, stride=2,
        rep_size=8), seed=0)
    cnn_err = grad_check(cnn, (rng.uniform(0, 1, (2, 10, 10)), 1), 1e-5)

    vocab = CharVocab("abcdefgh .")
    lstm = ClozeLSTM(ClozeArchSpec(
        n_classes=3, embedding_dim=4, lstm_hidden=6, combine_size=12,
        rep_size=6), vocab, seed=0)
    chars = "abcdefgh "
    text = "".join(chars[i] for i in rng.integers(0, 9, 12)) + "___" + \
        "".join(chars[i] for i in rng.integers(0, 9, 12))
    lstm_err = grad_check(lstm, (split_blank(text), 2), 1e-5)
    elapsed = time.time() - start

    ok = cnn_err < 1e-4 and lstm_err < 1e-4 and elapsed < 30.0
    report("1 gradient fidelity", ok,
           f"cnn={cnn_err:.2e}, lstm={lstm_err:.2e}, {elapsed:.1f}s")
    assert cnn_err < 1e-4
    assert lstm_err < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: convolution / LSTM transcription vs independent oracles


def _conv_oracle(x, kernels, gains, stride):
    out_ch, in_ch, r, _ = kernels.shape
    _, h, w = x.shape
    oh, ow = (h - r) // stride + 1, (w - r) // stride + 1
    y = np.zeros((out_ch, oh, ow))
    for j in range(out_ch):
        for a in range(oh):
            for b in range(ow):
                pi, pj = r - 1 + stride * a, r - 1 + stride * b
                acc = 0.0
                for i in range(in_ch):
                    for p in range(r):
                        for q in range(r):
                            acc += x[i, pi - p, pj - q] * kernels[j, i, p, q]
                y[j, a, b] = gains[j] * math.tanh(acc)
    return y


def _lstm_oracle(cell, xs):
    """One sequence's final (h, c), iterated from the zero state over its
    steps. Gate k of the documented order i, f, g, o reads rows
    k*H:(k+1)*H of w_x, w_h, b_x and b_h."""
    hid = cell.hidden_size

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def dot(row, vec):
        return sum(float(a) * float(b) for a, b in zip(row, vec))

    def pre(k, r, x, h):
        j = k * hid + r
        return (dot(cell.w_x[j], x) + cell.b_x[j]
                + dot(cell.w_h[j], h) + cell.b_h[j])

    h, c = [0.0] * hid, [0.0] * hid
    for x in xs:
        h_next, c_next = [], []
        for r in range(hid):
            i, f = sig(pre(0, r, x, h)), sig(pre(1, r, x, h))
            g, o = math.tanh(pre(2, r, x, h)), sig(pre(3, r, x, h))
            c_t = f * c[r] + i * g
            h_next.append(o * math.tanh(c_t))
            c_next.append(c_t)
        h, c = h_next, c_next
    return np.array(h), np.array(c)


def test_criterion_2_transcription_oracles():
    rng = np.random.default_rng(12)
    conv_worst = 0.0
    for _ in range(100):
        in_ch, out_ch = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        r, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        h, w = int(rng.integers(r, r + 4)), int(rng.integers(r, r + 4))
        conv = ConvLayer(in_ch, out_ch, r, stride, rng=rng)
        conv.gains[:] = rng.uniform(0.5, 2.0, out_ch)
        x = rng.uniform(-1, 1, (in_ch, h, w))
        y, _ = conv.forward(x[None])
        conv_worst = max(conv_worst, float(np.max(np.abs(
            y[0] - _conv_oracle(x, conv.kernels, conv.gains, stride)))))

    # LSTMCell.run on ragged, left-padded minibatches of 1-3 rows
    lstm_worst = 0.0
    for _ in range(100):
        inp, hid = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cell = LSTMCell(inp, hid, rng=rng)
        cell.b_x[:] = rng.uniform(-0.5, 0.5, 4 * hid)
        cell.b_h[:] = rng.uniform(-0.5, 0.5, 4 * hid)
        lengths = rng.integers(0, 6, int(rng.integers(1, 4)))
        steps = int(lengths.max())
        mask = np.arange(steps)[:, None] >= steps - lengths
        xs = rng.uniform(-2, 2, (steps, len(lengths), inp))
        h, c, _ = cell.run(xs, mask)
        for b, n in enumerate(lengths):
            h_ref, c_ref = _lstm_oracle(cell, xs[steps - n:, b])
            lstm_worst = max(lstm_worst,
                             float(np.max(np.abs(h[b] - h_ref))),
                             float(np.max(np.abs(c[b] - c_ref))))

    ok = conv_worst < 1e-12 and lstm_worst < 1e-12
    report("2 transcription oracles", ok,
           f"conv worst={conv_worst:.2e}, lstm worst={lstm_worst:.2e}, "
           f"100 cases each")
    assert conv_worst < 1e-12
    assert lstm_worst < 1e-12


# ---------------------------------------------------------------------------
# criterion 3: AFM parameter recovery over 5 seeds


def test_criterion_3_afm_parameter_recovery():
    details = []
    ok = True
    for seed in range(5):
        log, q, true = synth_afm_log(AfmLogSynthSpec(seed=seed))
        start = time.time()
        params, _ = afm_fit(log, q)
        fit_seconds = time.time() - start
        kcs = q.kc_names
        r_beta = pearson([params.beta[k] for k in kcs],
                         [true.beta[k] for k in kcs])
        r_gamma = pearson([params.gamma[k] for k in kcs],
                          [true.gamma[k] for k in kcs])
        details.append(f"seed{seed}: b={r_beta:.3f} g={r_gamma:.3f} "
                       f"{fit_seconds:.1f}s")
        ok = ok and r_beta >= 0.9 and r_gamma >= 0.8 and fit_seconds < 60.0
        assert r_beta >= 0.9, f"seed {seed}: beta correlation {r_beta}"
        assert r_gamma >= 0.8, f"seed {seed}: gamma correlation {r_gamma}"
        assert fit_seconds < 60.0
    report("3 AFM parameter recovery", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criteria 4 and 5: visual domain


def test_criterion_4_cv_ordering(visual_study):
    start = time.time()
    oracle = visual_study["bundle"].extras["oracle_q"]
    log, _, _ = synth_afm_log(AfmLogSynthSpec(students=50, seed=101,
                                              q=oracle))
    cv = CVConfig(folds=10, seed=3)
    items = oracle.item_ids
    rmse_fac = item_stratified_cv(log, faculty_transfer(items), None, cv).mean_rmse
    rmse_ide = item_stratified_cv(log, identical_transfer(items), None, cv).mean_rmse
    rmse_cog = item_stratified_cv(log, visual_study["q_cogrl"], None, cv).mean_rmse
    total_seconds = visual_study["train_seconds"] + (time.time() - start)

    ordering = rmse_ide > rmse_fac
    margin = rmse_cog <= rmse_fac + 0.005
    ok = ordering and margin and total_seconds < 600.0
    report("4 CV ordering", ok,
           f"identical={rmse_ide:.4f} > faculty={rmse_fac:.4f}: {ordering}; "
           f"cogrl={rmse_cog:.4f} <= faculty+0.005: {margin}; "
           f"{total_seconds:.0f}s total")
    assert ordering
    assert margin
    assert total_seconds < 600.0


def test_criterion_5_representation_clustering(visual_study):
    accuracy = visual_study["accuracy"]
    q = visual_study["q_cogrl"]
    oracle = visual_study["bundle"].extras["oracle_q"]
    items = q.item_ids
    shared = total = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if (oracle.row(items[i]) != oracle.row(items[j])).any():
                continue
            total += 1
            if (q.row(items[i]) & q.row(items[j])).any():
                shared += 1
    fraction = shared / total
    ok = accuracy >= 0.95 and fraction >= 0.80
    report("5 representation clustering", ok,
           f"train accuracy={accuracy:.2%}, same-template KC sharing="
           f"{shared}/{total}={fraction:.2%} at tau=0.95")
    assert accuracy >= 0.95
    assert fraction >= 0.80


# ---------------------------------------------------------------------------
# criterion 6: cloze pipeline


def test_criterion_6_cloze_pipeline(cloze_study):
    bundle = cloze_study["bundle"]
    assert len(bundle.problems) >= 60
    assert len(bundle.answer_labels) == 3
    vocab = CharVocab.from_problems(bundle.problems)
    net = ClozeLSTM(ClozeArchSpec(n_classes=3), vocab, seed=5)
    history = train_model(net, bundle.problems,
                          SGDConfig(learning_rate=1.0, seed=5,
                                    max_epochs=500, target_loss=0.01))
    accuracy = training_accuracy(
        extract_representations(net, bundle.problems)[1], bundle.problems)
    ok = accuracy >= 0.90 and len(history) <= 500
    report("6 cloze pipeline", ok,
           f"{len(bundle.problems)} questions, epochs={len(history)}, "
           f"final loss={history[-1]:.4f}, accuracy={accuracy:.2%}")
    assert accuracy >= 0.90
    assert len(history) <= 500


# ---------------------------------------------------------------------------
# criterion 7: apprentice study shape


def test_criterion_7_apprentice_study(cloze_study):
    bundle = cloze_study["bundle"]
    log = cloze_study["original_log"]
    q_rules = bundle.extras["oracle_q"]
    hidden = "rule_an_hidden"

    human = simulate_and_estimate(log, bundle.problems,
                                  human_features(bundle.problems), q_rules,
                                  sim=SimConfig(seed=123))
    slope = dict(zip(human.report.kc_names, human.report.slopes))
    hidden_slope = slope[hidden]
    expressible = {k: slope[k] for k in q_rules.kc_names if k != hidden}
    min_expressible = min(expressible.values())

    full = simulate_and_estimate(
        log, bundle.problems, bundle.extras["features_full"], q_rules,
        sim=SimConfig(seed=123))
    slope_r = full.report.slope_correlation

    ok = hidden_slope < 0.05 and min_expressible > 0.2 and slope_r >= 0.8
    report("7 apprentice study", ok,
           f"hidden slope={hidden_slope:.4f} < 0.05; min expressible slope="
           f"{min_expressible:.3f} > 0.2; full-information slope "
           f"correlation={slope_r:.4f} >= 0.8")
    assert hidden_slope < 0.05
    assert min_expressible > 0.2
    assert slope_r >= 0.8


# ---------------------------------------------------------------------------
# criterion 8: CLI determinism, independent of --jobs


def _run_cli(args):
    return cli_main([str(a) for a in args])


def test_criterion_8_cli_determinism(tmp_path, capsys):
    checks = []

    def compare(name, a, b):
        same = a.read_bytes() == b.read_bytes()
        checks.append((name, same))
        assert same, f"{name} differs between reruns"

    # synth visual / cloze / afm-log
    for variant, extra in (("visual", ["--templates", "2", "--per-template",
                                       "3", "--height", "12", "--width", "12",
                                       "--jitter", "1"]),
                           ("cloze", ["--questions", "30"]),
                           ("afm-log", ["--students", "8", "--items", "6",
                                        "--kcs", "2"])):
        for tag in ("a", "b"):
            assert _run_cli(["synth", variant, "--out-dir",
                             tmp_path / f"{variant}_{tag}", "--seed", "4"]
                            + extra) == 0
        primary = {"visual": "manifest.tsv", "cloze": "cloze.tsv",
                   "afm-log": "transactions.tsv"}[variant]
        compare(f"synth {variant}", tmp_path / f"{variant}_a" / primary,
                tmp_path / f"{variant}_b" / primary)

    # train-rep + qmatrix
    for tag in ("a", "b"):
        assert _run_cli(["train-rep", "--images",
                         tmp_path / "visual_a" / "manifest.tsv",
                         "--out-checkpoint", tmp_path / f"ckpt_{tag}",
                         "--out-reps", tmp_path / f"reps_{tag}.tsv",
                         "--filters", "3", "--kernel", "3", "--stride", "2",
                         "--rep-size", "6", "--epochs", "40", "--lr", "0.5",
                         "--seed", "2"]) == 0
        assert _run_cli(["qmatrix", "--reps", tmp_path / f"reps_{tag}.tsv",
                         "--out", tmp_path / f"q_{tag}.tsv",
                         "--emit-faculty", tmp_path / f"fac_{tag}.tsv"]) == 0
    compare("train-rep checkpoint", tmp_path / "ckpt_a", tmp_path / "ckpt_b")
    compare("train-rep reps", tmp_path / "reps_a.tsv", tmp_path / "reps_b.tsv")
    compare("qmatrix", tmp_path / "q_a.tsv", tmp_path / "q_b.tsv")

    # fit-afm / cv / compare with --jobs variation
    log = tmp_path / "afm-log_a" / "transactions.tsv"
    qm = tmp_path / "afm-log_a" / "qmatrix.tsv"
    for tag, jobs in (("a", "1"), ("b", "2")):
        assert _run_cli(["fit-afm", "--log", log, "--qmatrix", qm,
                         "--out", tmp_path / f"params_{tag}.tsv"]) == 0
        assert _run_cli(["cv", "--log", log, "--qmatrix", qm, "--folds", "3",
                         "--seed", "1", "--jobs", jobs,
                         "--out", tmp_path / f"cv_{tag}.tsv"]) == 0
        assert _run_cli(["compare", "--log", log,
                         "--models", f"faculty,identical,oracle={qm}",
                         "--folds", "3", "--seed", "1", "--jobs", jobs,
                         "--out", tmp_path / f"cmp_{tag}.tsv"]) == 0
    compare("fit-afm", tmp_path / "params_a.tsv", tmp_path / "params_b.tsv")
    compare("cv (jobs 1 vs 2)", tmp_path / "cv_a.tsv", tmp_path / "cv_b.tsv")
    compare("compare (jobs 1 vs 2)", tmp_path / "cmp_a.tsv",
            tmp_path / "cmp_b.tsv")

    # simulate with --jobs variation
    assert _run_cli(["synth", "afm-log", "--out-dir", tmp_path / "clog",
                     "--seed", "3", "--students", "6",
                     "--qmatrix", tmp_path / "cloze_a" / "oracle_q.tsv"]) == 0
    for tag, jobs in (("a", "1"), ("b", "2")):
        assert _run_cli(["simulate",
                         "--log", tmp_path / "clog" / "transactions.tsv",
                         "--cloze", tmp_path / "cloze_a" / "cloze.tsv",
                         "--q-eval", tmp_path / "cloze_a" / "oracle_q.tsv",
                         "--features", "human", "--seed", "6", "--jobs", jobs,
                         "--out", tmp_path / f"study_{tag}.tsv"]) == 0
    compare("simulate (jobs 1 vs 2)", tmp_path / "study_a.tsv",
            tmp_path / "study_b.tsv")

    # gradcheck: identical stdout across reruns
    capsys.readouterr()
    assert _run_cli(["gradcheck", "--seed", "3"]) == 0
    out1 = capsys.readouterr().out
    assert _run_cli(["gradcheck", "--seed", "3"]) == 0
    out2 = capsys.readouterr().out
    checks.append(("gradcheck stdout", out1 == out2))
    assert out1 == out2

    ok = all(same for _, same in checks)
    report("8 CLI determinism", ok,
           f"{len(checks)} rerun comparisons byte-identical, "
           f"including --jobs 1 vs 2")


# ---------------------------------------------------------------------------
# criterion 9: invariant property suites


def test_criterion_9_invariant_suites():
    timings = {}

    start = time.time()
    rng = np.random.default_rng(0)
    for _ in range(200):
        values = rng.uniform(0, 1, size=(rng.integers(1, 8),
                                         rng.integers(1, 8)))
        lo, hi = sorted(rng.uniform(0.05, 0.95, 2))
        assert np.all((values > hi).astype(int) <= (values > lo).astype(int))
    timings["threshold monotonicity"] = time.time() - start

    start = time.time()
    for _ in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        q = QMatrix([f"i{k}" for k in range(n)], [f"k{k}" for k in range(m)],
                    (rng.uniform(size=(n, m)) < 0.4).astype(int))
        once, _ = sanitize_qmatrix(q)
        twice, rep = sanitize_qmatrix(once)
        assert rep.lines() == ["no changes"]
        assert np.array_equal(once.cells, twice.cells)
    timings["sanitize idempotence"] = time.time() - start

    start = time.time()
    for seed in range(5):
        log, q, _ = synth_afm_log(AfmLogSynthSpec(
            students=10, items=12, kcs=3, seed=seed))
        pairs = opportunity_pairs(log.columns, q)
        student = log.columns.student[pairs.row]
        last = {}
        # pairs run in row order
        for key, t in zip(zip(student.tolist(), pairs.kc.tolist()),
                          pairs.t.tolist()):
            assert t >= last.get(key, 0)
            last[key] = t
    timings["opportunity monotonicity"] = time.time() - start

    start = time.time()
    from cogrl.afm import AFMParams
    for _ in range(100):
        items = [f"i{k}" for k in range(3)]
        q = identical_transfer(items)
        c = float(rng.uniform(-2, 2))
        params = AFMParams(
            theta={"s": float(rng.normal())},
            beta={k: float(rng.normal()) for k in q.kc_names},
            gamma={k: float(rng.uniform(0, 0.5)) for k in q.kc_names})
        shifted = AFMParams(theta={"s": params.theta["s"] + c},
                            beta={k: v - c for k, v in params.beta.items()},
                            gamma=dict(params.gamma))
        # row k is the student's attempt at item k, whose one KC is k
        pairs = Pairs(np.arange(3), np.arange(3),
                      np.array([int(rng.integers(0, 5)) for _ in items]))
        kcs = q.kc_names
        p0, p1 = (sigmoid(afm_logits(np.full(3, p.theta["s"]),
                                     np.array([p.beta[k] for k in kcs]),
                                     np.array([p.gamma[k] for k in kcs]),
                                     pairs))
                  for p in (params, shifted))
        for a, b in zip(p0.tolist(), p1.tolist()):
            assert math.isclose(a, b, rel_tol=1e-9)
    timings["shift prediction-invariance"] = time.time() - start

    start = time.time()
    bundle = synth_cloze(ClozeSynthSpec(seed=1))
    feats = human_features(bundle.problems)
    problems = bundle.problems[:30]
    _, x = _encode([feats[p.item_id] for p in problems])
    answers = np.array([p.answer for p in problems])
    for trial in range(10):
        cut = int(rng.integers(2, len(problems) - 2))
        order = np.concatenate([np.arange(cut),
                                cut + rng.permutation(len(problems) - cut)])
        base = simulate_learner(x, answers.tolist(), SimConfig(seed=trial),
                                labels=[0, 1, 2])
        other = simulate_learner(x[order], answers[order].tolist(),
                                 SimConfig(seed=trial), labels=[0, 1, 2])
        assert base[:cut].tolist() == other[:cut].tolist()
    timings["no label leakage"] = time.time() - start

    start = time.time()
    for seed in range(20):
        ids = [f"i{k}" for k in range(12)]
        assert assign_folds(ids, 4, seed) == \
            assign_folds(list(reversed(ids)), 4, seed)
    timings["fold assignment purity"] = time.time() - start

    ok = all(t < 60.0 for t in timings.values())
    detail = ", ".join(f"{name} {t:.1f}s" for name, t in timings.items())
    report("9 invariant suites", ok, detail)
    for name, t in timings.items():
        assert t < 60.0, f"{name} exceeded 60s"
