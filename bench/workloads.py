"""The benchmark's three workloads: inputs, timed commands and checks.

``setup`` makes a workload's inputs from a seed and writes them; it calls
the program only for the synthetic content domains (``synth_visual``,
``synth_cloze``). Transaction logs come from ``sample_afm_log`` below, not
from ``cogrl.ingest.synth_afm_log``, so the generating parameters the
checks use are drawn here and a change to the program cannot move the AFM
inputs. ``commands`` lists the ``cogrl`` command lines a round times, and
``check`` tests their outputs against ``reference`` or against properties
the method must have, never against stored outputs.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import reference as ref

TAU = 0.95
VISUAL_EPOCHS = 50
CLOZE_EPOCHS = 4
VISUAL_STUDENTS = 50
CLOZE_STUDENTS = 25
POPULATION_QUESTIONS = 200
POPULATION_STUDENTS = 50
POPULATION_CURRICULUM = 200
POPULATION_COHORT = 10
FOLDS = 10


def _seed(seed: int) -> int:
    return seed % 2**32


# ---------------------------------------------------------------------------
# writing inputs


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_qmatrix(path, item_ids, kc_names, cells) -> None:
    _write_lines(path, ["\t".join(["item_id"] + list(kc_names))]
                 + ["\t".join([item] + [str(int(v)) for v in row])
                    for item, row in zip(item_ids, cells)])


def _write_log(path, rows) -> None:
    _write_lines(path, ["student_id\titem_id\toutcome\torder"]
                 + [f"{s}\t{i}\t{y}\t{o}" for s, i, y, o in rows])


def _write_pgm(path, image) -> None:
    data = np.clip(np.rint(image[0] * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def _write_cloze(path, bundle) -> None:
    _write_lines(path, ["item_id\ttext\tanswer"]
                 + [f"{p.item_id}\t{p.content.text}\t"
                    f"{bundle.answer_labels[p.answer]}"
                    for p in bundle.problems])


def sample_afm_log(rng, item_ids, kc_names, cells, students, per_student):
    """Sample a transactions log from AFM parameters drawn here.

    theta ~ N(0, 1) per student, beta ~ U(-1, 1) and gamma ~ U(0, 0.3) per
    KC. Each student works the first ``per_student`` items of a seeded
    shuffle; each outcome is a Bernoulli draw at
    sigmoid(theta + sum over the item's KCs of beta + gamma * opportunities),
    the opportunities counting the student's earlier items that need the KC.
    Returns (rows, truth) with rows (student, item, outcome, order).
    """
    cells = np.asarray(cells, dtype=np.float64)
    theta = rng.normal(0.0, 1.0, size=students)
    beta = rng.uniform(-1.0, 1.0, size=len(kc_names))
    gamma = rng.uniform(0.0, 0.3, size=len(kc_names))
    seqs = np.array([rng.permutation(len(item_ids))[:per_student]
                     for _ in range(students)])
    draws = rng.uniform(size=seqs.shape)
    counts = np.zeros((students, len(kc_names)))
    outcomes = np.zeros(seqs.shape, dtype=np.int64)
    for t in range(seqs.shape[1]):
        need = cells[seqs[:, t]]
        eta = theta + np.sum(need * (beta + gamma * counts), axis=1)
        outcomes[:, t] = draws[:, t] < ref.sigmoid(eta)
        counts += need
    names = [f"s{s:03d}" for s in range(students)]
    rows = [(names[s], item_ids[seqs[s, t]], int(outcomes[s, t]), t + 1)
            for s in range(students) for t in range(seqs.shape[1])]
    truth = {"theta": dict(zip(names, theta.tolist())),
             "beta": dict(zip(kc_names, beta.tolist())),
             "gamma": dict(zip(kc_names, gamma.tolist()))}
    return rows, truth


def setup(workload: str, seed: int, root: str) -> dict[str, str]:
    """Write a workload's inputs under ``root``; returns {path: sha256}."""
    from cogrl.ingest import (FULL_FEATURE_NAMES, ClozeSynthSpec,
                              VisualSynthSpec, synth_cloze, synth_visual)

    seed = _seed(seed)
    rng = np.random.default_rng([seed, 1])
    os.makedirs(os.path.join(root, "in"), exist_ok=True)
    os.makedirs(os.path.join(root, "out"), exist_ok=True)
    path = lambda name: os.path.join(root, "in", name)  # noqa: E731
    truth = None
    if workload == "visual":
        bundle = synth_visual(VisualSynthSpec(seed=seed))
        os.makedirs(path("images"), exist_ok=True)
        lines = ["item_id\timage\tanswer"]
        for p in bundle.problems:
            _write_pgm(path(f"images/{p.item_id}.pgm"), p.content)
            lines.append(f"{p.item_id}\timages/{p.item_id}.pgm\t"
                         f"{bundle.answer_labels[p.answer]}")
        _write_lines(path("manifest.tsv"), lines)
        oracle = bundle.extras["oracle_q"]
        rows, truth = sample_afm_log(rng, oracle.item_ids, oracle.kc_names,
                                     oracle.cells, VISUAL_STUDENTS,
                                     len(oracle.item_ids))
        _write_log(path("log.tsv"), rows)
    elif workload in ("cloze", "population"):
        questions = 70 if workload == "cloze" else POPULATION_QUESTIONS
        bundle = synth_cloze(ClozeSynthSpec(questions=questions, seed=seed))
        _write_cloze(path("cloze.tsv"), bundle)
        oracle = bundle.extras["oracle_q"]
        _write_qmatrix(path("oracle_q.tsv"), oracle.item_ids, oracle.kc_names,
                       oracle.cells)
        if workload == "cloze":
            rows, truth = sample_afm_log(rng, oracle.item_ids, oracle.kc_names,
                                         oracle.cells, CLOZE_STUDENTS,
                                         len(oracle.item_ids))
            _write_log(path("log.tsv"), rows)
        else:
            full = bundle.extras["features_full"]
            _write_lines(path("features_full.tsv"),
                         ["\t".join(["item_id"] + FULL_FEATURE_NAMES)]
                         + ["\t".join([item] + [str(full[item][n])
                                                for n in FULL_FEATURE_NAMES])
                            for item in oracle.item_ids])
            rows, truth = sample_afm_log(rng, oracle.item_ids, oracle.kc_names,
                                         oracle.cells, POPULATION_STUDENTS,
                                         POPULATION_CURRICULUM)
            _write_log(path("log.tsv"), rows)
            _write_log(path("cohort.tsv"),
                       rows[:POPULATION_COHORT * POPULATION_CURRICULUM])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(path("truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    return digests(os.path.join(root, "in"))


def digests(directory: str) -> dict[str, str]:
    """SHA-256 of every file under ``directory`` except run manifests, which
    carry timings."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".manifest.json"):
                continue
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, directory)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# timed commands


def commands(workload: str, seed: int, root: str) -> list[tuple[str, list[str]]]:
    """(metric name, cogrl argv) for each command of one round, in order."""
    i = lambda name: os.path.join(root, "in", name)  # noqa: E731
    o = lambda name: os.path.join(root, "out", name)  # noqa: E731
    common = ["--seed", str(_seed(seed))]
    jobs = ["--jobs", "1"]
    if workload == "visual":
        return [
            ("train_rep_s", ["train-rep", "--images", i("manifest.tsv"),
                             "--out-checkpoint", o("model.ckpt"),
                             "--out-reps", o("reps.tsv"), "--kernel", "5",
                             "--stride", "2", "--lr", "0.5",
                             "--epochs", str(VISUAL_EPOCHS),
                             "--target-loss", "0"] + common),
            ("qmatrix_s", ["qmatrix", "--reps", o("reps.tsv"),
                           "--tau", str(TAU), "--out", o("q_cogrl.tsv"),
                           "--emit-faculty", o("q_faculty.tsv"),
                           "--emit-identical", o("q_identical.tsv")] + common),
            ("compare_s", ["compare", "--log", i("log.tsv"), "--models",
                           f"faculty,identical,cogrl={o('q_cogrl.tsv')}",
                           "--folds", str(FOLDS), "--out", o("compare.tsv")]
             + common + jobs),
        ]
    if workload == "cloze":
        return [
            ("train_rep_s", ["train-rep", "--cloze", i("cloze.tsv"),
                             "--out-checkpoint", o("model.ckpt"),
                             "--out-reps", o("reps.tsv"), "--lr", "1.0",
                             "--epochs", str(CLOZE_EPOCHS),
                             "--target-loss", "0"] + common),
            ("qmatrix_s", ["qmatrix", "--reps", o("reps.tsv"),
                           "--tau", str(TAU), "--out", o("q_cogrl.tsv")]
             + common),
            ("simulate_s", ["simulate", "--log", i("log.tsv"),
                            "--cloze", i("cloze.tsv"),
                            "--q-eval", i("oracle_q.tsv"), "--features",
                            "human", "--out", o("study.tsv"),
                            "--out-sim-log", o("sim_log.tsv")] + common + jobs),
        ]
    return [
        ("fit_afm_s", ["fit-afm", "--log", i("log.tsv"),
                       "--qmatrix", i("oracle_q.tsv"), "--out", o("params.tsv"),
                       "--report", o("kc_report.tsv")] + common),
        ("compare_s", ["compare", "--log", i("log.tsv"), "--models",
                       f"faculty,identical,oracle={i('oracle_q.tsv')}",
                       "--folds", str(FOLDS), "--out", o("compare.tsv")]
         + common + jobs),
        ("simulate_s", ["simulate", "--log", i("cohort.tsv"),
                        "--cloze", i("cloze.tsv"), "--q-eval", i("oracle_q.tsv"),
                        "--features", "file",
                        "--features-file", i("features_full.tsv"),
                        "--out", o("study.tsv"),
                        "--out-sim-log", o("sim_log.tsv")] + common + jobs),
    ]


# ---------------------------------------------------------------------------
# checks


def _printed(stdout: str, key: str) -> str:
    """The value printed as ``key=value`` on a command's standard output."""
    for token in stdout.split():
        if token.startswith(key + "="):
            return token[len(key) + 1:]
    raise ValueError(f"{key} not printed")


def _read_log(path):
    _, rows = ref.read_tsv(path)
    return [(s, i, int(y), int(o)) for s, i, y, o in rows]


def _read_qmatrix(path):
    header, rows = ref.read_tsv(path)
    return (header[1:], [r[0] for r in rows],
            np.array([[int(v) for v in r[1:]] for r in rows], dtype=np.int64))


def _representation_checks(workload, root, stdout):
    """Reference forward pass over the written checkpoint, and the
    Q-matrix's structure against the written representations."""
    meta, params = ref.read_checkpoint(os.path.join(root, "out", "model.ckpt"))
    header, rows = ref.read_tsv(os.path.join(root, "out", "reps.tsv"))
    reps = np.array([[float(v) for v in r[1:]] for r in rows])
    rep_items = [r[0] for r in rows]
    if workload == "visual":
        _, problems = ref.read_tsv(os.path.join(root, "in", "manifest.tsv"))
        contents = [ref.read_pgm(os.path.join(root, "in", rel))
                    for _, rel, _ in problems]
        forward = lambda x: ref.cnn_forward(params, meta["stride"], x)  # noqa: E731
    else:
        _, problems = ref.read_tsv(os.path.join(root, "in", "cloze.tsv"))
        contents = [text for _, text, _ in problems]
        forward = lambda x: ref.lstm_forward(  # noqa: E731
            params, meta["vocab_chars"], x)
    labels = list(dict.fromkeys(answer for _, _, answer in problems))
    results = [forward(x) for x in contents]
    worst = float(np.max(np.abs(np.array([r for r, _ in results]) - reps)))
    correct = sum(int(np.argmax(logits)) == labels.index(answer)
                  for (_, logits), (_, _, answer) in zip(results, problems))
    accuracy = f"{correct / len(problems):.4f}"
    printed = _printed(stdout, "train_accuracy")
    checks = [
        ("reference forward reproduces reps",
         rep_items == [p[0] for p in problems] and worst <= 1e-9,
         f"max |diff| = {worst:.3g}"),
        ("reference train_accuracy equals printed", accuracy == printed,
         f"reference {accuracy}, printed {printed}"),
    ]
    kc_names, q_items, cells = _read_qmatrix(
        os.path.join(root, "out", "q_cogrl.tsv"))
    binary = (reps > TAU).astype(np.int64)
    distinct = {}
    for k in range(binary.shape[1]):
        if binary[:, k].any():
            distinct.setdefault(binary[:, k].tobytes(), []).append(header[1 + k])
    kept = [j for j, name in enumerate(kc_names) if name != "residual"]
    got = {cells[:, j].tobytes(): kc_names[j].split("+") for j in kept}
    zero_rows = ~binary.any(axis=1)
    residual_ok = ("residual" in kc_names
                   and np.array_equal(cells[:, kc_names.index("residual")],
                                      zero_rows.astype(np.int64))
                   ) if zero_rows.any() else "residual" not in kc_names
    checks.append((
        "Q-matrix columns are the distinct non-empty columns of reps > tau",
        q_items == rep_items and got == distinct and len(kept) == len(distinct),
        f"{len(kept)} columns, {len(distinct)} expected"))
    checks.append(("every item has a KC; residual marks the all-zero rows",
                   bool(cells.sum(axis=1).min() >= 1) and residual_ok,
                   f"{int(zero_rows.sum())} all-zero rows"))
    return checks, float(accuracy)


def _read_compare(root):
    _, rows = ref.read_tsv(os.path.join(root, "out", "compare.tsv"))
    return {r[0]: float(r[1]) for r in rows}


def _simulate_checks(root, log_name):
    """The simulated log replays the input log; the footer correlations are
    the Pearson correlations of the table's columns."""
    log = _read_log(os.path.join(root, "in", log_name))
    sim = _read_log(os.path.join(root, "out", "sim_log.tsv"))
    _, rows = ref.read_tsv(os.path.join(root, "out", "study.tsv"))
    table = {r[0]: [float(v) for v in r[1:5]] for r in rows[:-1]}
    footer = rows[-1]
    cols = list(zip(*table.values()))
    checks = [("simulated log replays the (student, item, order) triples",
               sorted((s, o, i) for s, i, _, o in sim)
               == sorted((s, o, i) for s, i, _, o in log),
               f"{len(sim)} simulated rows, {len(log)} input rows")]
    for name, sim_col, orig_col, printed in (
            ("intercept", cols[2], cols[0], footer[3]),
            ("slope", cols[3], cols[1], footer[4])):
        r = ref.pearson(sim_col, orig_col)
        tol = 5e-7 + ref.pearson_rounding_bound(sim_col, orig_col, 5e-7)
        checks.append((f"footer {name} correlation equals reference Pearson",
                       abs(r - float(printed)) <= tol,
                       f"reference {r:.6f}, printed {printed}, tol {tol:.2g}"))
    return checks, sim


def check(workload: str, root: str, stdout: dict[str, str]):
    """Checks of one round's outputs: a list of (name, passed, detail)."""
    checks = []
    if workload in ("visual", "cloze"):
        rep_checks, accuracy = _representation_checks(
            workload, root, stdout["train_rep_s"])
        checks += rep_checks
    # Two orderings the method usually shows are not checked, because they
    # fail on some seeds and would make `correct` depend on the seed (see
    # CHANGES.md): identical-transfer CV-RMSE above faculty's on `visual`
    # (not so on seed 229), and a simulated rule_an_hidden slope below 0.05
    # on `cloze` (0.060 on seed 147).
    if workload == "visual":
        checks.append(("training accuracy >= 0.95", accuracy >= 0.95,
                       f"{accuracy:.4f}"))
    elif workload == "cloze":
        checks += _simulate_checks(root, "log.tsv")[0]
    else:
        checks += _population_checks(root, stdout["fit_afm_s"])
    return checks


def _population_checks(root, fit_stdout):
    kc_names, items, cells = _read_qmatrix(
        os.path.join(root, "in", "oracle_q.tsv"))
    item_kcs = {item: [kc_names[j] for j in np.flatnonzero(row)]
                for item, row in zip(items, cells)}
    log = _read_log(os.path.join(root, "in", "log.tsv"))
    _, rows = ref.read_tsv(os.path.join(root, "out", "params.tsv"))
    fitted = {"theta": {}, "beta": {}, "gamma": {}}
    for entity, role, value in rows:
        fitted[role][entity] = float(value)
    with open(os.path.join(root, "in", "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    ll_fit = ref.afm_penalized_loglik(log, item_kcs, **fitted)
    ll_truth = ref.afm_penalized_loglik(log, item_kcs, **truth)
    printed = _printed(fit_stdout, "objective")
    checks = [
        ("reference log-likelihood of the written fit equals the printed "
         "objective", abs(ll_fit - float(printed)) <= 5e-7 + 1e-12 * abs(ll_fit),
         f"reference {ll_fit:.6f}, printed {printed}"),
        ("fitted objective not below the generating parameters'",
         ll_fit >= ll_truth, f"fit {ll_fit:.3f}, truth {ll_truth:.3f}"),
        ("every gamma >= 0", min(fitted["gamma"].values()) >= 0.0,
         f"min {min(fitted['gamma'].values()):.3g}"),
    ]
    rmse = _read_compare(root)
    checks.append(("compare orders oracle < faculty < identical",
                   rmse["oracle"] < rmse["faculty"] < rmse["identical"],
                   json.dumps(rmse)))
    sim_checks, sim = _simulate_checks(root, "cohort.tsv")
    checks += sim_checks
    _, rows = ref.read_tsv(os.path.join(root, "in", "features_full.tsv"))
    vector = {r[0]: tuple(r[1:]) for r in rows}
    _, questions = ref.read_tsv(os.path.join(root, "in", "cloze.tsv"))
    answer_of = {vector[item]: set() for item in vector}
    for item, _, answer in questions:
        answer_of[vector[item]].add(answer)
    checks.append(("full features have no contradictions",
                   all(len(a) == 1 for a in answer_of.values()),
                   f"{len(answer_of)} distinct vectors"))
    seen, repeats, wrong = set(), 0, 0
    for student, item, outcome, _ in sorted(sim, key=lambda r: (r[0], r[3])):
        key = (student, vector[item])
        if key in seen:
            repeats += 1
            wrong += outcome != 1
        seen.add(key)
    checks.append(("attempts on an already-seen full feature vector are "
                   "correct", repeats > 0 and wrong == 0,
                   f"{wrong} wrong of {repeats}"))
    return checks
