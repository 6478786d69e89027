"""End-to-end CLI behavior: pipelines, determinism, exit codes, manifests."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import cogrl
from cogrl.apprentice import STUDY_L2_BETA_GAMMA
from cogrl.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


def manifest_of(path):
    """The manifest written beside ``path``; a NaN or infinity fails."""
    def strict(constant):
        raise AssertionError(f"manifest holds {constant}")

    return json.loads(pathlib.Path(f"{path}.manifest.json").read_text(),
                      parse_constant=strict)


def without_times(manifest):
    """A manifest without the run's duration and its --jobs flag."""
    flags = {k: v for k, v in manifest["flags"].items() if k != "jobs"}
    return {**manifest, "flags": flags, "duration_s": None}


@pytest.fixture(scope="module")
def visual_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("visual")
    assert run(["synth", "visual", "--out-dir", d, "--seed", "3",
                "--templates", "2", "--per-template", "3",
                "--height", "12", "--width", "12", "--jitter", "1"]) == 0
    return d


@pytest.fixture(scope="module")
def cloze_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cloze")
    assert run(["synth", "cloze", "--out-dir", d, "--seed", "2",
                "--questions", "40"]) == 0
    return d


class TestSynth:
    def test_visual_outputs_exist(self, visual_dir):
        assert (visual_dir / "manifest.tsv").exists()
        assert (visual_dir / "oracle_q.tsv").exists()
        assert (visual_dir / "manifest.tsv.manifest.json").exists()

    def test_cloze_outputs_exist(self, cloze_dir):
        for name in ("cloze.tsv", "oracle_q.tsv", "features_human.tsv",
                     "features_full.tsv"):
            assert (cloze_dir / name).exists()

    def test_afm_log_rerun_byte_identical(self, tmp_path):
        args = ["synth", "afm-log", "--seed", "5", "--students", "10",
                "--items", "8", "--kcs", "2"]
        assert run(args + ["--out-dir", tmp_path / "a"]) == 0
        assert run(args + ["--out-dir", tmp_path / "b"]) == 0
        for name in ("transactions.tsv", "qmatrix.tsv", "true_params.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("flag", [["--seed", "5"],
                                      ["--manifest", "m.json"]])
    def test_flags_before_the_variant_are_usage_errors(self, tmp_path,
                                                       monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["synth", *flag, "visual", "--out-dir", "d"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_flags_after_the_variant_apply(self, tmp_path):
        assert run(["synth", "visual", "--seed", "5",
                    "--manifest", tmp_path / "m.json",
                    "--out-dir", tmp_path / "d", "--templates", "2",
                    "--per-template", "2", "--height", "8", "--width", "8",
                    "--jitter", "1"]) == 0
        assert json.loads((tmp_path / "m.json").read_text())["seed"] == 5
        assert not (tmp_path / "d" / "manifest.tsv.manifest.json").exists()

    def test_manifest_records_inputs_and_flags(self, tmp_path, visual_dir):
        out = tmp_path / "log"
        assert run(["synth", "afm-log", "--out-dir", out, "--seed", "1",
                    "--students", "5", "--items", "6", "--kcs", "2",
                    "--qmatrix", visual_dir / "oracle_q.tsv"]) == 0
        manifest = json.loads(
            (out / "transactions.tsv.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 1
        assert len(manifest["inputs"]) == 1
        digest = next(iter(manifest["inputs"].values()))
        assert len(digest) == 64


@pytest.fixture(scope="module")
def trained(tmp_path_factory, visual_dir):
    d = tmp_path_factory.mktemp("trained")
    code = run(["train-rep", "--images", visual_dir / "manifest.tsv",
                "--out-checkpoint", d / "model.ckpt",
                "--out-reps", d / "reps.tsv",
                "--filters", "3", "--kernel", "3", "--stride", "2",
                "--rep-size", "8", "--epochs", "60", "--lr", "0.5",
                "--target-loss", "0.001", "--seed", "4"])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory, visual_dir):
    d = tmp_path_factory.mktemp("logs")
    assert run(["synth", "afm-log", "--out-dir", d, "--seed", "6",
                "--students", "12",
                "--qmatrix", visual_dir / "oracle_q.tsv"]) == 0
    return d


class TestTrainAndQmatrix:
    def test_outputs_written(self, trained):
        assert (trained / "model.ckpt").exists()
        assert (trained / "reps.tsv").exists()

    def test_qmatrix_with_baselines(self, trained, tmp_path):
        # human-authored map covering the six items of the tiny visual set
        human_map = tmp_path / "map.tsv"
        lines = ["item_id\tkc_name"]
        reps_items = [line.split("\t")[0] for line in
                      (trained / "reps.tsv").read_text().splitlines()[1:]]
        for item in reps_items:
            lines.append(f"{item}\tkc_{item[:3]}")
        human_map.write_text("\n".join(lines) + "\n")
        code = run(["qmatrix", "--reps", trained / "reps.tsv",
                    "--tau", "0.95", "--out", tmp_path / "q.tsv",
                    "--emit-faculty", tmp_path / "fac.tsv",
                    "--emit-identical", tmp_path / "ide.tsv",
                    "--human-map", human_map,
                    "--emit-human", tmp_path / "hum.tsv"])
        assert code == 0
        assert (tmp_path / "q.tsv").exists()
        assert (tmp_path / "q.tsv.report.txt").exists()
        fac = (tmp_path / "fac.tsv").read_text().splitlines()
        assert fac[0] == "item_id\tfaculty"
        assert all(line.endswith("\t1") for line in fac[1:])
        hum = (tmp_path / "hum.tsv").read_text().splitlines()
        assert hum[0].startswith("item_id\tkc_")

    @pytest.mark.parametrize("flag, partner", [
        ("--human-map", "--emit-human"), ("--emit-human", "--human-map")])
    def test_unpaired_human_flag_writes_nothing(self, trained, tmp_path,
                                                capsys, flag, partner):
        # the map is never read: the pairing is checked first
        assert run(["qmatrix", "--reps", trained / "reps.tsv",
                    "--out", tmp_path / "q.tsv",
                    "--emit-faculty", tmp_path / "fac.tsv",
                    flag, tmp_path / "absent.tsv"]) == 4
        assert f"{flag} requires {partner}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rerun_byte_identical(self, tmp_path, visual_dir, trained):
        args = ["train-rep", "--images", visual_dir / "manifest.tsv",
                "--filters", "3", "--kernel", "3", "--stride", "2",
                "--rep-size", "8", "--epochs", "60", "--lr", "0.5",
                "--target-loss", "0.001", "--seed", "4"]
        assert run(args + ["--out-checkpoint", tmp_path / "m2.ckpt",
                           "--out-reps", tmp_path / "r2.tsv"]) == 0
        assert (tmp_path / "m2.ckpt").read_bytes() == \
               (trained / "model.ckpt").read_bytes()
        assert (tmp_path / "r2.tsv").read_bytes() == \
               (trained / "reps.tsv").read_bytes()


class TestTrainRepManifest:
    @pytest.mark.parametrize("epochs, target, reason, trained_epochs", [
        ("3", "0", "max_epochs", 3),
        ("3", "100", "target_loss", 1)])
    def test_manifest_says_why_training_stopped(
            self, visual_dir, tmp_path, capsys, epochs, target, reason,
            trained_epochs):
        assert run(["train-rep", "--images", visual_dir / "manifest.tsv",
                    "--out-checkpoint", tmp_path / "m.ckpt",
                    "--out-reps", tmp_path / "r.tsv",
                    "--filters", "3", "--kernel", "3", "--stride", "2",
                    "--rep-size", "8", "--epochs", epochs,
                    "--target-loss", target, "--seed", "4"]) == 0
        printed = dict(token.split("=") for token in
                       capsys.readouterr().out.split()[2:])
        diagnostics = manifest_of(tmp_path / "m.ckpt")["diagnostics"]
        assert diagnostics["stop_reason"] == reason
        assert diagnostics["epochs"] == trained_epochs \
            == int(printed["epochs"])
        assert f"{diagnostics['final_loss']:.6f}" == printed["final_loss"]
        assert f"{diagnostics['train_accuracy']:.4f}" == \
            printed["train_accuracy"]
        assert sorted(diagnostics) == ["epochs", "final_loss", "stop_reason",
                                       "train_accuracy"]


class TestQmatrixCollapse:
    @staticmethod
    def _qmatrix(tmp_path, rows):
        reps = tmp_path / "reps.tsv"
        reps.write_text("item_id\trep_00\trep_01\n"
                        + "".join(f"{row}\n" for row in rows))
        return run(["qmatrix", "--reps", reps, "--tau", "0.9",
                    "--out", tmp_path / "q.tsv"])

    @pytest.mark.parametrize("rows, kcs", [
        # no unit above tau: every item gets the residual KC alone
        (["a\t0.5\t0.1", "b\t0.2\t0.3", "c\t0.8\t0.6"], ["residual"]),
        # both units above tau on every item: one merged KC
        (["a\t0.95\t0.99", "b\t0.91\t0.97"], ["rep_00+rep_01"])])
    def test_collapse_reported_on_stderr_and_in_the_manifest(
            self, tmp_path, capsys, rows, kcs):
        assert self._qmatrix(tmp_path, rows) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"cogrl: qmatrix: every item has the same KC set ({kcs[0]}) at "
            f"tau 0.9, so the Q-matrix is a faculty model"]
        assert (tmp_path / "q.tsv").read_text().splitlines()[0] == \
            "item_id\t" + "\t".join(kcs)
        first = manifest_of(tmp_path / "q.tsv")
        assert first["diagnostics"] == {"collapsed": True, "kcs": 1}
        # a rerun writes the same manifest, apart from its time
        assert self._qmatrix(tmp_path, rows) == 0
        assert without_times(manifest_of(tmp_path / "q.tsv")) == \
            without_times(first)

    def test_distinct_kc_sets_are_not_a_collapse(self, tmp_path, capsys):
        assert self._qmatrix(
            tmp_path, ["a\t0.95\t0.1", "b\t0.2\t0.3", "c\t0.99\t0.97"]) == 0
        assert capsys.readouterr() == ("", "")
        assert manifest_of(tmp_path / "q.tsv")["diagnostics"] == \
            {"collapsed": False, "kcs": 3}


class TestFitCvCompare:
    def test_fit_afm(self, log_dir, tmp_path, capsys):
        code = run(["fit-afm", "--log", log_dir / "transactions.tsv",
                    "--qmatrix", log_dir / "qmatrix.tsv",
                    "--out", tmp_path / "params.tsv",
                    "--report", tmp_path / "report.tsv"])
        assert code == 0
        tokens = capsys.readouterr().out.split()
        assert [t.split("=")[0] for t in tokens] == \
            ["fit:", "converged", "iterations", "objective", "residual"]
        assert tokens[1] == "converged=True"
        assert 0.0 <= float(tokens[4].split("=")[1]) < 1e-5
        # the manifest records the printed fit
        fit = manifest_of(tmp_path / "params.tsv")["diagnostics"]
        assert len(fit) == 4 and tokens[1:] == [
            f"converged={fit['converged']}",
            f"iterations={fit['iterations']}",
            f"objective={fit['objective']:.6f}",
            f"residual={fit['residual']:.3g}"]
        lines = (tmp_path / "params.tsv").read_text().splitlines()
        assert lines[0] == "entity\trole\tvalue"
        roles = {line.split("\t")[1] for line in lines[1:]}
        assert roles == {"theta", "beta", "gamma"}

    def test_synth_fit_recovery_pipeline(self, tmp_path):
        from cogrl.afm import pearson, read_params

        assert run(["synth", "afm-log", "--out-dir", tmp_path / "d",
                    "--seed", "13", "--students", "60", "--items", "30",
                    "--kcs", "4"]) == 0
        assert run(["fit-afm", "--log", tmp_path / "d" / "transactions.tsv",
                    "--qmatrix", tmp_path / "d" / "qmatrix.tsv",
                    "--out", tmp_path / "params.tsv"]) == 0
        true = read_params(tmp_path / "d" / "true_params.tsv")
        fit = read_params(tmp_path / "params.tsv")
        kcs = sorted(true.beta)
        assert pearson([fit.beta[k] for k in kcs],
                       [true.beta[k] for k in kcs]) >= 0.9
        assert pearson([fit.gamma[k] for k in kcs],
                       [true.gamma[k] for k in kcs]) >= 0.8

    def test_cv_and_compare_consistent(self, log_dir, tmp_path):
        assert run(["cv", "--log", log_dir / "transactions.tsv",
                    "--qmatrix", log_dir / "qmatrix.tsv", "--folds", "3",
                    "--seed", "9", "--out", tmp_path / "cv.tsv"]) == 0
        assert run(["compare", "--log", log_dir / "transactions.tsv",
                    "--models",
                    f"faculty,identical,oracle={log_dir / 'qmatrix.tsv'}",
                    "--folds", "3", "--seed", "9",
                    "--out", tmp_path / "cmp.tsv"]) == 0
        cv_mean = (tmp_path / "cv.tsv").read_text().splitlines()[-1]
        cmp_lines = (tmp_path / "cmp.tsv").read_text().splitlines()
        oracle_row = [l for l in cmp_lines if l.startswith("oracle\t")][0]
        assert cv_mean.split("\t")[1] == oracle_row.split("\t")[1]

    def test_compare_manifest_lists_the_stripped_model_paths(self, log_dir,
                                                             tmp_path):
        q_path = log_dir / "qmatrix.tsv"
        assert run(["compare", "--log", log_dir / "transactions.tsv",
                    "--models", f"faculty, mine={q_path} ,", "--folds", "2",
                    "--out", tmp_path / "o.tsv"]) == 0
        manifest = json.loads((tmp_path / "o.tsv.manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(
            [str(log_dir / "transactions.tsv"), str(q_path)])

    def test_cv_and_compare_manifests_record_every_fit(self, log_dir,
                                                       tmp_path):
        log = log_dir / "transactions.tsv"
        assert run(["cv", "--log", log, "--qmatrix", log_dir / "qmatrix.tsv",
                    "--folds", "3", "--out", tmp_path / "cv.tsv"]) == 0
        assert run(["compare", "--log", log, "--models", "faculty,identical",
                    "--folds", "3", "--out", tmp_path / "cmp.tsv"]) == 0
        cv, cmp = (manifest_of(tmp_path / f"{name}.tsv")["diagnostics"]
                   for name in ("cv", "cmp"))
        assert sorted(cmp) == ["faculty", "identical"]
        for record in [cv, *cmp.values()]:
            assert sorted(record) == ["folds", "start"]
            assert len(record["folds"]) == 3
            for fit in [record["start"], *record["folds"]]:
                assert sorted(fit) == ["converged", "iterations", "objective",
                                       "residual"]
                assert type(fit["converged"]) is bool
                assert type(fit["iterations"]) is int

    @staticmethod
    def _same_at_one_and_two_jobs(base, tmp_path):
        for jobs in ("1", "2"):
            assert run(base + ["--out", tmp_path / f"j{jobs}.tsv",
                               "--jobs", jobs]) == 0
        assert (tmp_path / "j1.tsv").read_bytes() == \
               (tmp_path / "j2.tsv").read_bytes()
        diagnostics = [json.loads((tmp_path / f"j{jobs}.tsv.manifest.json")
                                  .read_text())["diagnostics"]
                       for jobs in ("1", "2")]
        assert diagnostics[0] == diagnostics[1]

    def test_compare_jobs_byte_identical(self, log_dir, tmp_path):
        self._same_at_one_and_two_jobs(
            ["compare", "--log", log_dir / "transactions.tsv",
             "--models", "faculty,identical", "--folds", "3", "--seed", "9"],
            tmp_path)

    def test_compare_jobs_byte_identical_with_multi_kc_items(self, tmp_path):
        # 8 of the 20 items need two KCs; with these folds three held-out
        # folds give a design whose every row holds one unit, the rest not
        d = tmp_path / "log"
        assert run(["synth", "afm-log", "--out-dir", d, "--seed", "4",
                    "--students", "30", "--items", "20", "--kcs", "4"]) == 0
        rows = (d / "qmatrix.tsv").read_text().splitlines()[1:]
        assert sum(row.count("\t1") == 2 for row in rows) == 8
        self._same_at_one_and_two_jobs(
            ["compare", "--log", d / "transactions.tsv",
             "--models", f"faculty,synth={d / 'qmatrix.tsv'}",
             "--folds", "10", "--seed", "9"], tmp_path)


class TestSimulate:
    def test_simulate_human_features(self, cloze_dir, tmp_path):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "3", "--students", "8",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        code = run(["simulate", "--log", tmp_path / "log" / "transactions.tsv",
                    "--cloze", cloze_dir / "cloze.tsv",
                    "--q-eval", cloze_dir / "oracle_q.tsv",
                    "--features", "human", "--seed", "5",
                    "--out", tmp_path / "study.tsv",
                    "--out-sim-log", tmp_path / "sim_log.tsv"])
        assert code == 0
        lines = (tmp_path / "study.tsv").read_text().splitlines()
        assert lines[0].startswith("kc\torig_intercept")
        assert lines[-1].startswith("correlation_with_original")
        assert (tmp_path / "sim_log.tsv").exists()

    def test_simulate_manifest_records_both_fits(self, cloze_dir, tmp_path):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "3", "--students", "6",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        manifests = []
        for jobs in ("1", "2"):
            out = tmp_path / f"study{jobs}.tsv"
            assert run(["simulate",
                        "--log", tmp_path / "log" / "transactions.tsv",
                        "--cloze", cloze_dir / "cloze.tsv",
                        "--q-eval", cloze_dir / "oracle_q.tsv",
                        "--seed", "5", "--jobs", jobs, "--out", out]) == 0
            manifests.append(manifest_of(out))
        diagnostics = manifests[0]["diagnostics"]
        assert sorted(diagnostics) == ["original", "simulated"]
        for fit in diagnostics.values():
            assert sorted(fit) == ["converged", "iterations", "objective",
                                   "residual"]
            assert fit["converged"] is True and fit["iterations"] >= 1
        # the same manifest at --jobs 2, apart from times and out paths
        for manifest in manifests:
            del manifest["flags"]["out"], manifest["outputs"]
        assert without_times(manifests[0]) == without_times(manifests[1])

    def test_simulate_cogrl_features(self, cloze_dir, tmp_path, capsys):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "4", "--students", "5",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        base = ["simulate", "--log", tmp_path / "log" / "transactions.tsv",
                "--cloze", cloze_dir / "cloze.tsv",
                "--q-eval", cloze_dir / "oracle_q.tsv", "--seed", "2"]
        # a thresholded Q-matrix and an item-feature file are one table
        # layout, so either flag gives the same study from the same table
        for table in ("oracle_q.tsv", "features_full.tsv"):
            results = []
            for flags in (["--features", "cogrl", "--cogrl-q"],
                          ["--features", "file", "--features-file"]):
                capsys.readouterr()
                assert run(base + flags + [
                    cloze_dir / table, "--out", tmp_path / "study.tsv",
                    "--out-sim-log", tmp_path / "sim_log.tsv"]) == 0
                results.append(((tmp_path / "study.tsv").read_bytes(),
                                (tmp_path / "sim_log.tsv").read_bytes(),
                                capsys.readouterr().out))
            assert results[0] == results[1]
            assert results[0][2].startswith("simulate: ")

    def test_header_only_cogrl_q_exit_code(self, cloze_dir, tmp_path, capsys):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "3", "--students", "2",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        header = (cloze_dir / "oracle_q.tsv").read_text().splitlines()[0]
        empty = tmp_path / "q_empty.tsv"
        empty.write_text(header + "\n")
        assert run(["simulate", "--log", tmp_path / "log" / "transactions.tsv",
                    "--cloze", cloze_dir / "cloze.tsv",
                    "--q-eval", cloze_dir / "oracle_q.tsv",
                    "--features", "cogrl", "--cogrl-q", empty,
                    "--out", tmp_path / "study.tsv"]) == 3
        assert "q_empty.tsv: the table has no rows" in capsys.readouterr().err

    def test_one_kc_q_eval_rejected_before_any_learner_runs(
            self, cloze_dir, tmp_path, capsys, monkeypatch):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "3", "--students", "4",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        items = [ln.split("\t")[0] for ln in
                 (cloze_dir / "oracle_q.tsv").read_text().splitlines()[1:]]
        one_kc = tmp_path / "q_one.tsv"
        one_kc.write_text("item_id\tall\n"
                          + "".join(f"{item}\t1\n" for item in items))

        def no_learners(*_):
            raise AssertionError("learners ran")

        monkeypatch.setattr("cogrl.apprentice.run_tasks", no_learners)
        assert run(["simulate", "--log", tmp_path / "log" / "transactions.tsv",
                    "--cloze", cloze_dir / "cloze.tsv", "--q-eval", one_kc,
                    "--features", "human",
                    "--out", tmp_path / "study.tsv"]) == 3
        assert "q_eval needs at least 2 KCs" in capsys.readouterr().err
        assert not (tmp_path / "study.tsv").exists()

    @pytest.mark.parametrize("features", [
        ["--features", "human"],
        ["--features", "file", "--features-file", "features_full.tsv"]])
    def test_header_only_log_exit_code(self, cloze_dir, tmp_path, capsys,
                                       features):
        log = tmp_path / "log.tsv"
        log.write_text("student_id\titem_id\toutcome\torder\n")
        features = [cloze_dir / f if f.endswith(".tsv") else f
                    for f in features]
        assert run(["simulate", "--log", log,
                    "--cloze", cloze_dir / "cloze.tsv",
                    "--q-eval", cloze_dir / "oracle_q.tsv", *features,
                    "--out", tmp_path / "study.tsv"]) == 3
        assert "log.tsv: the table has no rows" in capsys.readouterr().err

    def test_cogrl_q_needs_rows_only_for_log_items(self, cloze_dir, tmp_path):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "3", "--students", "3",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        lines = (tmp_path / "log" / "transactions.tsv").read_text().splitlines()
        unvisited = lines[1].split("\t")[1]
        log = tmp_path / "log_cut.tsv"
        log.write_text("\n".join([lines[0]] + [
            ln for ln in lines[1:] if ln.split("\t")[1] != unvisited]) + "\n")
        q_lines = (cloze_dir / "oracle_q.tsv").read_text().splitlines()
        q_cut = tmp_path / "q_cut.tsv"
        q_cut.write_text("\n".join([q_lines[0]] + [
            ln for ln in q_lines[1:] if ln.split("\t")[0] != unvisited]) + "\n")
        base = ["simulate", "--log", log, "--cloze", cloze_dir / "cloze.tsv",
                "--q-eval", cloze_dir / "oracle_q.tsv", "--features", "cogrl",
                "--seed", "6"]
        # the rows of items the log never visits are never read
        assert run(base + ["--cogrl-q", q_cut,
                           "--out", tmp_path / "cut.tsv"]) == 0
        assert run(base + ["--cogrl-q", cloze_dir / "oracle_q.tsv",
                           "--out", tmp_path / "full.tsv"]) == 0
        assert (tmp_path / "cut.tsv").read_bytes() == \
               (tmp_path / "full.tsv").read_bytes()

    def test_simulate_file_features_rerun_identical(self, cloze_dir, tmp_path):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "3", "--students", "6",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        base = ["simulate", "--log", tmp_path / "log" / "transactions.tsv",
                "--cloze", cloze_dir / "cloze.tsv",
                "--q-eval", cloze_dir / "oracle_q.tsv",
                "--features", "file",
                "--features-file", cloze_dir / "features_full.tsv",
                "--seed", "7"]
        assert run(base + ["--out", tmp_path / "a.tsv"]) == 0
        assert run(base + ["--out", tmp_path / "b.tsv", "--jobs", "2"]) == 0
        assert (tmp_path / "a.tsv").read_bytes() == \
               (tmp_path / "b.tsv").read_bytes()

    def test_features_file_missing_log_item_exit_code(self, cloze_dir,
                                                      tmp_path, capsys):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "3", "--students", "2",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        log = tmp_path / "log" / "transactions.tsv"
        first_item = log.read_text().splitlines()[1].split("\t")[1]
        lines = (cloze_dir / "features_full.tsv").read_text().splitlines()
        cut = tmp_path / "features_cut.tsv"
        cut.write_text("\n".join(
            [lines[0]] + [ln for ln in lines[1:]
                          if ln.split("\t")[0] != first_item]) + "\n")
        assert run(["simulate", "--log", log,
                    "--cloze", cloze_dir / "cloze.tsv",
                    "--q-eval", cloze_dir / "oracle_q.tsv",
                    "--features", "file", "--features-file", cut,
                    "--out", tmp_path / "study.tsv"]) == 3
        assert repr(first_item) in capsys.readouterr().err


class TestGradcheckAndErrors:
    def test_gradcheck_passes(self, capsys):
        assert run(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cnn" in out and "lstm" in out

    def test_gradcheck_impossible_tolerance_fails(self):
        assert run(["gradcheck", "--seed", "1", "--tolerance", "1e-12"]) == 5

    @pytest.mark.parametrize("manifest", ["no/such/dir/m.json", "."])
    def test_unwritable_manifest_is_a_file_error(self, tmp_path, capsys,
                                                 manifest):
        # a path under a missing directory, and a directory
        assert run(["gradcheck", "--arch", "cnn", "--seed", "1",
                    "--manifest", tmp_path / manifest]) == 3
        captured = capsys.readouterr()
        assert "gradcheck cnn" in captured.out
        assert captured.err.startswith("cogrl: file error: ")

    def test_missing_file_exit_code(self, tmp_path):
        assert run(["fit-afm", "--log", tmp_path / "nope.tsv",
                    "--qmatrix", tmp_path / "also_nope.tsv",
                    "--out", tmp_path / "p.tsv"]) == 3

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not\ta\theader\n")
        assert run(["fit-afm", "--log", bad, "--qmatrix", bad,
                    "--out", tmp_path / "p.tsv"]) == 3

    def test_order_beyond_int64_exit_code(self, tmp_path, capsys):
        log, q = tmp_path / "log.tsv", tmp_path / "q.tsv"
        log.write_text("student_id\titem_id\toutcome\torder\n"
                       "s1\ta\t1\t100000000000000000000000000000\n")
        q.write_text("item_id\tk1\na\t1\n")
        assert run(["fit-afm", "--log", log, "--qmatrix", q,
                    "--out", tmp_path / "p.tsv"]) == 3
        assert "log.tsv: line 2: order must be" in capsys.readouterr().err

    def test_undecodable_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\xff\xfe\x00bad")
        assert run(["fit-afm", "--log", bad, "--qmatrix", bad,
                    "--out", tmp_path / "p.tsv"]) == 3
        assert run(["qmatrix", "--reps", bad,
                    "--out", tmp_path / "q.tsv"]) == 3

    def test_header_only_reps_exit_code(self, tmp_path, capsys):
        reps = tmp_path / "reps.tsv"
        reps.write_text("item_id\trep_00\n")
        assert run(["qmatrix", "--reps", reps,
                    "--out", tmp_path / "q.tsv"]) == 3
        assert "reps.tsv: the table has no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-3", "1.5"])
    def test_reps_cell_outside_unit_interval_exit_code(self, tmp_path, capsys,
                                                       cell):
        reps = tmp_path / "reps.tsv"
        reps.write_text(f"item_id\trep_00\trep_01\na\t0.5\t1\nb\t0\t{cell}\n")
        assert run(["qmatrix", "--reps", reps,
                    "--out", tmp_path / "q.tsv"]) == 3
        assert "reps.tsv: line 3: bad value, need a number in [0, 1]" in \
            capsys.readouterr().err
        assert not (tmp_path / "q.tsv").exists()

    def test_image_byte_above_maxval_exit_code(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5 2 1 2\n" + bytes([200, 0]))
        (tmp_path / "b.pgm").write_bytes(b"P5 2 1 2\n" + bytes([0, 2]))
        (tmp_path / "manifest.tsv").write_text(
            "item_id\timage\tanswer\na\ta.pgm\tx\nb\tb.pgm\ty\n")
        assert run(["train-rep", "--images", tmp_path / "manifest.tsv",
                    "--out-checkpoint", tmp_path / "m.ckpt",
                    "--out-reps", tmp_path / "r.tsv", "--kernel", "1",
                    "--stride", "1"]) == 3

    @pytest.mark.parametrize("source", ["images", "cloze"])
    def test_one_answer_label_is_an_input_error(self, tmp_path, capsys,
                                                source):
        if source == "images":
            for name in ("a", "b"):
                (tmp_path / f"{name}.pgm").write_bytes(
                    b"P5 2 1 255\n" + bytes([200, 0]))
            path = tmp_path / "manifest.tsv"
            path.write_text("item_id\timage\tanswer\n"
                            "a\ta.pgm\tx\nb\tb.pgm\tx\n")
        else:
            path = tmp_path / "cloze.tsv"
            path.write_text("item_id\ttext\tanswer\n"
                            "a\tan ___ apple\tx\nb\ta ___ pear\tx\n")
        assert run(["train-rep", f"--{source}", path,
                    "--out-checkpoint", tmp_path / "m.ckpt",
                    "--out-reps", tmp_path / "r.tsv", "--kernel", "1",
                    "--stride", "1"]) == 3
        assert f"{path.name}: training needs at least 2 answer classes" in \
            capsys.readouterr().err
        assert not any(tmp_path.glob("m.ckpt*")) and not (
            tmp_path / "r.tsv").exists()

    def test_questions_of_only_blanks_are_an_input_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "cloze.tsv"
        path.write_text("item_id\ttext\tanswer\na\t___\tx\nb\t____\ty\n")
        assert run(["train-rep", "--cloze", path,
                    "--out-checkpoint", tmp_path / "m.ckpt",
                    "--out-reps", tmp_path / "r.tsv"]) == 3
        assert "cloze.tsv: the questions have no text besides their blanks" \
            in capsys.readouterr().err
        assert not any(tmp_path.glob("m.ckpt*")) and not (
            tmp_path / "r.tsv").exists()

    def test_bad_model_entry_exit_code(self, tmp_path, visual_dir):
        assert run(["synth", "afm-log", "--out-dir", tmp_path, "--seed", "0",
                    "--students", "4", "--items", "4", "--kcs", "2"]) == 0
        assert run(["compare", "--log", tmp_path / "transactions.tsv",
                    "--models", "mystery", "--folds", "2",
                    "--out", tmp_path / "c.tsv"]) == 4

    @pytest.mark.parametrize("model", ["faculty", "identical"])
    def test_header_only_log_compare_exit_code(self, tmp_path, capsys,
                                               model):
        log = tmp_path / "log.tsv"
        log.write_text("student_id\titem_id\toutcome\torder\n")
        assert run(["compare", "--log", log, "--models", model,
                    "--folds", "2", "--out", tmp_path / "c.tsv"]) == 3
        assert "log.tsv: the table has no rows" in capsys.readouterr().err
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("command", [
        ["fit-afm", "--qmatrix", "oracle_q.tsv"],
        ["cv", "--qmatrix", "oracle_q.tsv"],
        ["compare", "--models", "faculty"],
        ["compare", "--models", "mine=oracle_q.tsv"],
        ["simulate", "--cloze", "cloze.tsv", "--q-eval", "oracle_q.tsv",
         "--features", "human"]],
        ids=["fit-afm", "cv", "compare-faculty", "compare-path", "simulate"])
    def test_header_only_log_is_one_error(self, cloze_dir, tmp_path, capsys,
                                          command):
        log = tmp_path / "log.tsv"
        log.write_text("student_id\titem_id\toutcome\torder\n")
        command = [cloze_dir / a if a.endswith(".tsv") else a
                   for a in command]
        assert run([*command, "--log", log, "--out", tmp_path / "o.tsv"]) == 3
        assert capsys.readouterr().err == \
            f"cogrl: input error: {log}: the table has no rows\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.tsv"]

    @pytest.mark.parametrize("command, model", [
        (["fit-afm", "--qmatrix", "{short}"], None),
        (["cv", "--qmatrix", "{short}"], None),
        (["compare", "--models", "faculty,a={oracle},b={short}"], "b"),
        (["simulate", "--cloze", "{cloze}", "--q-eval", "{short}",
          "--features", "human"], None)],
        ids=["fit-afm", "cv", "compare", "simulate"])
    def test_log_item_missing_from_qmatrix_names_the_file(
            self, cloze_dir, tmp_path, capsys, monkeypatch, command, model):
        log = tmp_path / "log" / "transactions.tsv"
        assert run(["synth", "afm-log", "--out-dir", log.parent,
                    "--seed", "3", "--students", "4",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        item = max(line.split("\t")[1]
                   for line in log.read_text().splitlines()[1:])
        short = tmp_path / "short.tsv"
        short.write_text("".join(
            line + "\n"
            for line in (cloze_dir / "oracle_q.tsv").read_text().splitlines()
            if line.split("\t")[0] != item))

        def no_fit(*_):
            raise AssertionError("a model was fit")

        monkeypatch.setattr("cogrl.cli.compare_models", no_fit)
        command = [a.format(short=short, oracle=cloze_dir / "oracle_q.tsv",
                            cloze=cloze_dir / "cloze.tsv") for a in command]
        out = tmp_path / "o.tsv"
        assert run([*command, "--log", log, "--out", out]) == 3
        where = f"model {model!r}: {short}" if model else f"{short}"
        assert capsys.readouterr().err == (
            f"cogrl: input error: {where}: log item {item!r} missing from "
            f"Q-matrix\n")
        assert not any(tmp_path.glob("o.tsv*"))

    @pytest.mark.parametrize("models,entry", [
        ("=qmatrix.tsv", "=qmatrix.tsv"), ("faculty,faculty", "faculty"),
        ("faculty,faculty=qmatrix.tsv", "faculty=qmatrix.tsv"),
        ("q=qmatrix.tsv,identical,q=qmatrix.tsv", "q=qmatrix.tsv")])
    def test_empty_or_repeated_model_name_exit_code(
            self, log_dir, tmp_path, monkeypatch, capsys, models, entry):
        monkeypatch.chdir(log_dir)
        out = tmp_path / "c.tsv"
        assert run(["compare", "--log", "transactions.tsv", "--models", models,
                    "--folds", "2", "--out", out]) == 4
        assert f"model entry {entry!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COGRL_SEED", "11")
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "env",
                    "--students", "5", "--items", "4", "--kcs", "2"]) == 0
        manifest = json.loads(
            (tmp_path / "env" / "transactions.tsv.manifest.json").read_text())
        assert manifest["seed"] == 11
        monkeypatch.setenv("COGRL_SEED", "eleven")
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "env2",
                    "--students", "5", "--items", "4", "--kcs", "2"]) == 4

    def test_console_module_entrypoint(self, tmp_path):
        # The child must import the same cogrl as this process (a checkout
        # or an install alike), and run from a directory that holds none.
        package_root = pathlib.Path(cogrl.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "cogrl.cli", "gradcheck", "--arch", "cnn",
             "--seed", "2"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(package_root)})
        assert result.returncode == 0, result.stderr
        assert "gradcheck cnn: max_relative_error=" in result.stdout


class TestFitSettings:
    def test_only_the_study_penalizes_beta_and_gamma_by_default(self):
        parser = build_parser()
        common = ["--log", "l", "--out", "o"]
        fits = [["fit-afm", "--qmatrix", "q"], ["cv", "--qmatrix", "q"],
                ["compare", "--models", "faculty"]]
        for argv in fits:
            args = parser.parse_args(argv + common)
            assert (args.l2_bg, args.tol) == (0.0, 1e-14)
        args = parser.parse_args(["simulate", "--cloze", "c", "--q-eval", "q"]
                                 + common)
        assert (args.l2_bg, args.tol) == (STUDY_L2_BETA_GAMMA, 1e-14)
        assert STUDY_L2_BETA_GAMMA == 0.01

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "nan"), ("--l2-theta", "nan"), ("--l2-theta", "inf"),
        ("--l2-bg", "nan")])
    def test_non_finite_fit_setting_is_a_configuration_error(
            self, log_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "params.tsv"
        code = run(["fit-afm", "--log", log_dir / "transactions.tsv",
                    "--qmatrix", log_dir / "qmatrix.tsv", "--out", out,
                    flag, value])
        assert code == 4
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_configuration_error(self, log_dir, tmp_path,
                                                     jobs):
        assert run(["compare", "--log", log_dir / "transactions.tsv",
                    "--models", "faculty", "--folds", "3",
                    "--out", tmp_path / "cmp.tsv", "--jobs", jobs]) == 4


class TestSettingBounds:
    @pytest.mark.parametrize("variant", ["visual", "cloze", "afm-log"])
    def test_negative_seed_flag_is_a_configuration_error(self, tmp_path,
                                                         capsys, variant):
        assert run(["synth", variant, "--out-dir", tmp_path / "out",
                    "--seed", "-1"]) == 4
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_env_seed_is_a_configuration_error(self, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("COGRL_SEED", "-5")
        assert run(["gradcheck", "--arch", "cnn"]) == 4
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
    def test_tolerance_not_finite_and_positive_is_a_configuration_error(
            self, monkeypatch, capsys, tolerance):
        def no_gradients(*args):
            raise AssertionError("a gradient was computed")

        monkeypatch.setattr("cogrl.cli.grad_check", no_gradients)
        assert run(["gradcheck", "--seed", "1",
                    "--tolerance", tolerance]) == 4
        assert "tolerance must be finite and positive" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0"])
    def test_non_finite_epsilon_is_a_configuration_error(self, epsilon):
        assert run(["gradcheck", "--arch", "cnn", "--seed", "1",
                    "--epsilon", epsilon]) == 4

    @pytest.mark.parametrize("flag,value", [
        ("--target-loss", "nan"), ("--target-loss", "inf"),
        ("--lr", "nan"), ("--lr", "inf")])
    def test_non_finite_training_setting_is_a_configuration_error(
            self, visual_dir, tmp_path, capsys, flag, value):
        ckpt = tmp_path / "m.ckpt"
        assert run(["train-rep", "--images", visual_dir / "manifest.tsv",
                    "--out-checkpoint", ckpt, "--out-reps", tmp_path / "r.tsv",
                    "--kernel", "3", "--stride", "2", "--epochs", "2",
                    flag, value]) == 4
        assert "configuration error" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_transactions_per_student_below_one_is_an_input_error(
            self, tmp_path, count):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "out",
                    "--students", "4", "--items", "6", "--kcs", "2",
                    "--transactions-per-student", count]) == 3
        assert not (tmp_path / "out" / "transactions.tsv").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_non_finite_noise_is_an_input_error(self, tmp_path, noise):
        assert run(["synth", "visual", "--out-dir", tmp_path / "out",
                    "--templates", "2", "--per-template", "2",
                    "--noise", noise]) == 3
        assert not (tmp_path / "out" / "manifest.tsv").exists()
