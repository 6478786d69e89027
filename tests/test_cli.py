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

    def test_compare_jobs_byte_identical(self, log_dir, tmp_path):
        base = ["compare", "--log", log_dir / "transactions.tsv",
                "--models", "faculty,identical", "--folds", "3",
                "--seed", "9"]
        assert run(base + ["--out", tmp_path / "j1.tsv", "--jobs", "1"]) == 0
        assert run(base + ["--out", tmp_path / "j2.tsv", "--jobs", "2"]) == 0
        assert (tmp_path / "j1.tsv").read_bytes() == \
               (tmp_path / "j2.tsv").read_bytes()


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

    def test_simulate_cogrl_features(self, cloze_dir, tmp_path):
        assert run(["synth", "afm-log", "--out-dir", tmp_path / "log",
                    "--seed", "4", "--students", "5",
                    "--qmatrix", cloze_dir / "oracle_q.tsv"]) == 0
        code = run(["simulate", "--log", tmp_path / "log" / "transactions.tsv",
                    "--cloze", cloze_dir / "cloze.tsv",
                    "--q-eval", cloze_dir / "oracle_q.tsv",
                    "--features", "cogrl",
                    "--cogrl-q", cloze_dir / "oracle_q.tsv",
                    "--seed", "2", "--out", tmp_path / "study.tsv"])
        assert code == 0
        assert (tmp_path / "study.tsv").exists()

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
        assert "reps.tsv: the table has no items" in capsys.readouterr().err

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
