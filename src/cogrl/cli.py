"""Command-line pipeline with seeded determinism.

One executable, eight subcommands covering the full workflow: synthesize
datasets, train a representation model, threshold representations into
Q-matrices, fit the Additive Factors Model, cross-validate, compare
cognitive models, run the apprentice simulation study, and verify gradients.

Every run is controlled by --seed (falling back to the COGRL_SEED
environment variable, then 0) and rerunning a subcommand with identical
flags produces byte-identical primary output files regardless of --jobs.
Each run also emits a single-line JSON manifest (flags, input digests,
output paths, duration, and the run's diagnostics: every AFM fit of
fit-afm, cv, compare and simulate, how train-rep trained, whether the
qmatrix result collapsed); the manifest itself carries timing and is not
a primary output.

Exit codes: 0 success; 2 usage error; 3 input error (missing or malformed
files/data); 4 configuration error (architecture or precondition); 5
numeric, fit, or gradient-verification failure; 1 unexpected error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .afm import (
    CVConfig,
    FitConfig,
    afm_fit,
    compare_models,
    item_stratified_cv,
    param_report,
    write_params,
)
from .apprentice import (
    ARTICLE_FEATURE_NAMES,
    STUDY_L2_BETA_GAMMA,
    SimConfig,
    human_features,
    simulate_and_estimate,
)
from .cogmodel import (
    faculty_transfer,
    identical_transfer,
    load_human_model,
    read_qmatrix,
    write_qmatrix,
)
from .errors import (
    CogrlError,
    ConfigurationError,
    DimensionError,
    FitError,
    InputError,
    NumericError,
    write_lines,
)
from .ingest import (
    FULL_FEATURE_NAMES,
    AfmLogSynthSpec,
    ClozeSynthSpec,
    VisualSynthSpec,
    load_cloze,
    load_images,
    load_transactions,
    read_features,
    synth_afm_log,
    synth_cloze,
    synth_visual,
    write_cloze,
    write_features,
    write_image_dataset,
    write_transactions,
)
from .neuralcore import SGDConfig, grad_check
from .problems import split_blank
from .representation import (
    CharVocab,
    ClozeArchSpec,
    ClozeLSTM,
    ImageArchSpec,
    ImageCNN,
    check_training_set,
    extract_representations,
    read_representations,
    save_network,
    threshold_qmatrix,
    train_model,
    training_accuracy,
    write_representations,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CONFIG = 4
EXIT_NUMERIC = 5


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("COGRL_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise ConfigurationError(
                f"COGRL_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ConfigurationError("seed must be non-negative")
    return seed


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# subcommands: each handler returns (input paths, output paths), and all
# but synth and gradcheck the diagnostics their manifest records


def cmd_synth(args, seed):
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    if args.variant == "visual":
        spec = VisualSynthSpec(
            templates=args.templates, images_per_template=args.per_template,
            image_shape=(args.channels, args.height, args.width),
            jitter=args.jitter, noise=args.noise, seed=seed)
        bundle = synth_visual(spec)
        manifest = write_image_dataset(out_dir, bundle)
        q_path = os.path.join(out_dir, "oracle_q.tsv")
        write_qmatrix(q_path, bundle.extras["oracle_q"])
        outputs = [manifest, q_path]
    elif args.variant == "cloze":
        spec = ClozeSynthSpec(questions=args.questions,
                              include_hidden_rule=not args.no_hidden_rule,
                              seed=seed)
        bundle = synth_cloze(spec)
        cloze_path = os.path.join(out_dir, "cloze.tsv")
        write_cloze(cloze_path, bundle)
        q_path = os.path.join(out_dir, "oracle_q.tsv")
        write_qmatrix(q_path, bundle.extras["oracle_q"])
        human_path = os.path.join(out_dir, "features_human.tsv")
        write_features(human_path, bundle.extras["features_full"],
                       ARTICLE_FEATURE_NAMES)
        full_path = os.path.join(out_dir, "features_full.tsv")
        write_features(full_path, bundle.extras["features_full"],
                       FULL_FEATURE_NAMES)
        outputs = [cloze_path, q_path, human_path, full_path]
    else:  # afm-log
        q = read_qmatrix(args.qmatrix) if args.qmatrix else None
        spec = AfmLogSynthSpec(
            students=args.students, items=args.items, kcs=args.kcs,
            transactions_per_student=args.transactions_per_student,
            seed=seed, q=q)
        log, q_out, true_params = synth_afm_log(spec)
        log_path = os.path.join(out_dir, "transactions.tsv")
        write_transactions(log_path, log)
        q_path = os.path.join(out_dir, "qmatrix.tsv")
        write_qmatrix(q_path, q_out)
        params_path = os.path.join(out_dir, "true_params.tsv")
        write_params(params_path, true_params)
        outputs = [log_path, q_path, params_path]
    inputs = [args.qmatrix] if getattr(args, "qmatrix", None) else []
    return inputs, outputs


def cmd_train_rep(args, seed):
    sgd = SGDConfig(learning_rate=args.lr, batch_size=args.batch_size,
                    max_epochs=args.epochs, seed=seed,
                    target_loss=args.target_loss)
    source = args.images or args.cloze
    bundle = (load_images if args.images else load_cloze)(source)
    check_training_set(bundle.problems, source)
    if args.images:
        spec = ImageArchSpec(
            in_shape=bundle.problems[0].content.shape,
            n_classes=len(bundle.answer_labels), filters=args.filters,
            kernel=args.kernel, stride=args.stride, rep_size=args.rep_size)
        net = ImageCNN(spec, seed=seed)
    else:
        vocab = CharVocab.from_problems(bundle.problems)
        spec = ClozeArchSpec(
            n_classes=len(bundle.answer_labels),
            embedding_dim=args.embedding_dim, lstm_hidden=args.lstm_hidden,
            combine_size=2 * args.lstm_hidden, rep_size=args.rep_size)
        net = ClozeLSTM(spec, vocab, seed=seed)
    history = train_model(net, bundle.problems, sgd)
    reps, logits = extract_representations(net, bundle.problems)
    accuracy = training_accuracy(logits, bundle.problems)
    save_network(args.out_checkpoint, net)
    write_representations(args.out_reps, reps)
    print(f"trained {net.__class__.variant}: parameters={net.parameter_count()} "
          f"epochs={len(history)} final_loss={history[-1]:.6f} "
          f"train_accuracy={accuracy:.4f}")
    return [source], [args.out_checkpoint, args.out_reps], {
        "epochs": len(history), "final_loss": history[-1],
        "stop_reason": history.stop_reason, "train_accuracy": accuracy}


def cmd_qmatrix(args, seed):
    if args.human_map and not args.emit_human:
        raise ConfigurationError("--human-map requires --emit-human")
    if args.emit_human and not args.human_map:
        raise ConfigurationError("--emit-human requires --human-map")
    reps = read_representations(args.reps)
    q, report = threshold_qmatrix(reps, args.tau)
    collapsed = bool(np.all(q.cells == q.cells[:1]))
    if collapsed:
        print(f"cogrl: qmatrix: every item has the same KC set "
              f"({', '.join(q.kc_names)}) at tau {args.tau:g}, so the "
              f"Q-matrix is a faculty model", file=sys.stderr)
    write_qmatrix(args.out, q)
    report_path = args.report or args.out + ".report.txt"
    write_lines(report_path, report.lines())
    inputs = [args.reps]
    outputs = [args.out, report_path]
    if args.emit_faculty:
        write_qmatrix(args.emit_faculty, faculty_transfer(reps.item_ids))
        outputs.append(args.emit_faculty)
    if args.emit_identical:
        write_qmatrix(args.emit_identical, identical_transfer(reps.item_ids))
        outputs.append(args.emit_identical)
    if args.human_map:
        write_qmatrix(args.emit_human,
                      load_human_model(args.human_map, reps.item_ids))
        inputs.append(args.human_map)
        outputs.append(args.emit_human)
    return inputs, outputs, {"collapsed": collapsed, "kcs": q.n_kcs}


def _fit_config(args) -> FitConfig:
    return FitConfig(l2_theta=args.l2_theta, l2_beta_gamma=args.l2_bg,
                     tol=args.tol, max_iter=args.max_iter)


def _log_qmatrix(path, log, model=None):
    """The Q-matrix at ``path``, once it has a row for every item of
    ``log``; a missing one is an InputError naming the file, and the
    model when one is given."""
    q = read_qmatrix(path)
    known = set(q.item_ids)
    for item in log.columns.items:
        if item not in known:
            where = f"model {model!r}: {path}" if model else path
            raise InputError(
                f"{where}: log item {item!r} missing from Q-matrix")
    return q


def cmd_fit_afm(args, seed):
    log = load_transactions(args.log)
    q = _log_qmatrix(args.qmatrix, log)
    params, diag = afm_fit(log, q, _fit_config(args))
    write_params(args.out, params)
    outputs = [args.out]
    if args.report:
        write_lines(args.report, param_report(params, q).to_tsv_lines())
        outputs.append(args.report)
    print(f"fit: converged={diag.converged} iterations={diag.iterations} "
          f"objective={diag.objective:.6f} residual={diag.residual:.3g}")
    return [args.log, args.qmatrix], outputs, asdict(diag)


def cmd_cv(args, seed):
    log = load_transactions(args.log)
    q = _log_qmatrix(args.qmatrix, log)
    result = item_stratified_cv(log, q, _fit_config(args),
                                CVConfig(folds=args.folds, seed=seed),
                                jobs=args.jobs)
    write_lines(args.out, ["fold\trmse"] + [
        f"{i}\t{rmse:.6f}" for i, rmse in enumerate(result.fold_rmses)]
        + [f"mean\t{result.mean_rmse:.6f}"])
    print(f"cv: mean_rmse={result.mean_rmse:.6f} folds={args.folds}")
    return [args.log, args.qmatrix], [args.out], _cv_diagnostics(result)


def _cv_diagnostics(result) -> dict:
    """The manifest record of a cross-validation: its full-log start fit
    and every fold's fit."""
    return {"start": asdict(result.start_fit),
            "folds": [asdict(d) for d in result.fold_fits]}


def _parse_models(spec: str, log):
    """(name, QMatrix) per entry of a --models list, each covering the
    log's items, and the paths read."""
    baselines = {"faculty": faculty_transfer, "identical": identical_transfer}
    models, paths = [], []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, eq, path = entry.partition("=")
        if not name or not (eq or name in baselines):
            raise ConfigurationError(
                f"model entry {entry!r} is not faculty, identical or "
                f"NAME=QMATRIX_PATH")
        if name in dict(models):
            raise ConfigurationError(
                f"model entry {entry!r} repeats the model name {name!r}")
        if eq:
            models.append((name, _log_qmatrix(path, log, name)))
            paths.append(path)
        else:
            models.append((name, baselines[name](log.columns.items)))
    if not models:
        raise ConfigurationError("no models given")
    return models, paths


def cmd_compare(args, seed):
    log = load_transactions(args.log)
    models, paths = _parse_models(args.models, log)
    table = compare_models(log, models, _fit_config(args),
                           CVConfig(folds=args.folds, seed=seed),
                           jobs=args.jobs)
    write_lines(args.out, table.to_tsv_lines())
    print(table.to_text())
    return [args.log] + paths, [args.out], {
        name: _cv_diagnostics(result)
        for name, result in zip(table.names, table.results)}


def cmd_simulate(args, seed):
    # a thresholded Q-matrix is an item-feature table: item_id, then 0/1
    files = {"cogrl": ("--cogrl-q", args.cogrl_q),
             "file": ("--features-file", args.features_file)}
    for mode, (flag, path) in files.items():
        if path and args.features != mode:
            raise ConfigurationError(f"{flag} requires --features {mode}")
        if not path and args.features == mode:
            raise ConfigurationError(f"--features {mode} requires {flag}")
    log = load_transactions(args.log)
    bundle = load_cloze(args.cloze)
    q_eval = _log_qmatrix(args.q_eval, log)
    inputs = [args.log, args.cloze, args.q_eval]
    if args.features == "human":
        features = human_features(bundle.problems)
    else:
        path = files[args.features][1]
        features = read_features(path)
        inputs.append(path)
    study = simulate_and_estimate(
        log, bundle.problems, features, q_eval, fit=_fit_config(args),
        sim=SimConfig(seed=seed, refit_every=args.refit_every),
        jobs=args.jobs)
    write_lines(args.out, study.to_tsv_lines())
    outputs = [args.out]
    if args.out_sim_log:
        write_transactions(args.out_sim_log, study.simulated_log)
        outputs.append(args.out_sim_log)
    print(f"simulate: intercept_correlation="
          f"{study.report.intercept_correlation:.4f} "
          f"slope_correlation={study.report.slope_correlation:.4f}")
    return inputs, outputs, {
        "original": asdict(study.original_fit),
        "simulated": asdict(study.simulated_fit)}


def _gradcheck_cnn(seed, epsilon):
    rng = np.random.default_rng(seed)
    spec = ImageArchSpec(in_shape=(2, 10, 10), n_classes=3, filters=3,
                         kernel=3, stride=2, rep_size=8)
    net = ImageCNN(spec, seed=seed)
    image = rng.uniform(0.0, 1.0, size=spec.in_shape)
    return grad_check(net, (image, 1), epsilon)


def _gradcheck_lstm(seed, epsilon):
    rng = np.random.default_rng(seed)
    vocab = CharVocab("abcdefgh ")
    spec = ClozeArchSpec(n_classes=3, embedding_dim=4, lstm_hidden=6,
                         combine_size=12, rep_size=6)
    net = ClozeLSTM(spec, vocab, seed=seed)
    chars = "abcdefgh "
    prefix = "".join(chars[i] for i in rng.integers(0, len(chars), size=9))
    suffix = "".join(chars[i] for i in rng.integers(0, len(chars), size=9))
    content = split_blank(prefix + "___" + suffix)
    return grad_check(net, (content, 2), epsilon)


def cmd_gradcheck(args, seed):
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigurationError("tolerance must be finite and positive")
    errors = {}
    if args.arch in ("cnn", "both"):
        errors["cnn"] = _gradcheck_cnn(seed, args.epsilon)
    if args.arch in ("lstm", "both"):
        errors["lstm"] = _gradcheck_lstm(seed, args.epsilon)
    worst = max(errors.values())
    for arch, err in errors.items():
        print(f"gradcheck {arch}: max_relative_error={err:.3e}")
    if not worst < args.tolerance:  # a NaN error fails too
        raise NumericError(
            f"gradient check failed: {worst:.3e} >= {args.tolerance:g}")
    return [], []


# ---------------------------------------------------------------------------
# parser


def _fit_options(l2_bg: float) -> argparse.ArgumentParser:
    """The AFM fit flags, with ``l2_bg`` as the --l2-bg default."""
    fitp = argparse.ArgumentParser(add_help=False)
    fitp.add_argument("--l2-theta", type=float, default=FitConfig.l2_theta)
    fitp.add_argument("--l2-bg", type=float, default=l2_bg,
                      help="L2 penalty on beta/gamma (default %(default)g)")
    fitp.add_argument("--tol", type=float, default=FitConfig.tol,
                      help="stop once the Newton decrement is at most "
                           "tol * max(1, |objective|) (default %(default)g)")
    fitp.add_argument("--max-iter", type=int, default=FitConfig.max_iter,
                      help="most Newton steps per fit (default %(default)d)")
    return fitp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogrl",
        description=(
            "Cognitive model discovery: train content models, threshold "
            "representations into Q-matrices, evaluate with AFM, simulate "
            "apprentice learners."),
        epilog=(
            "exit codes: 0 ok, 2 usage, 3 input error, 4 configuration "
            "error, 5 numeric/fit/verification error, 1 unexpected"))
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: $COGRL_SEED or 0)")
    common.add_argument("--manifest", default=None,
                        help="run-manifest path (default: <first output>"
                             ".manifest.json)")
    fitp = _fit_options(l2_bg=FitConfig.l2_beta_gamma)
    studyp = _fit_options(l2_bg=STUDY_L2_BETA_GAMMA)
    jobsp = argparse.ArgumentParser(add_help=False)
    jobsp.add_argument("--jobs", type=int, default=1,
                       help="worker processes; outputs are identical for "
                            "any value")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    synth_sub = p.add_subparsers(dest="variant", required=True)
    pv = synth_sub.add_parser("visual", parents=[common])
    pv.add_argument("--out-dir", required=True)
    pv.add_argument("--templates", type=int, default=4)
    pv.add_argument("--per-template", type=int, default=10)
    pv.add_argument("--height", type=int, default=20)
    pv.add_argument("--width", type=int, default=20)
    pv.add_argument("--channels", type=int, default=1, choices=(1, 3))
    pv.add_argument("--jitter", type=int, default=2)
    pv.add_argument("--noise", type=float, default=0.05)
    pv.set_defaults(func=cmd_synth)
    pc = synth_sub.add_parser("cloze", parents=[common])
    pc.add_argument("--out-dir", required=True)
    pc.add_argument("--questions", type=int, default=70)
    pc.add_argument("--no-hidden-rule", action="store_true",
                    help="omit the rule the six article features cannot express")
    pc.set_defaults(func=cmd_synth)
    pa = synth_sub.add_parser("afm-log", parents=[common])
    pa.add_argument("--out-dir", required=True)
    pa.add_argument("--students", type=int, default=100)
    pa.add_argument("--items", type=int, default=60)
    pa.add_argument("--kcs", type=int, default=5)
    pa.add_argument("--transactions-per-student", type=int, default=None)
    pa.add_argument("--qmatrix", default=None,
                    help="use this Q-matrix's item/KC structure instead of "
                         "a random one")
    pa.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-rep", parents=[common],
                       help="train a content model, save checkpoint and "
                            "representation TSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--images", help="image manifest TSV")
    src.add_argument("--cloze", help="cloze question TSV")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-reps", required=True)
    p.add_argument("--filters", type=int, default=10)
    p.add_argument("--kernel", type=int, default=10)
    p.add_argument("--stride", type=int, default=5)
    p.add_argument("--rep-size", type=int, default=50)
    p.add_argument("--embedding-dim", type=int, default=32)
    p.add_argument("--lstm-hidden", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--target-loss", type=float, default=0.01)
    p.set_defaults(func=cmd_train_rep)

    p = sub.add_parser("qmatrix", parents=[common],
                       help="threshold representations into a Q-matrix; "
                            "optionally emit baseline models")
    p.add_argument("--reps", required=True, help="representation TSV")
    p.add_argument("--tau", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None,
                   help="sanitation report path (default: <out>.report.txt)")
    p.add_argument("--emit-faculty", default=None)
    p.add_argument("--emit-identical", default=None)
    p.add_argument("--human-map", default=None,
                   help="item_id/kc_name TSV of a human-authored model")
    p.add_argument("--emit-human", default=None)
    p.set_defaults(func=cmd_qmatrix)

    p = sub.add_parser("fit-afm", parents=[common, fitp],
                       help="fit AFM parameters on a transaction log")
    p.add_argument("--log", required=True)
    p.add_argument("--qmatrix", required=True)
    p.add_argument("--out", required=True, help="params TSV")
    p.add_argument("--report", default=None, help="per-KC intercept/slope TSV")
    p.set_defaults(func=cmd_fit_afm)

    p = sub.add_parser("cv", parents=[common, fitp, jobsp],
                       help="item-stratified cross-validated RMSE")
    p.add_argument("--log", required=True)
    p.add_argument("--qmatrix", required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("compare", parents=[common, fitp, jobsp],
                       help="CV-RMSE table over several cognitive models")
    p.add_argument("--log", required=True)
    p.add_argument("--models", required=True,
                   help="comma list: faculty, identical, NAME=QMATRIX_PATH")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", parents=[common, studyp, jobsp],
                       help="apprentice-learner study with AFM estimates")
    p.add_argument("--log", required=True, help="original transaction log")
    p.add_argument("--cloze", required=True, help="cloze question TSV")
    p.add_argument("--q-eval", required=True,
                   help="Q-matrix to fit both logs against")
    p.add_argument("--features", choices=("human", "cogrl", "file"),
                   default="human")
    p.add_argument("--cogrl-q", default=None,
                   help="thresholded representation Q-matrix (features=cogrl)")
    p.add_argument("--features-file", default=None,
                   help="item features TSV (features=file)")
    p.add_argument("--refit-every", type=int, default=1)
    p.add_argument("--out", required=True, help="per-KC comparison TSV")
    p.add_argument("--out-sim-log", default=None,
                   help="also write the pooled simulated log")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference verification of both "
                            "architectures at reduced size")
    p.add_argument("--arch", choices=("cnn", "lstm", "both"), default="both")
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _manifest_path(args, outputs) -> str | None:
    if args.manifest:
        return args.manifest
    if outputs:
        return outputs[0] + ".manifest.json"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.time()
    try:
        seed = _resolve_seed(args)
        inputs, outputs, *diagnostics = args.func(args, seed)
        manifest_path = _manifest_path(args, outputs)
        if manifest_path:
            flags = {k: v for k, v in vars(args).items()
                     if k not in ("func",) and not callable(v)}
            record = {
                "version": __version__,
                "subcommand": args.command,
                "flags": flags,
                "seed": seed,
                "inputs": {p: _sha256(p) for p in inputs},
                "outputs": outputs,
                "duration_s": round(time.time() - start, 3),
            }
            if diagnostics:
                record["diagnostics"] = diagnostics[0]
            write_lines(manifest_path, [json.dumps(record, sort_keys=True)])
    except InputError as exc:
        print(f"cogrl: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigurationError, DimensionError) as exc:
        print(f"cogrl: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FitError) as exc:
        print(f"cogrl: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CogrlError as exc:
        print(f"cogrl: error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    except OSError as exc:
        print(f"cogrl: file error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
