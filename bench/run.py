"""Benchmark runner for the cogrl pipelines.

    python3 bench/run.py --workload visual|cloze|population --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Each round runs in two fresh Python
processes that import ``cogrl`` from ``src/``: one makes and writes the
workload's inputs from the seed (``round.py setup``), the next calls
``cogrl.cli.main`` once per command of the workload, in sequence (a closed
loop with one caller, ``--jobs 1``, BLAS pinned to one thread) and times
each call (``round.py run``). The first round that runs every command also
checks the outputs, and every round must write the same outputs. Rounds
repeat until the next one would end after ``--seconds``; every run makes at
least three rounds with ``--trace 0``, and at least one untraced and one
traced round, alternating, with ``--trace 1``. Figures are medians over
rounds.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from
the traced rounds, plus the per-command times of the untraced rounds and the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted`` (timed commands), ``failed`` (commands
that did not exit 0) and ``metrics``. A run record with versions, digests of
every input and every round's figures and checks is written to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
COMMAND_METRICS = ("train_rep_s", "qmatrix_s", "fit_afm_s", "compare_s",
                   "simulate_s")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
MIN_UNTRACED_ROUNDS = 3
# a run must exit within 180 s; start no round that could end after this
LAST_ROUND_END_S = 165.0


class ChildFailed(RuntimeError):
    pass


def _child(args, env, deadline):
    """Run ``round.py`` with ``args``; returns (its JSON line, seconds from
    spawn to exit, wall-clock time of the spawn)."""
    spawned = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "round.py")]
                            + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"round.py {args[0]} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"round.py {' '.join(args)} exited "
                          f"{proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), seconds, spawned


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _median(values):
    return float(statistics.median(values))


def run(workload, seed, seconds, traced_run):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               **BLAS_THREADS)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    tag = f"{workload}-seed{seed}"
    spans_path = os.path.join(OUT, "results", f"{tag}.spans.tsv")
    base = ["--workload", workload, "--seed", str(seed), "--dir", work]
    started = time.perf_counter()
    deadline = started + 175.0
    rounds = []
    try:
        # warm-up: compiles bytecode and fills the file cache, untimed
        warm, _, _ = _child(["setup"] + base, env, deadline)
        measure_start = time.perf_counter()
        while True:
            traced = traced_run and len(rounds) % 2 == 1
            shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
            setup, setup_s, _ = _child(["setup"] + base, env, deadline)
            # every round must write byte-identical outputs (checked below),
            # so checking one round's outputs checks them all
            checked = any(r["checked"] for r in rounds)
            args = ["run"] + base + ([] if checked else ["--check"]) \
                + (["--trace", "--spans", spans_path] if traced else [])
            result, run_s, spawned = _child(args, env, deadline)
            result.update(traced=traced, inputs=setup["inputs"],
                          setup_s=setup_s + result["ready_at"] - spawned,
                          round_s=setup_s + run_s)
            rounds.append(result)
            now = time.perf_counter()
            untraced = sum(not r["traced"] for r in rounds)
            enough = (untraced >= 1 and len(rounds) > untraced) if traced_run \
                else untraced >= MIN_UNTRACED_ROUNDS
            if now - started + result["round_s"] > LAST_ROUND_END_S or (
                    enough and now - measure_start + result["round_s"] > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return warm["versions"], rounds


def aggregate(rounds, traced_run):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    metrics = {}
    if not traced_run:
        metrics["setup_s"] = _median([r["setup_s"] for r in plain])
        metrics["wall_s"] = _median([r["wall_s"] for r in plain])
        metrics["peak_rss_mib"] = _median([r["peak_rss_mib"] for r in plain])
        return metrics
    for name in COMMAND_METRICS:
        times = [c["seconds"] for r in plain for c in r["commands"]
                 if c["metric"] == name]
        # a command this workload does not run took no time in it
        metrics[name] = _median(times) if times else 0.0
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = _median([r["layers"][name] for r in traced])
        metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                       - _median([r["wall_s"] for r in plain]))
    return metrics


def run_checks(rounds):
    """One round's output checks, each traced round's span check, and two
    over the run: every setup wrote the same inputs, and every round
    (traced or not) wrote the same outputs."""
    checks = [dict(c, round=i) for i, r in enumerate(rounds)
              for c in r["checks"]]
    complete = [r for r in rounds
                if all(c["code"] == 0 for c in r["commands"])]
    checks.append({"name": "same inputs from every setup", "round": None,
                   "passed": all(r["inputs"] == rounds[0]["inputs"]
                                 for r in rounds), "detail": ""})
    checks.append({"name": "same outputs from every round", "round": None,
                   "passed": all(r["outputs"] == complete[0]["outputs"]
                                 for r in complete), "detail": ""})
    return checks


def main(argv=None):
    # on SIGTERM, unwind so that a running round's process is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(
        description="Time and check the cogrl pipelines on one workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cogrl", "__init__.py")):
        print(f"bench: no cogrl sources under {os.path.join(ROOT, 'src')}; "
              f"run from the root of a cogrl checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        versions, rounds = run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    measured = aggregate(rounds, bool(args.trace))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"bench: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    checks = run_checks(rounds)
    commands = [c for r in rounds for c in r["commands"]]
    failed = sum(c["code"] != 0 for c in commands)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands_attempted": len(commands),
        "commands_failed": failed,
        "checks_attempted": len(checks),
        "checks_failed": sum(not c["passed"] for c in checks),
        "inputs": rounds[0]["inputs"],
        "metrics": metrics,
        "rounds": [{k: r[k] for k in ("traced", "setup_s", "wall_s",
                                      "peak_rss_mib", "commands")}
                   for r in rounds],
        "checks": checks,
    }
    record_path = os.path.join(OUT, "results",
                               f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for c in checks:
        if not c["passed"]:
            print(f"CHECK FAILED (round {c['round']}): {c['name']}: "
                  f"{c['detail']}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(commands)} commands ({failed} failed), {len(checks)} checks "
          f"({record['checks_failed']} failed); record {record_path}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["checks_failed"] == 0,
                      "attempted": len(commands), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
