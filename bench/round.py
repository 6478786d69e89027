"""One round of a workload, in a fresh Python process.

    python3 bench/round.py setup --workload W --seed N --dir D
        writes the workload's inputs for seed N under D/in and prints their
        SHA-256 digests as JSON;
    python3 bench/round.py run --workload W --seed N --dir D [--check] [--trace]
        calls cogrl.cli.main once per command of the workload, times each
        call and prints one JSON line with the timings, peak RSS and output
        digests; with --check, also the checks of the outputs; with --trace,
        also the per-layer metrics of the spans recorded around every cogrl
        module.

``cogrl`` is imported from ``src/`` (the runner sets PYTHONPATH). The
runner, ``run.py``, starts these processes and aggregates their results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _setup(args):
    import numpy as np
    import workloads

    inputs = workloads.setup(args.workload, args.seed, args.dir)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = {"numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}"}
    print(json.dumps({"inputs": inputs, "versions": versions}))


def _run(args):
    import cogrl.cli
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    commands = workloads.commands(args.workload, args.seed, args.dir)
    ready_at = time.time()
    timings, stdout, codes = {}, {}, {}
    first = time.perf_counter()
    for index, (metric, argv) in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        captured = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                code = cogrl.cli.main(argv)
            except Exception:  # a crash counts as a failed command
                traceback.print_exc(file=sys.stderr)
                code = -1
        timings[metric] = time.perf_counter() - t0
        stdout[metric] = captured.getvalue()
        codes[metric] = code
    wall = time.perf_counter() - first
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.command = -1

    checks = []
    checked = args.check and all(code == 0 for code in codes.values())
    if checked:
        checks = [{"name": n, "passed": bool(ok), "detail": d}
                  for n, ok, d in workloads.check(args.workload, args.dir,
                                                  stdout)]
    result = {
        "ready_at": ready_at,
        "commands": [{"metric": m, "argv": argv, "code": codes[m],
                      "seconds": timings[m]} for m, argv in commands],
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib,
        "checks": checks,
        "checked": checked,
        "outputs": workloads.digests(os.path.join(args.dir, "out")),
    }
    if tracer is not None:
        self_sums = tracer.command_self_sums(len(commands))
        result["layers"] = tracer.layer_metrics()
        result["checks"].append({
            "name": "per command, span self times sum to at most its duration",
            "passed": all(s <= timings[m] for s, (m, _) in
                          zip(self_sums, commands)),
            "detail": json.dumps({m: [s, timings[m]] for s, (m, _) in
                                  zip(self_sums, commands)})})
        tracer.write(args.spans)
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--check", action="store_true",
                        help="check the outputs after the timed commands")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="where a traced round writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(args)
    else:
        _run(args)


if __name__ == "__main__":
    main()
