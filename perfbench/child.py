"""The workload process: imports the program and runs rounds of CLI commands.

    python3 perfbench/child.py --probe
    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 [--threads T]

Run from the root of a checkout with ``src`` on PYTHONPATH (``run.py`` does
both).  ``--probe`` only imports ``subsetcal.cli`` and prints the monotonic
clock, for set-up timing.  Otherwise the process runs whole rounds until the
next one would end after ``--seconds``, calling ``subsetcal.cli.main`` in this
one process, and writes ``results.json`` (and ``spans.json`` when traced)
under ``perfbench/results/<workload>/``.  With ``--trace 1`` every round runs
twice on the same inputs, untraced and then traced.
"""

import time

from subsetcal import cli

READY = time.monotonic()

import argparse  # noqa: E402  (the program's import is what set-up time measures)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import RESULTS_DIR, WORKLOADS, pool_index, round_commands  # noqa: E402


def run_round(workload, index, out_root, threads, tracer):
    records = []
    for command in round_commands(workload, index, threads):
        out = os.path.join(out_root, command.label)
        argv = list(command.argv) + ["--out", out, "--quiet"]
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli.main", cli.main, (argv,), {})
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            rc = "exception"
        records.append({
            "label": command.label,
            "out": out,
            "rc": rc,
            "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu,
        })
    return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int)
    args = parser.parse_args()
    if args.probe:
        print(repr(READY))
        return 0

    src = os.path.abspath("src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"subsetcal was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    root = os.path.join(RESULTS_DIR, args.workload)
    tracer = Tracer() if args.trace else None
    rounds = []
    start = time.monotonic()
    longest = 0.0
    while not rounds or time.monotonic() - start + longest <= args.seconds:
        index = pool_index(args.seed, len(rounds))
        began = time.monotonic()
        record = {"round": len(rounds), "pool": index}
        record["commands"] = run_round(
            args.workload, index, os.path.join(root, f"r{len(rounds):03d}"), args.threads, None
        )
        if tracer is not None:
            tracer.install()
            try:
                record["traced"] = run_round(
                    args.workload, index, os.path.join(root, f"r{len(rounds):03d}t"),
                    args.threads, tracer,
                )
            finally:
                tracer.uninstall()
        rounds.append(record)
        longest = max(longest, time.monotonic() - began)

    results = {
        "ready": READY,
        "measured_s": time.monotonic() - start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rounds": rounds,
    }
    with open(os.path.join(root, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    if tracer is not None:
        with open(os.path.join(root, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
