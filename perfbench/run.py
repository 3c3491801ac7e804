"""Benchmark of the subsetcal workbench, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--threads T]

Run from the root of a checkout.  For each workload the benchmark times
set-up in fresh interpreters, then starts one workload process
(``child.py``) that runs whole rounds of CLI commands through
``subsetcal.cli.main`` for about ``--seconds``.  Afterwards it checks every
output (``checks.py``), compares artifact hashes with
``reference_hashes.json`` and prints each metric by name and unit.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from spans with ``--trace 1``).  ``--threads`` replaces the
workload's thread count, for a single-threaded reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import Oracles, artifact_hashes, check_command, check_round
from tracing import span_totals
from workloads import REFERENCE_FILE, RESULTS_DIR, WORKLOADS, round_commands

SETUP_PROBES = 7  # fresh interpreters timed per run, besides the workload process
CHILD_TIMEOUT_S = 100  # beyond --seconds

END_TO_END_UNITS = {
    "samples_per_s": "samples/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> the span totals it sums (see tracing.span_totals).
PER_LAYER = {
    "runner.parallel_indexed.s": ("runner.parallel_indexed.s",),
    "runner.rows": ("runner.row.calls",),
    "runner.row_s": ("runner.row.s",),
    "studies.run_study.calls": None,
    "studies.run_study.s": None,
    "studies.min_distances.s": None,
    "studies.min_distances.self_s": None,
    "studies.samples": ("studies.run_study.samples",),
    "mismatch.draw_realized.calls": None,
    "mismatch.draw_realized.s": None,
    "mismatch.draw_realized.resamples": None,
    "mismatch.find_best.calls": None,
    "mismatch.find_best.s": None,
    "csdac.sample_dac.calls": None,
    "csdac.sample_dac.s": None,
    "csdac.calibrate_amplitude_eses.s": None,
    "csdac.linearity.calls": None,
    "csdac.linearity.s": None,
    "csdac.calibrate_timing.s": None,
    "csdac.delay_errors.s": None,
    "csdac.duty_errors.s": None,
    "csdac.sample_selfheal.s": None,
    "csdac.self_heal_ses.s": None,
    "csdac.healed_linearity.s": None,
    "csdac.self_heal_ses.trials": None,
    "csdac.self_heal_ses.restarts": None,
    "csdac.self_heal_ses.backups_used": None,
    "csdac.self_heal_ses.cells_healed": None,
    "hrmixer.sample_receiver.s": None,
    "hrmixer.calibrate_even_order.s": None,
    "hrmixer.calibrate_even_order.steps": None,
    "hrmixer.calibrate_even_order.committed": None,
    "hrmixer.calibrate_odd_order.s": None,
    "hrmixer.calibrate_odd_order.steps": None,
    "hrmixer.calibrate_odd_order.committed": None,
    "hrmixer.measure_harmonic_power.calls": None,
    "hrmixer.measure_harmonic_power.s": None,
    "hrmixer.effective_lo.calls": None,
    "hrmixer.effective_lo.s": None,
    "hrmixer.sweep_hrr.s": None,
    "waveform.fourier_coeff.calls": None,
    "waveform.fourier_coeff.s": None,
    "reporting.emit_figure.s": None,
    "reporting.emit_json.s": None,
    "reporting.write_manifest.s": None,
    "reporting.bytes_written": (
        "reporting.emit_figure.bytes", "reporting.emit_json.bytes", "reporting.write_manifest.bytes",
    ),
    "cli.main.calls": None,
    "cli.main.s": None,
    "cli.main.self_s": None,
    "trace.overhead_s": (),  # measured from round wall times, not from spans
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


class BenchError(RuntimeError):
    pass


def _child(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            [sys.executable, "perfbench/child.py", *args],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped the child
        raise BenchError(f"workload process did not end within {timeout:.0f} s") from err


def _check_child(proc: subprocess.CompletedProcess) -> None:
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads) -> dict:
    root = os.path.join(RESULTS_DIR, name)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )

    setups = []
    for _ in range(SETUP_PROBES):
        began = time.monotonic()
        proc = _child(["--probe"], env, 60)
        _check_child(proc)
        setups.append(float(proc.stdout.strip()) - began)

    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    if threads is not None:
        argv += ["--threads", str(threads)]
    began = time.monotonic()
    proc = _child(argv, env, seconds + CHILD_TIMEOUT_S)
    _check_child(proc)
    with open(os.path.join(root, "results.json"), encoding="utf-8") as handle:
        results = json.load(handle)
    setups.append(results["ready"] - began)

    reference = {}
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            reference = json.load(handle).get(name, {})

    oracles = Oracles()
    attempted = failed = check_failures = 0
    errors_seen: list[str] = []
    outputs = {"match": 0, "changed": [], "unreferenced": 0, "pairs_identical": 0, "pairs_differ": []}
    recorded = {}  # round -> mode -> command -> artifact -> sha256, written to hashes.json
    for rnd in results["rounds"]:
        commands = round_commands(name, rnd["pool"], threads)
        hashes_by_mode = recorded[f"{rnd['round']:03d} pool {rnd['pool']}"] = {}
        for mode in ("commands", "traced"):
            if mode not in rnd:
                continue
            op_errors, facts = [], []
            hashes_by_mode[mode] = {}
            for command, record in zip(commands, rnd[mode], strict=True):
                if record["rc"] != 0:
                    op_errors.append([f"[exit] {command.label} exited {record['rc']}"])
                    facts.append({})
                    continue
                errors, fact = check_command(command, record["out"], oracles)
                op_errors.append(errors)
                facts.append(fact)
                hashes = artifact_hashes(record["out"])
                hashes_by_mode[mode][command.label] = hashes
                expected = reference.get(str(rnd["pool"]), {}).get(command.label)
                if expected is None:
                    outputs["unreferenced"] += 1
                elif expected == hashes:
                    outputs["match"] += 1
                else:
                    outputs["changed"].append(f"pool {rnd['pool']} {command.label}")
            # a check over the whole round belongs to the round's last operation
            op_errors[-1] += check_round(facts)
            for command, errors in zip(commands, op_errors):
                attempted += 1
                if errors:
                    failed += 1
                    check_failures += not errors[0].startswith("[exit]")
                    errors_seen += [f"round {rnd['round']} {mode} {command.label}: {e}" for e in errors]
        if "traced" in hashes_by_mode:
            for label, hashes in hashes_by_mode["commands"].items():
                if hashes_by_mode["traced"].get(label) == hashes:
                    outputs["pairs_identical"] += 1
                else:
                    outputs["pairs_differ"].append(f"round {rnd['round']} {label}")

    with open(os.path.join(root, "hashes.json"), "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
    if trace:
        metrics = _layer_metrics(root, results["rounds"])
    else:
        metrics = _end_to_end(name, results, setups, threads)
    return {
        "name": name,
        "rounds": len(results["rounds"]),
        "measured_s": results["measured_s"],
        "correct": check_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors_seen,
        "outputs": outputs,
        "metrics": metrics,
    }


def _end_to_end(name: str, results: dict, setups: list[float], threads) -> dict:
    rates, cpus = [], []
    for rnd in results["rounds"]:
        commands = round_commands(name, rnd["pool"], threads)
        rates.append(sum(c.instances for c in commands)
                     / sum(r["wall_s"] for r in rnd["commands"]))
        cpus.append(sum(r["cpu_s"] for r in rnd["commands"]))
    values = {
        "samples_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": results["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layer_metrics(root: str, rounds: list[dict]) -> dict:
    with open(os.path.join(root, "spans.json"), encoding="utf-8") as handle:
        totals = span_totals(json.load(handle))
    metrics = {}
    for name, sources in PER_LAYER.items():
        sources = (name,) if sources is None else sources
        value = sum(totals.get(key, 0.0) for key in sources) / len(rounds)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    metrics["trace.overhead_s"]["value"] = statistics.median(
        sum(r["wall_s"] for r in rnd["traced"]) - sum(r["wall_s"] for r in rnd["commands"])
        for rnd in rounds
    )
    return metrics


def report(result: dict, trace: bool) -> None:
    print(f"workload {result['name']}: {result['rounds']} rounds in"
          f" {result['measured_s']:.1f} s, {result['attempted']} operations attempted,"
          f" {result['failed']} failed")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    base = result["metrics"].get("cli.main.s", {}).get("value")
    for name, metric in result["metrics"].items():
        line = f"  {name:42s} {metric['value']:14.6g} {metric['unit']}"
        if trace and base and metric["unit"] == "s" and name != "cli.main.s":
            line += f"   {100.0 * metric['value'] / base:5.1f} % of cli.main.s"
        print(line)
    out = result["outputs"]
    print(f"  outputs: {out['match']} commands match {REFERENCE_FILE},"
          f" {len(out['changed'])} changed, {out['unreferenced']} without a reference")
    for item in out["changed"][:10]:
        print(f"  outputs changed: {item}")
    if trace:
        print(f"  traced rerun of the same inputs: {out['pairs_identical']} commands wrote"
              f" byte-identical artifacts, {len(out['pairs_differ'])} differ")
        for item in out["pairs_differ"]:
            print(f"  outputs changed under tracing: {item}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    if not (os.path.isfile("src/subsetcal/cli.py") and os.path.isdir("configs")):
        print("run.py must run from the root of a subsetcal checkout"
              " (src/subsetcal and configs/ are missing)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.threads))
            report(results[-1], bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
