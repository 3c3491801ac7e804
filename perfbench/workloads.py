"""The benchmark's workloads: which CLI commands one round runs, on which inputs.

A run repeats whole rounds of one workload.  Round r of benchmark seed s uses
entry ``pool_index(s, r)`` of a fixed pool of ``POOL`` input sets, and each
entry fixes every master seed the round passes to the program.  The pool is
finite so that every artifact the benchmark can produce has a reference hash
(``reference_hashes.json``, written by ``regen_reference.py``).

Paths are relative to the root of a checkout; every script runs from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

POOL = 16
RESULTS_DIR = "perfbench/results"
REFERENCE_FILE = "perfbench/reference_hashes.json"

HR_RECEIVERS_PER_ROUND = 10  # half through `hr calibrate`, half through `hr sweep`


@dataclass(frozen=True)
class Command:
    """One CLI command of a round; ``argv`` leaves out --out and --quiet."""

    label: str
    kind: str  # which output check applies
    config: str
    argv: tuple[str, ...]
    samples: Optional[int]
    instances: int  # Monte Carlo instances the command completes


# workload -> --threads of its commands
WORKLOADS = {
    "studies": 2,
    "dac-amplitude": 2,
    "dac-timing-heal": 1,
    "hr-calibration": 1,
}


def pool_index(seed: int, round_index: int) -> int:
    return (seed * 37 + round_index) % POOL


def read_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file with ``#`` comments, read apart from the program."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.split("#", 1)[0].strip()
            if text:
                key, _, value = text.partition("=")
                out[key.strip()] = value.strip()
    return out


def floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _command(label, kind, group, name, config, seed, samples, threads, instances, extra=()):
    argv = (group, name, "--config", config, "--seed", str(seed))
    if samples is not None:
        argv += ("--samples", str(samples))
    argv += ("--threads", str(threads)) + tuple(extra)
    return Command(label, kind, config, argv, samples, instances)


def round_commands(workload: str, index: int, threads: Optional[int] = None) -> list[Command]:
    """The commands of one round on pool entry ``index``, in the order they run."""
    threads = WORKLOADS[workload] if threads is None else threads
    seed = 1 + index
    if workload == "studies":
        fr = read_config("configs/fig3_8.cfg")
        fo = read_config("configs/fig3_9.cfg")
        sw = read_config("configs/fig3_10.cfg")
        # two study blocks (studies.BLOCK = 4096) per failure-rate and a-sweep
        # study, so --threads has blocks to share; the frontier's 72 studies
        # are one short block each
        n_fr, n_fo, n_sw = 8192, 2048, 8192
        return [
            _command("failure-rate", "failure-rate", "study", "failure-rate",
                     "configs/fig3_8.cfg", seed, n_fr, threads,
                     n_fr * len(floats(fr["study.d_list"])) * len(floats(fr["study.offsets"]))),
            _command("rcal-frontier", "rcal-frontier", "study", "rcal-frontier",
                     "configs/fig3_9.cfg", seed, n_fo, threads,
                     n_fo * len(floats(fo["frontier.sigma_t_list"]))
                     * len(floats(fo["frontier.d_candidates"]))),
            _command("a-sweep", "a-sweep", "study", "a-sweep",
                     "configs/fig3_10.cfg", seed, n_sw, threads,
                     n_sw * len(floats(sw["sweep.a_values"]))),
        ]
    if workload == "dac-amplitude":
        n = 100
        return [
            _command("eses", "yield-eses", "dac", "yield", "configs/fig5_16.cfg",
                     seed, n, threads, n),
            _command("ses", "yield-ses", "dac", "yield", "configs/fig5_17.cfg",
                     seed, n, threads, n),
        ]
    if workload == "dac-timing-heal":
        n = 100
        return [
            _command("timing", "yield-timing", "dac", "yield", "perfbench/configs/timing.cfg",
                     seed, n, threads, n, extra=("--flow", "timing")),
            _command("self-heal", "self-heal", "dac", "self-heal", "configs/fig5_5.cfg",
                     seed, n, threads, n),
        ]
    if workload == "hr-calibration":
        base = 1 + HR_RECEIVERS_PER_ROUND * index
        half = HR_RECEIVERS_PER_ROUND // 2
        return [
            _command(f"calibrate-{i}", "hr-calibrate", "hr", "calibrate",
                     "configs/fig4_13.cfg", base + i, None, threads, 1)
            for i in range(half)
        ] + [
            _command(f"sweep-{i}", "hr-sweep", "hr", "sweep",
                     "configs/fig4_14.cfg", base + half + i, None, threads, 1)
            for i in range(half)
        ]
    raise KeyError(f"unknown workload {workload!r}")

