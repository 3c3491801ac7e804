"""Regenerate ``perfbench/reference_hashes.json``.

    PYTHONPATH=src python3 perfbench/regen_reference.py [--workload NAME]

Run from the root of a checkout.  Runs every round of the input pool once
per workload (``workloads.POOL`` entries; about four minutes on two cores),
checks every output like a benchmark run does, and records the SHA-256 of
every artifact except ``manifest.json``, which names its output directory.
The file is written only when every check passes; with ``--workload`` only
that workload's entry is replaced.  Regenerate it when a change is meant to
alter the program's outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from subsetcal import cli

from checks import Oracles, artifact_hashes, check_command, check_round
from workloads import POOL, REFERENCE_FILE, RESULTS_DIR, WORKLOADS, round_commands


def regenerate(name: str, oracles: Oracles) -> tuple[dict, list[str]]:
    hashes: dict = {}
    errors: list[str] = []
    root = os.path.join(RESULTS_DIR, "reference", name)
    shutil.rmtree(root, ignore_errors=True)
    for index in range(POOL):
        facts = []
        hashes[str(index)] = {}
        commands = round_commands(name, index)
        for command in commands:
            out = os.path.join(root, f"p{index:02d}", command.label)
            rc = cli.main(list(command.argv) + ["--out", out, "--quiet"])
            if rc != 0:
                errors.append(f"pool {index} {command.label}: exited {rc}")
                continue
            found, fact = check_command(command, out, oracles)
            errors += [f"pool {index} {command.label}: {e}" for e in found]
            facts.append(fact)
            hashes[str(index)][command.label] = artifact_hashes(out)
        errors += [f"pool {index}: {e}" for e in check_round(facts)]
        print(f"{name} pool {index}: {len(commands)} commands", file=sys.stderr)
    return hashes, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(WORKLOADS)
    reference = {}
    if args.workload and os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            reference = json.load(handle)
    oracles = Oracles()
    failures = []
    for name in names:
        reference[name], errors = regenerate(name, oracles)
        failures += errors
    for error in failures:
        print(f"FAILED {error}", file=sys.stderr)
    if failures:
        print(f"{REFERENCE_FILE} left unchanged: {len(failures)} checks failed", file=sys.stderr)
        return 1
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
