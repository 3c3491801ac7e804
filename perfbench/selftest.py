"""Self-test of the output checks: each must reject a corrupted artifact.

    PYTHONPATH=src python3 perfbench/selftest.py

Run from the root of a checkout (about 15 s on two cores).  Runs one round of
every workload, requires its outputs to pass every check, then corrupts copies
of them one way at a time and requires the named check to reject each copy.
A corruption of an artifact's content rewrites its hash in ``manifest.json``,
so that only the content check can catch it; the ``[manifest]`` cases leave
the content alone and break the recorded hash instead.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

from subsetcal import cli

from checks import Oracles, check_command, check_round, sha256_file
from workloads import RESULTS_DIR, WORKLOADS, read_config, round_commands

ROOT = os.path.join(RESULTS_DIR, "selftest")


def _edit_csv(path: str, edit) -> None:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows[0], rows[1:])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    _rehash(path)


def _rehash(path: str) -> None:
    manifest_path = os.path.join(os.path.dirname(path), "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["artifacts"][os.path.basename(path)] = sha256_file(path)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _wrong_hash(out_dir: str) -> None:
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    name = sorted(manifest["artifacts"])[0]
    digest = manifest["artifacts"][name]
    manifest["artifacts"][name] = ("0" if digest[0] != "0" else "1") + digest[1:]
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _column(header, name):
    return header.index(name)


def _scale(name, factor, rows_picked=slice(None)):
    def edit(header, rows):
        i = _column(header, name)
        for row in rows[rows_picked]:
            row[i] = "%.12g" % (float(row[i]) * factor)
    return edit


def _set_failures(row, failures):
    samples = int(row[6])
    f = failures / samples
    row[7], row[8], row[9] = str(failures), "%.12g" % f, "%.12g" % ((f * (1 - f) / samples) ** 0.5)


def _break_monotone(header, rows):
    # the widest window of the first series fails as often as the narrowest
    _set_failures(rows[9], int(rows[0][7]))


def _shift_oracle_series(header, rows):
    # 80 % of the failures on the d = 1 series: still monotone and self-consistent
    for row in rows:
        if row[0] == "eses" and float(row[1]) == 1.0:
            _set_failures(row, int(int(row[7]) * 0.8))


def _csv_case(label, filename, edit):
    def apply(round_dir):
        _edit_csv(os.path.join(round_dir, label, filename), edit)
    return apply


def _figure(cfg_path):
    return read_config(cfg_path)["figure.id"] + ".csv"


def _post_hrr(harmonic, value):
    def edit(header, rows):
        for row in rows:
            if row[1] == str(harmonic) and row[3] == "post" and float(row[0]) == 750e6:
                row[2] = repr(value)
    return edit


def _lower_hrr2(header, rows):
    pre = next(float(r[2]) for r in rows if r[1] == "2" and r[3] == "pre")
    _post_hrr(2, pre - 1.0)(header, rows)


def _raise_objective(round_dir):
    path = os.path.join(round_dir, "calibrate-0", "hr_calibration.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    step = report["odd"]["trace"][0]
    step["objective_after"] = step["objective_before"] * 2.0 + 1e-12
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    _rehash(path)


def _two_receivers_below_70(round_dir):
    for label in ("calibrate-0", "sweep-0"):
        config = "configs/fig4_13.cfg" if label.startswith("calibrate") else "configs/fig4_14.cfg"
        _edit_csv(os.path.join(round_dir, label, _figure(config)), _post_hrr(3, 60.0))


def _unheal_row(header, rows):
    healed = _column(header, "healed")
    row = next(r for r in rows if r[healed] == "1")
    row[healed] = "0"


CASES = [
    ("studies", "[manifest]", lambda d: _wrong_hash(os.path.join(d, "failure-rate"))),
    ("studies", "[stderr]", _csv_case("failure-rate", _figure("configs/fig3_8.cfg"),
                                      _scale("stderr", 1.01, slice(0, 1)))),
    ("studies", "[monotone]", _csv_case("failure-rate", _figure("configs/fig3_8.cfg"),
                                        _break_monotone)),
    ("studies", "[oracle]", _csv_case("failure-rate", _figure("configs/fig3_8.cfg"),
                                      _shift_oracle_series)),
    ("studies", "[rcal]", _csv_case("rcal-frontier", _figure("configs/fig3_9.cfg"),
                                    _scale("best_rcal", 1.001, slice(0, 1)))),
    ("studies", "[rate]", _csv_case("a-sweep", _figure("configs/fig3_10.cfg"),
                                    _scale("failure_rate", 1.01, slice(0, 1)))),
    ("dac-amplitude", "[manifest]", lambda d: _wrong_hash(os.path.join(d, "ses"))),
    ("dac-amplitude", "[model-inl]", _csv_case("eses", "yield_rows.csv", _scale("pre_inl_max", 1.5))),
    ("dac-amplitude", "[c07]", _csv_case("eses", "yield_rows.csv", _scale("post_inl_max", 3.0))),
    ("dac-timing-heal", "[manifest]", lambda d: _wrong_hash(os.path.join(d, "self-heal"))),
    ("dac-timing-heal", "[budget]", _csv_case("timing", "yield_rows.csv",
                                              _scale("pre_delay_sigma", 1.1))),
    ("dac-timing-heal", "[c09]", _csv_case("timing", "yield_rows.csv",
                                           _scale("post_duty_sigma", 10.0))),
    ("dac-timing-heal", "[healed]", _csv_case("self-heal", "yield_rows.csv", _unheal_row)),
    ("dac-timing-heal", "[c10]", _csv_case("self-heal", "yield_rows.csv",
                                           _scale("post_inl_max", 10.0))),
    ("hr-calibration", "[manifest]", lambda d: _wrong_hash(os.path.join(d, "sweep-3"))),
    ("hr-calibration", "[objective]", _raise_objective),
    ("hr-calibration", "[hrr2]", _csv_case("calibrate-0", _figure("configs/fig4_13.cfg"),
                                           _lower_hrr2)),
    ("hr-calibration", "[c06]", _two_receivers_below_70),
]


def round_errors(name: str, round_dir: str, oracles: Oracles) -> list[str]:
    errors, facts = [], []
    for command in round_commands(name, 0):
        found, fact = check_command(command, os.path.join(round_dir, command.label), oracles)
        errors += found
        facts.append(fact)
    return errors + check_round(facts)


def main() -> int:
    shutil.rmtree(ROOT, ignore_errors=True)
    oracles = Oracles()
    failures = 0
    for name in WORKLOADS:
        clean = os.path.join(ROOT, name, "clean")
        for command in round_commands(name, 0):
            cli.main(list(command.argv) + ["--out", os.path.join(clean, command.label), "--quiet"])
        errors = round_errors(name, clean, oracles)
        print(f"{'ok  ' if not errors else 'FAIL'} {name}: clean outputs pass every check")
        failures += bool(errors)
        for error in errors:
            print(f"     {error}")
        for case, (workload, tag, corrupt) in enumerate(CASES):
            if workload != name:
                continue
            copy = os.path.join(ROOT, name, f"case{case:02d}")
            shutil.copytree(clean, copy)
            corrupt(copy)
            errors = round_errors(name, copy, oracles)
            caught = any(e.startswith(tag) for e in errors)
            failures += not caught
            print(f"{'ok  ' if caught else 'FAIL'} {name}: {tag} rejects the corrupted copy"
                  f" ({len(errors)} errors)")
    print(f"{failures} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
