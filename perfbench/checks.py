"""Output checks for every command the benchmark runs.

Each check compares the program's artifacts against a computation made apart
from the program (a brute-force Monte Carlo, a numpy converter model, closed
forms) or against a property the method must have.  None compares against a
stored copy of earlier output.  Every error string starts with the tag of the
check that raised it, e.g. ``[monotone]``; ``selftest.py`` relies on the tags.

``check_command`` returns ``(errors, facts)``; ``facts`` carries what a check
over a whole round needs (the c06 receiver population, ``check_round``).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from functools import cached_property

import numpy as np

from workloads import Command, floats, read_config

Z = 4.0  # tolerance of the statistical checks, in standard errors

STUDY_COLUMNS = (
    "method", "d_eses", "a_eses", "offset_kind", "sigma_T", "width_over_sigmak",
    "samples", "failures", "failure_rate", "stderr",
)
ORACLE_D = 1.0  # the failure-rate series (step in sigma_k units) re-estimated by brute force
ORACLE_SAMPLES = 32768
ORACLE_SEED = 20160101
MODEL_CONVERTERS = 20000


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _close(value: float, expected: float, rel: float = 1e-9) -> bool:
    return math.isclose(value, expected, rel_tol=rel, abs_tol=1e-300)


def _float(text: str) -> float:
    return float(text) if text != "" else math.nan


# ---------------------------------------------------------------------------
# oracles, computed once per process and only when a check needs them
# ---------------------------------------------------------------------------


class Oracles:
    @cached_property
    def failure_series(self) -> tuple[dict[float, int], int]:
        """Brute-force failure counts for the ORACLE_D series of fig3_8.cfg.

        Same physics as the study engine, computed on its own generator, with
        subset sums taken over ``itertools.combinations``: n elements graded
        by d * sigma_k around the center, sigma(size) = rel_sigma * sqrt(size
        * center), a Gaussian target offset of sigma_T * sigma_k, and a
        failure when no k-subset sum lies within width * sigma_k / 2.
        """
        cfg = read_config("configs/fig3_8.cfg")
        n, k = int(cfg["study.n"]), int(cfg["study.k"])
        center, rel = float(cfg["study.center"]), float(cfg["study.rel_sigma"])
        (sigma_t,) = floats(cfg["study.offsets"])
        widths = floats(cfg["study.widths"])
        sk = math.sqrt(k) * rel * center
        nominal = center + (np.arange(n) - (n - 1) / 2.0) * ORACLE_D * sk
        sigmas = rel * np.sqrt(nominal * center)
        combos = np.array(list(itertools.combinations(range(n), k)))
        rng = np.random.default_rng(ORACLE_SEED)
        failures = dict.fromkeys(widths, 0)
        chunk = 1024
        for start in range(0, ORACLE_SAMPLES, chunk):
            size = min(chunk, ORACLE_SAMPLES - start)
            realized = nominal + sigmas * rng.standard_normal((size, n))
            target = k * nominal.mean() + rng.standard_normal(size) * sigma_t * sk
            sums = realized[:, combos].sum(axis=2)
            dist = np.abs(sums - target[:, None]).min(axis=1)
            for w in widths:
                failures[w] += int(np.count_nonzero(dist > w * sk / 2.0))
        return failures, ORACLE_SAMPLES

    @cached_property
    def pre_inl_model(self) -> tuple[float, float]:
        """(median, spread) of the pre-calibration endpoint INL_max.

        A numpy model of the default 14-bit converter: 63 unary cells of
        312 uA with Gaussian sigma sqrt(6) * 1.1 uA (six selected
        sub-currents of 1.1 uA each), an ideal 8-bit LSB bank and an endpoint
        fit.  Within a segment the curve is linear, so the INL extremes sit at
        the first and last code of each segment.  ``spread`` is
        (q55 - q45) / 0.1, the inverse density at the median, from which the
        standard error of a sample median follows.
        """
        cell, sigma, lsb_bits, msb = 312e-6, math.sqrt(6.0) * 1.1e-6, 8, 63
        unit_lsb = cell / 2**lsb_bits
        rng = np.random.default_rng(ORACLE_SEED + 1)
        currents = cell + sigma * rng.standard_normal((MODEL_CONVERTERS, msb))
        levels = np.concatenate(
            [np.zeros((MODEL_CONVERTERS, 1)), np.cumsum(currents, axis=1)], axis=1
        )
        top = 2**lsb_bits - 1
        unit = (levels[:, -1] + top * unit_lsb) / (2 ** (lsb_bits + 6) - 1)
        first = np.arange(msb + 1) * 2**lsb_bits
        inl_first = levels / unit[:, None] - first
        inl_last = (levels + top * unit_lsb) / unit[:, None] - (first + top)
        inl_max = np.maximum(np.abs(inl_first), np.abs(inl_last)).max(axis=1)
        q45, q50, q55 = np.quantile(inl_max, [0.45, 0.5, 0.55])
        return float(q50), float((q55 - q45) / 0.1)


def _median_se(spread: float, n: int) -> float:
    return 0.5 * spread / math.sqrt(n)


# ---------------------------------------------------------------------------
# checks common to every command
# ---------------------------------------------------------------------------


def artifact_hashes(out_dir: str) -> dict[str, str]:
    """SHA-256 of every file the command wrote, manifest.json excluded."""
    return {
        name: sha256_file(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
        if name != "manifest.json"
    }


def check_manifest(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        listed = json.load(handle)["artifacts"]
    written = artifact_hashes(out_dir)
    errors = []
    if sorted(listed) != sorted(written):
        errors.append(f"[manifest] lists {sorted(listed)}, directory holds {sorted(written)}")
    for name in sorted(set(listed) & set(written)):
        if listed[name] != written[name]:
            errors.append(f"[manifest] {name}: recorded sha256 {listed[name][:12]}..."
                          f" but the file hashes to {written[name][:12]}...")
    return errors


def _rows(path: str, columns: tuple[str, ...], count: int) -> list[list[str]]:
    header, rows = read_csv(path)
    if tuple(header) != columns:
        raise ValueError(f"[rows] {os.path.basename(path)} header {header}")
    if len(rows) != count:
        raise ValueError(f"[rows] {os.path.basename(path)} has {len(rows)} rows, expected {count}")
    return rows


def _histogram(path: str, units: str, bins: int, values: np.ndarray) -> list[str]:
    rows = _rows(path, (f"bin_left_{units}", f"bin_right_{units}", "count"), bins)
    counts = [int(row[2]) for row in rows]
    name = os.path.basename(path)
    errors = []
    if sum(counts) != values.size:
        errors.append(f"[hist] {name} counts sum to {sum(counts)}, expected {values.size}")
    lo, hi = float(rows[0][0]), float(rows[-1][1])
    if not (_close(lo, values.min(), 1e-9) and _close(hi, values.max(), 1e-9)):
        errors.append(f"[hist] {name} spans [{lo:g}, {hi:g}], values span"
                      f" [{values.min():g}, {values.max():g}]")
    return errors


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def _study_rows(cmd: Command, out_dir: str, n_series: int, widths: list[float]):
    """Validate the shared study CSV; returns rows grouped by series."""
    cfg = read_config(cmd.config)
    rows = _rows(os.path.join(out_dir, cfg["figure.id"] + ".csv"), STUDY_COLUMNS,
                 n_series * len(widths))
    errors = []
    series: dict[tuple, list[tuple[float, int]]] = {}
    for row in rows:
        width, samples, failures = float(row[5]), int(row[6]), int(row[7])
        rate, stderr = float(row[8]), float(row[9])
        if samples != cmd.samples or not 0 <= failures <= samples:
            errors.append(f"[rows] {samples} samples, {failures} failures (expected"
                          f" {cmd.samples} samples)")
            continue
        f = failures / samples
        if not _close(rate, f):
            errors.append(f"[rate] failure_rate {rate!r} != failures/samples {f!r}")
        if not (_close(stderr, math.sqrt(f * (1 - f) / samples)) or stderr == f * (1 - f) == 0):
            errors.append(f"[stderr] stderr {stderr!r} != sqrt(f(1-f)/N) at f={f:g}")
        series.setdefault(tuple(row[:5]), []).append((width, failures))
    if len(series) != n_series:
        errors.append(f"[rows] {len(series)} series, expected {n_series}")
    for key, points in series.items():
        if sorted(w for w, _ in points) != sorted(widths):
            errors.append(f"[rows] series {key} widths {[w for w, _ in points]}")
        ordered = [f for _, f in sorted(points)]
        if any(b > a for a, b in zip(ordered, ordered[1:])):
            errors.append(f"[monotone] series {key}: failures {ordered} grow with width")
    return errors, series


def check_failure_rate(cmd: Command, out_dir: str, oracles: Oracles, facts: dict) -> list[str]:
    cfg = read_config(cmd.config)
    widths = floats(cfg["study.widths"])
    n_series = len(floats(cfg["study.d_list"])) * len(floats(cfg["study.offsets"]))
    errors, series = _study_rows(cmd, out_dir, n_series, widths)
    picked = [pts for key, pts in series.items() if key[0] == "eses" and _close(float(key[1]), ORACLE_D)]
    if len(picked) != 1:
        return errors + [f"[oracle] no single series with d_eses = {ORACLE_D}"]
    reference, n_ref = oracles.failure_series
    for width, failures in picked[0]:
        x_ref = next(x for w, x in reference.items() if _close(w, width))
        pooled = (failures + x_ref) / (cmd.samples + n_ref)
        se = math.sqrt(pooled * (1 - pooled) * (1 / cmd.samples + 1 / n_ref))
        gap = abs(failures / cmd.samples - x_ref / n_ref)
        if gap > Z * se:
            errors.append(f"[oracle] width {width:g}: engine {failures / cmd.samples:.5f},"
                          f" brute force {x_ref / n_ref:.5f}, gap {gap / max(se, 1e-300):.1f} SE")
    return errors


def check_frontier(cmd: Command, out_dir: str, oracles: Oracles, facts: dict) -> list[str]:
    cfg = read_config(cmd.config)
    sigma_ts = floats(cfg["frontier.sigma_t_list"])
    grid = floats(cfg["frontier.width_grid"])
    candidates = floats(cfg["frontier.d_candidates"])
    rows = _rows(os.path.join(out_dir, cfg["figure.id"] + ".csv"),
                 ("sigma_T_over_sigmak", "best_rcal", "d_eses", "width"), len(sigma_ts))
    errors = []
    feasible = 0
    for row, sigma_t in zip(rows, sigma_ts):
        if not _close(float(row[0]), sigma_t):
            errors.append(f"[rows] sigma_T {row[0]} where the config lists {sigma_t:g}")
        if row[1:] == ["", "", ""]:
            continue
        feasible += 1
        rcal, d, width = float(row[1]), float(row[2]), float(row[3])
        expected = math.sqrt(1.0 + sigma_t**2) * math.sqrt(12.0) / width
        if not _close(rcal, expected):
            errors.append(f"[rcal] sigma_T {sigma_t:g}: best_rcal {rcal!r} !="
                          f" sqrt(1+sT^2)*sqrt(12)/width = {expected!r}")
        if not any(_close(width, w) for w in grid) or not any(_close(d, c) for c in candidates):
            errors.append(f"[rows] sigma_T {sigma_t:g}: (d, width) = ({d:g}, {width:g}) off the grid")
    if feasible == 0:
        errors.append("[rows] no feasible frontier point")
    return errors


def check_a_sweep(cmd: Command, out_dir: str, oracles: Oracles, facts: dict) -> list[str]:
    cfg = read_config(cmd.config)
    errors, series = _study_rows(cmd, out_dir, len(floats(cfg["sweep.a_values"])),
                                 floats(cfg["sweep.widths"]))
    got = sorted(float(key[2]) for key in series)
    if not all(_close(a, b) for a, b in zip(got, sorted(floats(cfg["sweep.a_values"])))):
        errors.append(f"[rows] a_eses values {got}")
    return errors


# ---------------------------------------------------------------------------
# converter
# ---------------------------------------------------------------------------

AMPLITUDE_COLUMNS = ("sample_id", "pre_inl_max", "post_inl_max", "pre_dnl_max", "post_dnl_max")


def _bins(cfg: dict) -> int:
    return int(cfg.get("dac.bins", "60"))  # 60 is the CLI's default


def _yield_values(cmd: Command, out_dir: str, columns: tuple[str, ...]) -> dict[str, np.ndarray]:
    rows = _rows(os.path.join(out_dir, "yield_rows.csv"), columns, cmd.samples)
    values = {c: np.array([_float(row[i]) for row in rows]) for i, c in enumerate(columns)}
    if not np.array_equal(values["sample_id"], np.arange(cmd.samples)):
        raise ValueError("[rows] sample ids are not 0..N-1 in order")
    return values


def check_amplitude(cmd: Command, out_dir: str, oracles: Oracles, facts: dict) -> list[str]:
    cfg = read_config(cmd.config)
    v = _yield_values(cmd, out_dir, AMPLITUDE_COLUMNS)
    errors = []
    for column in AMPLITUDE_COLUMNS[1:]:
        if not np.all(np.isfinite(v[column]) & (v[column] >= 0)):
            errors.append(f"[rows] {column} has a negative or non-finite value")
    errors += _histogram(os.path.join(out_dir, cfg["figure.id"] + ".csv"), "lsb",
                         _bins(cfg), v["post_inl_max"])
    model_median, spread = oracles.pre_inl_model
    median = float(np.median(v["pre_inl_max"]))
    se = math.hypot(_median_se(spread, cmd.samples), _median_se(spread, MODEL_CONVERTERS))
    if abs(median - model_median) > Z * se:
        errors.append(f"[model-inl] pre-cal INL_max median {median:.3f} LSB, numpy model"
                      f" {model_median:.3f} LSB (tolerance {Z * se:.3f})")
    if cmd.kind == "yield-eses":
        inl99 = float(np.percentile(v["post_inl_max"], 99))
        dnl99 = float(np.percentile(v["post_dnl_max"], 99))
        if inl99 > 0.6 or dnl99 > 0.9:
            errors.append(f"[c07] post-cal INL_max p99 {inl99:.3f} LSB (<= 0.6),"
                          f" DNL_max p99 {dnl99:.3f} LSB (<= 0.9)")
    return errors


TIMING_COLUMNS = ("sample_id", "pre_delay_sigma", "post_delay_sigma", "pre_duty_sigma",
                  "post_duty_sigma")


def check_timing(cmd: Command, out_dir: str, oracles: Oracles, facts: dict) -> list[str]:
    cfg = read_config(cmd.config)
    v = _yield_values(cmd, out_dir, TIMING_COLUMNS)
    errors = []
    cells = 63
    # np.std over the cells of one converter has E[s^2] = sigma^2 (cells-1)/cells
    rel_se = 1.0 / math.sqrt(2.0 * (cells - 1) * cmd.samples)
    for name, budget, post_bound in (("delay", 1.3e-12, 0.05e-12), ("duty", 1.8e-12, 0.06e-12)):
        pre = math.sqrt(np.mean(v[f"pre_{name}_sigma"] ** 2))
        post = math.sqrt(np.mean(v[f"post_{name}_sigma"] ** 2))
        expected = budget * math.sqrt((cells - 1) / cells)
        if abs(pre / expected - 1.0) > Z * rel_se:
            errors.append(f"[budget] pooled pre-cal {name} sigma {pre * 1e12:.4f} ps against"
                          f" the {budget * 1e12:g} ps budget ({pre / expected - 1:+.2%},"
                          f" tolerance {Z * rel_se:.2%})")
        if not post <= post_bound:
            errors.append(f"[c09] pooled post-cal {name} sigma {post * 1e12:.4f} ps"
                          f" > {post_bound * 1e12:g} ps")
    for column in (c.strip() for c in cfg["dac.histogram_columns"].split(",")):
        errors += _histogram(os.path.join(out_dir, f"hist_{column}.csv"), "s",
                             _bins(cfg), v[column])
    return errors


HEAL_COLUMNS = ("sample_id", "healed", "restarts", "pre_inl_max", "post_inl_max",
                "pre_dnl_max", "post_dnl_max")


def check_self_heal(cmd: Command, out_dir: str, oracles: Oracles, facts: dict) -> list[str]:
    cfg = read_config(cmd.config)
    v = _yield_values(cmd, out_dir, HEAL_COLUMNS)
    errors = []
    healed = v["healed"] == 1.0
    if not np.all(healed | (v["healed"] == 0.0)):
        errors.append("[healed] healed column holds values other than 0 and 1")
    finite = np.isfinite(v["post_inl_max"]) & np.isfinite(v["post_dnl_max"])
    if not np.array_equal(healed, finite):
        errors.append("[healed] healed = 1 does not coincide with a finite post-heal INL/DNL")
    rate = float(np.mean(healed))
    floor = 0.99 - Z * math.sqrt(0.99 * 0.01 / cmd.samples)
    if rate < floor:
        errors.append(f"[heal-rate] heal rate {rate:.3f} < {floor:.3f}")
    if healed.any():
        median = float(np.median(v["post_inl_max"][healed]))
        if median > 1.0:
            errors.append(f"[c10] healed INL_max median {median:.3f} LSB > 1 LSB")
        errors += _histogram(os.path.join(out_dir, cfg["figure.id"] + ".csv"), "lsb",
                             _bins(cfg), v["post_inl_max"][healed])
    with open(os.path.join(out_dir, "selfheal_trace.json"), encoding="utf-8") as handle:
        trace = json.load(handle)
    sample = int(cfg.get("dac.trace_sample", "0"))
    if (trace["sample_id"] != sample
            or (trace["outcome"] == "healed") != bool(healed[sample])
            or trace["toplevel_restarts"] != v["restarts"][sample]
            or len(trace["attempts"]) != v["restarts"][sample] + 1):
        errors.append(f"[trace] selfheal_trace.json disagrees with row {sample} of yield_rows.csv")
    return errors


# ---------------------------------------------------------------------------
# mixer
# ---------------------------------------------------------------------------

HRR_COLUMNS = ("f_hz", "n", "hrr_db", "phase")


def _hrr_table(cmd: Command, out_dir: str, f_list: list[float], harmonics: list[int]):
    cfg = read_config(cmd.config)
    rows = _rows(os.path.join(out_dir, cfg["figure.id"] + ".csv"), HRR_COLUMNS,
                 2 * len(f_list) * len(harmonics))
    expected = [(f, n, phase) for phase in ("pre", "post") for f in f_list for n in harmonics]
    table = {}
    for row, (f, n, phase) in zip(rows, expected):
        if not (_close(float(row[0]), f) and int(row[1]) == n and row[3] == phase):
            raise ValueError(f"[rows] row {row} where ({f:g}, {n}, {phase}) belongs")
        table[(f, n, phase)] = float(row[2])
    return table


def check_hr_calibrate(cmd: Command, out_dir: str, oracles: Oracles, facts: dict) -> list[str]:
    cfg = read_config(cmd.config)
    f0 = float(cfg["hr.f0"])
    table = _hrr_table(cmd, out_dir, floats(cfg.get("hr.f_list", "")) or [f0],
                       [int(h) for h in floats(cfg["hr.harmonics"])])
    errors = []
    if table[(f0, 2, "post")] < table[(f0, 2, "pre")] - 1e-9:
        errors.append(f"[hrr2] HRR2 at f0 fell from {table[(f0, 2, 'pre')]:.3f} to"
                      f" {table[(f0, 2, 'post')]:.3f} dB")
    with open(os.path.join(out_dir, "hr_calibration.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    for order in ("even", "odd"):
        for step in report[order]["trace"]:
            if not step["objective_after"] <= step["objective_before"]:
                errors.append(f"[objective] {order} step {step['target']}: objective"
                              f" {step['objective_before']!r} -> {step['objective_after']!r}")
    facts["hrr35"] = (table[(f0, 3, "post")], table[(f0, 5, "post")])
    return errors


def check_hr_sweep(cmd: Command, out_dir: str, oracles: Oracles, facts: dict) -> list[str]:
    cfg = read_config(cmd.config)
    f0 = float(cfg["hr.f0"])
    f_list = floats(cfg["hr.f_list"])
    table = _hrr_table(cmd, out_dir, f_list, [int(h) for h in floats(cfg["hr.harmonics"])])
    errors = [f"[rows] HRR {value!r} dB at {key} outside (0, 300]"
              for key, value in table.items() if not 0.0 < value <= 300.0]
    facts["hrr35"] = (table[(f0, 3, "post")], table[(f0, 5, "post")])
    return errors


def check_round(facts: list[dict]) -> list[str]:
    """Checks over a whole round: c06's receiver population for the mixer."""
    pairs = [f["hrr35"] for f in facts if "hrr35" in f]
    if not pairs:
        return []
    passing = sum(1 for h3, h5 in pairs if h3 >= 70.0 and h5 >= 70.0)
    if passing < 0.9 * len(pairs):
        return [f"[c06] {passing} of {len(pairs)} receivers reach 70 dB on both HRR3 and"
                f" HRR5 at f0 (at least 90 % must)"]
    return []


CHECKS = {
    "failure-rate": check_failure_rate,
    "rcal-frontier": check_frontier,
    "a-sweep": check_a_sweep,
    "yield-eses": check_amplitude,
    "yield-ses": check_amplitude,
    "yield-timing": check_timing,
    "self-heal": check_self_heal,
    "hr-calibrate": check_hr_calibrate,
    "hr-sweep": check_hr_sweep,
}


def check_command(cmd: Command, out_dir: str, oracles: Oracles) -> tuple[list[str], dict]:
    facts: dict = {}
    errors: list[str] = []
    for check in (lambda: check_manifest(out_dir),
                  lambda: CHECKS[cmd.kind](cmd, out_dir, oracles, facts)):
        try:
            errors += check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            text = str(err)
            errors.append(text if text.startswith("[") else f"[unreadable] {type(err).__name__}: {text}")
    return errors, facts
