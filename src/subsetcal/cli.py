"""Command-line entry points for the simulation studies.

Layout::

    subsetcal study failure-rate | rcal-frontier | a-sweep
    subsetcal hr    simulate | calibrate | sweep
    subsetcal dac   yield | self-heal | sense

Every subcommand takes one path (``_run``): it reads an optional flat
key=value config file (keys carry section prefixes such as ``study.samples``;
unknown keys are rejected by name), applies the --seed/--samples overrides,
runs the study, and emits CSV/JSON artifacts plus a ``manifest.json`` under
--out.  They are written beside --out and then moved in, the manifest last,
so a present manifest means a complete run.

--threads sets how many worker processes (this one included) share the rows
of ``dac yield`` and ``dac self-heal`` and the sample blocks of every study a
``study`` command runs; the mixer commands run one receiver.  Output bytes are
independent of --threads: parallel work is split by sample index over
per-index random substreams and reassembled in canonical order.

Exit codes: 0 success, 2 configuration error, 3 infeasible or degenerate
study, 1 I/O failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import shutil
import sys
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .csdac import (
    DEFAULT_SUB_SCHEME,
    DacConfig,
    SENSE_MODES,
    SelfHealConfig,
    SensingConfig,
    YIELD_FLOWS,
    _FLOW_COLUMNS,
    calibrate_amplitude_eses,
    linearity,
    sample_dac,
    sample_selfheal,
    self_heal_ses,
    sense_readings,
    uniform_comparison_config,
    yield_study,
)
from .hrmixer import (
    MAX_ITERATIONS,
    PATH_BRANCHES,
    HrConfig,
    calibrate_even_order,
    calibrate_odd_order,
    sample_receiver,
    sweep_hrr,
)
from .mismatch import (
    Arithmetic,
    ConfigError,
    DegenerateConfigurationError,
    MismatchModel,
    check_array_bytes,
    check_nk,
)
from .reporting import FigureDataset, RunManifest, emit_figure, emit_json, write_manifest
from .runner import sample_substream
from .studies import (
    STUDY_CSV_COLUMNS,
    FixedOffset,
    GaussianOffset,
    InfeasibleStudyError,
    StudyConfig,
    a_eses_sweep,
    rcal_frontier,
    run_studies,
    study_csv_rows,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config files: flat key=value with section prefixes
# ---------------------------------------------------------------------------


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    if value == 0.0:
        return 0.0  # -0.0 reads as 0.0: numpy refuses a sigma of -0.0
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    return tuple(_parse_float(p) for p in parts if p)


def _parse_ints(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    return tuple(int(p) for p in parts if p)


def _parse_float_triple(text: str) -> tuple[float, float, float]:
    values = _parse_floats(text)
    if len(values) != 3:
        raise ValueError(f"needs three values, got {len(values)}")
    return values


def _load_config(path: Optional[str]) -> dict[str, str]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


Schema = dict[str, tuple[Callable[[str], object], object]]


def _resolve(schema: Schema, raw: dict[str, str]) -> dict:
    unknown = sorted(key for key in raw if key not in schema)
    if unknown:
        raise ConfigError(
            "unknown config keys: " + ", ".join(unknown)
            + " (known: " + ", ".join(sorted(schema)) + ")"
        )
    resolved: dict = {}
    for key, (parse, default) in schema.items():
        if key in raw:
            try:
                resolved[key] = parse(raw[key])
            except (ValueError, TypeError) as err:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({err})")
        else:
            resolved[key] = default
    return resolved


# parser of each config-dataclass field type a key can map to
_FIELD_PARSERS = {
    "int": int,
    "float": _parse_float,
    "Optional[float]": _parse_float,
    "tuple[float, float, float]": _parse_float_triple,
}


def _field_schema(cls: type, keys: dict[str, str]) -> Schema:
    """Config key -> (parser, default) for the dataclass fields ``keys`` names."""
    fields = {field.name: field for field in dataclasses.fields(cls)}
    return {
        key: (_FIELD_PARSERS[fields[name].type], fields[name].default)
        for key, name in keys.items()
    }


def _field_values(cfg: dict, keys: dict[str, str]) -> dict:
    return {name: cfg[key] for key, name in keys.items()}


_DAC_FIELDS = {f"dac.{name}": name for name in (
    "resolution", "msb_bits", "lsb_bits", "ucc_nominal", "sub_sigma",
    "lsb_sigma_factor", "delay_sigma", "duty_sigma", "n", "k",
)}
_HEAL_FIELDS = {f"heal.{name}": name for name in (
    "n", "k", "sub_nominal", "ucc_sigma", "i_tiny", "cell_trial_limit",
    "toplevel_trial_limit", "backup_ucc_count", "bias_step", "bias_rel_sigma",
    "msb_bits", "lsb_bits", "lsb_sigma_factor",
)}
_HR_FIELDS = {"hr.n": "n_elements", "hr.k": "k_selected", **{f"hr.{name}": name for name in (
    "f0", "f_low", "element_rel_sigma", "gain_sigma", "clock_delay_sigma",
    "diff_phase_sigma", "weights",
)}}


def _offset_spec(kind: str, value: float):
    if kind == "fixed":
        return FixedOffset(value)
    if kind == "gaussian":
        return GaussianOffset(value)
    raise ConfigError(f"offset kind must be 'fixed' or 'gaussian', got {kind!r}")


# What a builder hands back: the figure datasets, extra JSON files by name,
# and the summary line.
Output = tuple[list[FigureDataset], dict[str, dict], str]


# ---------------------------------------------------------------------------
# study subcommands
# ---------------------------------------------------------------------------

_STUDY_SCHEMA: Schema = {
    "study.n": (int, 12),
    "study.k": (int, 6),
    "study.seed": (int, 1),
}
_STUDY_MODEL_SCHEMA: Schema = {
    "study.center": (_parse_float, 1.0),
    "study.rel_sigma": (_parse_float, 0.01),
}


def _study(cfg: dict, **fields) -> StudyConfig:
    """The study the ``study.*`` keys describe, with ``fields`` on top."""
    center = cfg["study.center"]
    return StudyConfig(
        n=cfg["study.n"], k=cfg["study.k"],
        model=MismatchModel(cfg["study.rel_sigma"] * center, center),
        samples=cfg["study.samples"], master_seed=cfg["study.seed"],
        **fields,
    )


def _study_dataset(cfg: dict, rows: list[tuple], series: list[str], **meta) -> FigureDataset:
    """Failure rate per width of every study in ``rows``."""
    return FigureDataset(cfg["figure.id"], STUDY_CSV_COLUMNS, tuple(rows), meta={
        "x": "width_over_sigmak", "y": "failure_rate", "series": series,
        "samples": cfg["study.samples"], **meta,
    })


def _failure_rate(cfg: dict, threads: int) -> Output:
    center = cfg["study.center"]
    uniform = _study(cfg, scheme=Arithmetic(center, 0.0), window_widths=cfg["study.widths"])
    offsets = [_offset_spec(cfg["study.offset_kind"], value) for value in cfg["study.offsets"]]
    jobs = [  # one shared study per d serves every offset
        (dataclasses.replace(uniform, scheme=Arithmetic(center, d * uniform.sigma_k_abs)), offsets)
        for d in cfg["study.d_list"]
    ]
    rows = [
        row for results in run_studies(jobs, threads) for result in results
        for row in study_csv_rows(result)
    ]
    dataset = _study_dataset(cfg, rows, ["method", "d_eses", "offset_kind", "sigma_T"])
    n_series = len(cfg["study.d_list"]) * len(cfg["study.offsets"])
    return [dataset], {}, (
        f"failure-rate: {n_series} series x {len(cfg['study.widths'])} widths"
        f" at {cfg['study.samples']} samples -> {dataset.figure_id}.csv"
    )


def _rcal_frontier(cfg: dict, threads: int) -> Output:
    widths = cfg["frontier.width_grid"]
    entries = rcal_frontier(
        _study(cfg, scheme=Arithmetic(cfg["study.center"], 0.0), window_widths=widths),
        cfg["frontier.sigma_t_list"], cfg["frontier.d_candidates"], widths,
        yield_floor=cfg["frontier.yield_floor"], threads=threads,
    )
    feasible = [entry for entry in entries if entry.feasible]
    if not feasible:
        raise InfeasibleStudyError(
            "no (d, width) candidate meets the yield floor at any sigma_T"
        )
    dataset = FigureDataset(
        cfg["figure.id"],
        ("sigma_T_over_sigmak", "best_rcal", "d_eses", "width"),
        tuple((e.sigma_t, e.best_rcal, e.d_eses, e.width) for e in entries),
        meta={"yield_floor": cfg["frontier.yield_floor"], "samples": cfg["study.samples"],
              "infeasible_rows_have_empty_fields": True},
    )
    return [dataset], {}, (
        f"rcal-frontier: {len(feasible)}/{len(entries)} sigma_T points feasible;"
        f" best R_cal {max(e.best_rcal for e in feasible):.4g}"
        f" -> {dataset.figure_id}.csv"
    )


def _a_sweep(cfg: dict, threads: int) -> Output:
    check_nk(cfg["study.n"], cfg["study.k"])  # before sqrt(k) below
    step_abs = cfg["sweep.step_abs"]
    if step_abs is None:
        # default: a quarter of sigma_k, held absolute across the sweep
        step_abs = math.sqrt(cfg["study.k"]) * cfg["sweep.center_sigma"] / 4.0
        cfg["sweep.step_abs"] = step_abs
    results = a_eses_sweep(
        cfg["sweep.a_values"], step_abs, cfg["sweep.widths"],
        _offset_spec(cfg["sweep.offset_kind"], cfg["sweep.offset"]),
        n=cfg["study.n"], k=cfg["study.k"], center_sigma=cfg["sweep.center_sigma"],
        samples=cfg["study.samples"], master_seed=cfg["study.seed"], threads=threads,
    )
    rows = [row for _, result in results for row in study_csv_rows(result)]
    dataset = _study_dataset(cfg, rows, ["a_eses"], step_abs=step_abs)
    return [dataset], {}, (
        f"a-sweep: {len(results)} center sizes x {len(cfg['sweep.widths'])} widths"
        f" at fixed step {step_abs:.4g} -> {dataset.figure_id}.csv"
    )


# ---------------------------------------------------------------------------
# hr subcommands
# ---------------------------------------------------------------------------


def _hr_schema(figure_id: str, harmonics: tuple[int, ...]) -> Schema:
    return {
        "figure.id": (str, figure_id),
        **_field_schema(HrConfig, _HR_FIELDS),
        "hr.seed": (int, 1),
        "hr.path": (str, "I"),
        "hr.harmonics": (_parse_ints, harmonics),
        "hr.f_list": (_parse_floats, ()),
        "hr.iterations": (int, 2),
    }


_HRR_COLUMNS = ("f_hz", "n", "hrr_db", "phase")


def _check_hr_keys(cfg: dict) -> None:
    """The ``hr.*`` keys that are not ``HrConfig`` fields, checked before a
    receiver is drawn."""
    if cfg["hr.path"] not in PATH_BRANCHES:
        raise ConfigError(f"hr.path must be 'I' or 'Q', got {cfg['hr.path']!r}")
    harmonics = cfg["hr.harmonics"]
    if not harmonics or min(harmonics) < 2:
        raise ConfigError(f"hr.harmonics must be indices >= 2, got {list(harmonics)}")
    if cfg["hr.iterations"] < 1:
        raise ConfigError(f"hr.iterations must be >= 1, got {cfg['hr.iterations']}")
    if cfg["hr.iterations"] > MAX_ITERATIONS:
        raise ConfigError(
            f"hr.iterations must be <= {MAX_ITERATIONS}, got {cfg['hr.iterations']}"
        )
    if any(f <= 0 for f in cfg["hr.f_list"]):
        raise ConfigError(f"hr.f_list must be frequencies > 0, got {list(cfg['hr.f_list'])}")


def _hr(command: str, cfg: dict, threads: int) -> Output:
    """Draw one receiver, table its HRR, and for ``calibrate`` and ``sweep``
    calibrate it and table the HRR again."""
    _check_hr_keys(cfg)
    receiver = sample_receiver(
        HrConfig(**_field_values(cfg, _HR_FIELDS)), sample_substream(cfg["hr.seed"], 0)
    )
    f0, path, harmonics = cfg["hr.f0"], cfg["hr.path"], cfg["hr.harmonics"]
    sweep = tuple(f0 * x / 10.0 for x in range(1, 11)) if command == "sweep" else (f0,)
    f_list = cfg["hr.f_list"] or sweep

    def hrr_rows(phase: str) -> list[tuple]:
        points = sweep_hrr(receiver, f_list, harmonics, path)
        return [(point.f_hz, point.n, point.hrr_db, phase) for point in points]

    rows = hrr_rows("pre")
    meta = {"path": path, "seed": cfg["hr.seed"]}
    extra: dict[str, dict] = {}
    if command == "simulate":
        worst = min(row[2] for row in rows)
        summary = f"hr simulate: {len(rows)} HRR points, worst {worst:.2f} dB"
    else:
        receiver, even_report = calibrate_even_order(receiver)
        receiver, odd_report = calibrate_odd_order(receiver, iterations=cfg["hr.iterations"])
        post_rows = hrr_rows("post")
        rows += post_rows
        post = [row[2] for row in post_rows]
        if command == "calibrate":
            meta["iterations"] = cfg["hr.iterations"]
            extra["hr_calibration.json"] = {
                "even": even_report.to_json_dict(), "odd": odd_report.to_json_dict()
            }
            summary = (
                f"hr calibrate: worst post-cal HRR {min(post):.2f} dB over n in"
                f" {list(harmonics)}"
            )
        else:
            meta["f0"] = f0
            summary = (
                f"hr sweep: {len(f_list)} frequencies, median post HRR"
                f" {sorted(post)[len(post) // 2]:.2f} dB"
            )
    dataset = FigureDataset(cfg["figure.id"], _HRR_COLUMNS, tuple(rows), meta=meta)
    return [dataset], extra, f"{summary} -> {dataset.figure_id}.csv"


# ---------------------------------------------------------------------------
# dac subcommands
# ---------------------------------------------------------------------------

_HEAL_SCHEMA: Schema = {
    **_field_schema(SelfHealConfig, _HEAL_FIELDS),
    "dac.seed": (int, 1),
    "dac.bins": (int, 60),
}


def _dac_config(cfg: dict) -> DacConfig:
    """The converter config: its n sub-currents are graded by ``dac.sub_step``
    around ``dac.sub_center`` (step 0 is equal sizing)."""
    scheme = Arithmetic(cfg["dac.sub_center"], cfg["dac.sub_step"])
    return DacConfig(ucc_sub_scheme=scheme, **_field_values(cfg, _DAC_FIELDS))


def _yield_datasets(study, columns: Sequence[str], figure_id: str) -> list[FigureDataset]:
    """The per-sample rows, then a histogram of each of ``columns`` that has
    finite values; a single histogram takes ``figure_id`` when it is set."""
    meta = {"flow": study.flow, "summary": study.summary}
    out = [FigureDataset("yield_rows", study.columns, study.rows, meta=meta)]
    units = "s" if study.flow == "timing" else "lsb"
    header = (f"bin_left_{units}", f"bin_right_{units}", "count")
    for column in columns:
        if column not in study.histograms:
            continue  # no finite values to bin
        counts, edges = study.histograms[column]
        bins = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
        out.append(FigureDataset(
            figure_id if len(columns) == 1 and figure_id else f"hist_{column}",
            header,
            tuple(bins),
            meta={"column": column, "flow": study.flow,
                  "percentiles": study.percentiles.get(column, {})},
        ))
    return out


def _hist_columns(flow: str, selector: str) -> list[str]:
    """The flow's columns that ``selector`` names; checked before the study runs."""
    available = _FLOW_COLUMNS[flow]
    if selector == "none":
        return []
    if selector in ("", "all"):
        return [c for c in available if c != "sample_id"]
    columns = [c.strip() for c in selector.split(",") if c.strip()]
    bad = sorted(set(columns) - set(available))
    if bad:
        raise ConfigError(
            "unknown histogram columns: " + ", ".join(bad)
            + " (available: " + ", ".join(available[1:]) + ")"
        )
    return columns


def _yield(cfg: dict, config, flow: str, threads: int, figure_id: str):
    """Check the histogram columns, run the yield study and table it."""
    columns = _hist_columns(flow, cfg["dac.histogram_columns"])
    study = yield_study(
        config, cfg["dac.samples"], flow,
        master_seed=cfg["dac.seed"], threads=threads, bins=cfg["dac.bins"],
    )
    return study, _yield_datasets(study, columns, figure_id)


def _dac_yield(cfg: dict, threads: int) -> Output:
    flow = cfg["dac.flow"]
    if flow not in YIELD_FLOWS:
        raise ConfigError(f"dac.flow must be one of {YIELD_FLOWS}, got {flow!r}")
    if flow == "self-heal":
        config = SelfHealConfig(**_field_values(cfg, _HEAL_FIELDS))
    else:
        config = _dac_config(cfg)
    dump = cfg["dac.dump_sample"]
    if dump >= 0:
        if flow not in ("eses", "ses"):
            raise ConfigError("dac.dump_sample needs an amplitude flow (eses or ses)")
        if dump >= cfg["dac.samples"]:
            raise ConfigError(
                f"dac.dump_sample {dump} out of range for {cfg['dac.samples']} samples"
            )
        check_array_bytes("the transfer curve", (config.n_codes,))
    study, datasets = _yield(cfg, config, flow, threads, cfg["figure.id"] if dump < 0 else "")
    if dump >= 0:
        run_config = uniform_comparison_config(config) if flow == "ses" else config
        sample = sample_dac(run_config, sample_substream(cfg["dac.seed"], dump))
        calibrated = dataclasses.replace(sample, amplitude_selection=calibrate_amplitude_eses(
            sample.amplitude, sample.reference_current, run_config.k
        ))
        rows = []
        for phase, state in (("pre", sample), ("post", calibrated)):
            report = linearity(state)
            pairs = zip(report.inl.tolist(), report.dnl.tolist())
            rows += [(code, phase, inl, dnl) for code, (inl, dnl) in enumerate(pairs)]
        datasets.append(FigureDataset(
            cfg["figure.id"] or "linearity_dump", ("code", "phase", "inl_lsb", "dnl_lsb"),
            tuple(rows), meta={"sample_id": dump, "flow": flow},
        ))
    if flow == "self-heal":
        note = f"heal success {study.summary['heal_success_rate']:.4f}"
    elif flow == "timing":
        note = (
            f"post delay sigma {study.summary['post_delay_sigma_pooled']:.3g} s,"
            f" post duty sigma {study.summary['post_duty_sigma_pooled']:.3g} s"
        )
    else:  # a column with no finite value has no percentiles
        p99 = study.percentiles.get("post_inl_max", {}).get("p99", math.nan)
        note = f"post INL p99 {p99:.3g} LSB"
    return datasets, {}, (
        f"dac yield ({flow}): {cfg['dac.samples']} samples, {note} -> yield_rows.csv"
    )


def _dac_self_heal(cfg: dict, threads: int) -> Output:
    config = SelfHealConfig(**_field_values(cfg, _HEAL_FIELDS))
    trace_sample = cfg["dac.trace_sample"]
    if not 0 <= trace_sample < cfg["dac.samples"]:
        raise ConfigError(
            f"dac.trace_sample {trace_sample} out of range for"
            f" {cfg['dac.samples']} samples"
        )
    study, datasets = _yield(cfg, config, "self-heal", threads, cfg["figure.id"])
    # replay the traced sample exactly as the study ran it
    rng = sample_substream(cfg["dac.seed"], trace_sample)
    result = self_heal_ses(sample_selfheal(config, rng), rng)
    return datasets, {"selfheal_trace.json": {"sample_id": trace_sample, **result.trace}}, (
        f"dac self-heal: success {study.summary['heal_success_rate']:.4f} over"
        f" {cfg['dac.samples']} samples; trace of sample {trace_sample}"
        f" -> selfheal_trace.json"
    )


#: points of a ``dac sense`` sweep read in one array pass (about 8 MB)
_SENSE_CHUNK = 1024
#: bytes each of a ``dac sense`` run's (3 error kinds, points, 3 modes)
#: readings takes at the peak, a quarter above the 198 B that tracemalloc
#: reads at 216 000 and 864 000 readings (CPython 3.11, numpy 2.4)
_SENSE_READING_BYTES = 250


def _dac_sense(cfg: dict, threads: int) -> Output:
    sensing = SensingConfig(cfg["sense.f_meas"], cfg["sense.gain"])
    amplitude = cfg["sense.amplitude"]
    if amplitude <= 0:
        raise ConfigError(f"sense.amplitude must be > 0, got {amplitude}")
    points = cfg["sense.points"]
    if points < 2:
        raise ConfigError(f"sense.points must be >= 2, got {points}")
    check_array_bytes("the sense sweep", (3, points, len(SENSE_MODES)), _SENSE_READING_BYTES)
    timing_max = cfg["sense.timing_error_max"]
    if timing_max is None:
        timing_max = 1.0 / cfg["sense.f_meas"] / 1000.0
        cfg["sense.timing_error_max"] = timing_max
    spans = (cfg["sense.amplitude_error_max"] * amplitude, timing_max, timing_max)
    for kind, span in zip(SENSE_MODES, spans):
        if not math.isfinite(2.0 * span):
            raise ConfigError(f"the {kind} sweep from {-span:g} to {span:g} has no finite width")

    def readings(errors):  # (3 kinds, points): +half on a cell, -half on its reference
        split = np.eye(3)[:, :, None, None] * np.multiply.outer(errors / 2.0, (1.0, -1.0))
        return sense_readings(amplitude + split[0], split[1], split[2], sensing)

    readings(np.array([(-span, span) for span in spans]))  # the cell checks, at the ends
    errors = np.array([np.linspace(-span, span, points) for span in spans])
    sweep = np.empty((3, points, len(SENSE_MODES)))
    for start in range(0, points, _SENSE_CHUNK):
        sweep[:, start : start + _SENSE_CHUNK] = readings(errors[:, start : start + _SENSE_CHUNK])
    rows = [
        (mode, kind, value, reading)
        for kind, values, read in zip(SENSE_MODES, errors.tolist(), sweep.tolist())
        for value, point in zip(values, read)
        for mode, reading in zip(SENSE_MODES, point)
    ]
    dataset = FigureDataset(
        cfg["figure.id"],
        ("mode", "error_kind", "error_value", "output_v"),
        tuple(rows),
        meta={"f_meas": cfg["sense.f_meas"], "gain": cfg["sense.gain"],
              "amplitude": amplitude, "points": points},
    )
    return [dataset], {}, (
        f"dac sense: {len(rows)} readings over {points}-point sweeps"
        f" -> {dataset.figure_id}.csv"
    )


# ---------------------------------------------------------------------------
# the command table, the one command path and the entry point
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    """One subcommand: its config keys, which of them --seed and --samples
    override (None: no such flag), what it runs and its help."""

    schema: Schema
    seed_key: Optional[str]
    samples_key: Optional[str]
    build: Callable[[dict, int], Output]
    help: str


_COMMANDS = {
    "study failure-rate": _Command(
        {
            "figure.id": (str, "failure_rate"),
            **_STUDY_SCHEMA,
            **_STUDY_MODEL_SCHEMA,
            "study.samples": (int, 100_000),
            "study.widths": (
                _parse_floats, (0.0025, 0.005, 0.01, 0.02, 0.04, 0.07, 0.1, 0.15, 0.2)
            ),
            "study.d_list": (_parse_floats, (0.0,)),
            "study.offset_kind": (str, "fixed"),
            "study.offsets": (_parse_floats, (0.0,)),
        },
        "study.seed", "study.samples", _failure_rate,
        "calibration failure rate vs window width",
    ),
    "study rcal-frontier": _Command(
        {
            "figure.id": (str, "rcal_frontier"),
            **_STUDY_SCHEMA,
            **_STUDY_MODEL_SCHEMA,
            "study.samples": (int, 20_000),
            "frontier.sigma_t_list": (
                _parse_floats, (1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0)
            ),
            "frontier.d_candidates": (
                _parse_floats, (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0)
            ),
            "frontier.width_grid": (
                _parse_floats, (0.03, 0.05, 0.07, 0.1, 0.14, 0.2, 0.3, 0.45, 0.7, 1.0)
            ),
            "frontier.yield_floor": (_parse_float, 0.99),
        },
        "study.seed", "study.samples", _rcal_frontier,
        "best resolution ratio vs offset spread",
    ),
    "study a-sweep": _Command(
        {
            "figure.id": (str, "a_sweep"),
            **_STUDY_SCHEMA,
            "study.samples": (int, 100_000),
            "sweep.a_values": (_parse_floats, (1.0, 0.5, 0.25, 0.125, 0.0625)),
            "sweep.center_sigma": (_parse_float, 0.01),
            "sweep.step_abs": (_parse_float, None),
            "sweep.widths": (_parse_floats, (0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2)),
            "sweep.offset_kind": (str, "fixed"),
            "sweep.offset": (_parse_float, 0.0),
        },
        "study.seed", "study.samples", _a_sweep,
        "shrinking center size at fixed absolute step",
    ),
    "hr simulate": _Command(
        _hr_schema("hr_simulate", (2, 3, 4, 5, 6)), "hr.seed", None,
        functools.partial(_hr, "simulate"), "draw one receiver and table its HRR",
    ),
    "hr calibrate": _Command(
        _hr_schema("hr_calibration", (2, 3, 4, 5, 6)), "hr.seed", None,
        functools.partial(_hr, "calibrate"), "even+odd order calibration of one receiver",
    ),
    "hr sweep": _Command(
        _hr_schema("hr_sweep", (3, 5)), "hr.seed", None,
        functools.partial(_hr, "sweep"), "post-calibration HRR vs frequency",
    ),
    "dac yield": _Command(
        {
            "figure.id": (str, ""),
            **_field_schema(DacConfig, _DAC_FIELDS),
            "dac.sub_center": (_parse_float, DEFAULT_SUB_SCHEME.mean),
            "dac.sub_step": (_parse_float, DEFAULT_SUB_SCHEME.step),
            **_HEAL_SCHEMA,
            "dac.flow": (str, "eses"),
            "dac.samples": (int, 10_000),
            "dac.histogram_columns": (str, "all"),
            "dac.dump_sample": (int, -1),
        },
        "dac.seed", "dac.samples", _dac_yield, "Monte Carlo linearity yield",
    ),
    "dac self-heal": _Command(
        {
            "figure.id": (str, "self_heal"),
            **_HEAL_SCHEMA,
            "dac.samples": (int, 1_000),
            "dac.trace_sample": (int, 0),
            "dac.histogram_columns": (str, "post_inl_max"),
        },
        "dac.seed", "dac.samples", _dac_self_heal, "window-search healing study plus trace",
    ),
    "dac sense": _Command(
        {
            "figure.id": (str, "sense_sweep"),
            "sense.f_meas": (_parse_float, 400e6),
            "sense.gain": (_parse_float, 1.0),
            "sense.amplitude": (_parse_float, 312e-6),
            "sense.points": (int, 10),
            "sense.amplitude_error_max": (_parse_float, 0.02),
            "sense.timing_error_max": (_parse_float, None),
        },
        # the sweep is deterministic: it takes no --seed or --samples
        None, None, _dac_sense, "error-sensing transfer sweep",
    ),
}

_GROUPS = {
    "study": "redundancy statistics studies",
    "hr": "harmonic-rejection receiver studies",
    "dac": "segmented-converter studies",
}


def _finish(
    manifest: RunManifest, datasets: Sequence[FigureDataset], extra_json: dict[str, dict]
) -> None:
    """Write every artifact into a new directory beside --out, then make that
    directory --out or, if --out exists, move the artifacts in with the
    manifest last: --out gains a run's files all together or not at all."""
    names = [f"{d.figure_id}{ext}" for d in datasets for ext in (".csv", ".meta.json")]
    names += list(extra_json)
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise ConfigError("two artifacts would both be written to " + ", ".join(clashes))
    out = manifest.out_dir
    parent, stem = os.path.split(os.path.abspath(out))
    if not os.path.isdir(parent):
        os.makedirs(parent)
    staging = os.path.join(parent, f".{stem}.{os.urandom(6).hex()}")
    os.mkdir(staging)
    try:
        paths = [path for dataset in datasets for path in emit_figure(dataset, staging)]
        for name, payload in extra_json.items():
            paths.append(emit_json(payload, os.path.join(staging, name)))
        paths.append(write_manifest(manifest, paths, staging))
        if not os.path.isdir(out):
            os.rename(staging, out)
            return
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out, "manifest.json"))
        for path in paths:
            os.replace(path, os.path.join(out, os.path.basename(path)))
        os.rmdir(staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _run(args: argparse.Namespace) -> None:
    """Resolve the config, fold in the overrides, build, and write the run."""
    threads = args.threads
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    subcommand = f"{args.group} {args.command}"
    command = _COMMANDS[subcommand]
    cfg = _resolve(command.schema, _load_config(args.config))
    overrides: dict = {}
    if command.seed_key is not None:
        if args.seed is not None:
            cfg[command.seed_key] = overrides["seed"] = args.seed
        if cfg[command.seed_key] < 0:  # a SeedSequence takes no negative entropy
            raise ConfigError(f"{command.seed_key} must be >= 0, got {cfg[command.seed_key]}")
    if command.samples_key is not None and args.samples is not None:
        if args.samples < 1:
            raise ConfigError(f"--samples must be >= 1, got {args.samples}")
        cfg[command.samples_key] = overrides["samples"] = args.samples
    if getattr(args, "flow", None) is not None:
        cfg["dac.flow"] = overrides["flow"] = args.flow
    datasets, extra_json, summary = command.build(cfg, threads)
    manifest = RunManifest(
        subcommand=subcommand,
        config={k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
        overrides=overrides,
        master_seed=cfg[command.seed_key] if command.seed_key else 0,
        samples=cfg[command.samples_key] if command.samples_key else None,
        threads=threads,
        out_dir=args.out,
    )
    _finish(manifest, datasets, extra_json)
    if not args.quiet:
        print(summary)


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetcal",
        description="Deterministic subset-selection calibration studies.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    commands = {
        group: groups.add_parser(group, help=help_text).add_subparsers(
            dest="command", required=True
        )
        for group, help_text in _GROUPS.items()
    }
    for subcommand, command in _COMMANDS.items():
        group, name = subcommand.split()
        sub = commands[group].add_parser(name, help=command.help)
        sub.add_argument("--config", help="flat key=value config file")
        sub.add_argument("--out", default="out", help="output directory (default: out)")
        if command.seed_key is not None:
            sub.add_argument("--seed", type=int, help="master seed override")
        if command.samples_key is not None:
            sub.add_argument("--samples", type=int, help="sample-count override")
        sub.add_argument(
            "--threads", type=int, default=1,
            help="worker processes, this one included, for the rows of dac yield and"
            " dac self-heal and the sample blocks of the study commands (at most the"
            " rows or blocks and the usable cores)",
        )
        sub.add_argument("--quiet", action="store_true", help="suppress the summary line")
        if subcommand == "dac yield":
            sub.add_argument("--flow", choices=YIELD_FLOWS, help="study flow override")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already printed usage/help
        code = exit_.code
        return code if isinstance(code, int) else 2
    try:
        _run(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (InfeasibleStudyError, DegenerateConfigurationError) as err:
        print(f"infeasible study: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # _finish already removed anything it staged
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
