"""Command-line entry points for the simulation studies.

Layout::

    subsetcal study failure-rate | rcal-frontier | a-sweep
    subsetcal hr    simulate | calibrate | sweep
    subsetcal dac   yield | self-heal | sense

Every subcommand reads an optional flat key=value config file (keys carry
section prefixes such as ``study.samples``; unknown keys are rejected by
name), applies the --seed/--samples overrides, runs the study, and emits
CSV/JSON artifacts plus a ``manifest.json`` under --out.  Output bytes are
independent of --threads: parallel work is always split by sample index over
per-index random substreams and reassembled in canonical order.

Exit codes: 0 success, 2 configuration error, 3 infeasible or degenerate
study, 1 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .csdac import (
    DacConfig,
    SENSE_MODES,
    SelfHealConfig,
    SensedCell,
    SensingConfig,
    YIELD_FLOWS,
    _FLOW_COLUMNS,
    calibrate_amplitude_eses,
    linearity,
    sample_dac,
    sample_selfheal,
    self_heal_ses,
    sense_error,
    uniform_comparison_config,
    yield_study,
)
from .hrmixer import (
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
    Explicit,
    MismatchModel,
    Uniform,
    sigma_k,
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
    run_study,
    study_csv_rows,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config files: flat key=value with section prefixes
# ---------------------------------------------------------------------------


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_str(text: str) -> str:
    return text


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    return tuple(_parse_float(p) for p in parts if p)


def _parse_ints(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    return tuple(int(p) for p in parts if p)


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


def _apply_overrides(
    cfg: dict, args: argparse.Namespace, seed_key: str, samples_key: Optional[str]
) -> dict:
    """Fold --seed/--samples into the resolved config; report what changed."""
    overrides: dict = {}
    if args.seed is not None:
        cfg[seed_key] = args.seed
        overrides["seed"] = args.seed
    if samples_key is not None and args.samples is not None:
        if args.samples < 1:
            raise ConfigError(f"--samples must be >= 1, got {args.samples}")
        cfg[samples_key] = args.samples
        overrides["samples"] = args.samples
    return overrides


def _jsonable(cfg: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()}


def _finish(
    args: argparse.Namespace,
    subcommand: str,
    cfg: dict,
    overrides: dict,
    datasets: Sequence[FigureDataset],
    extra_json: dict[str, dict],
    seed: int,
    samples: Optional[int],
    summary: str,
) -> None:
    import os

    os.makedirs(args.out, exist_ok=True)
    paths: list[str] = []
    for dataset in datasets:
        paths.extend(emit_figure(dataset, args.out))
    for name, payload in extra_json.items():
        paths.append(emit_json(payload, os.path.join(args.out, name)))
    manifest = RunManifest(
        subcommand=subcommand,
        config=_jsonable(cfg),
        overrides=overrides,
        master_seed=seed,
        samples=samples,
        threads=args.threads,
        out_dir=args.out,
        artifacts={},
    )
    write_manifest(manifest, paths)
    if not args.quiet:
        print(summary)


def _offset_spec(kind: str, value: float):
    if kind == "fixed":
        return FixedOffset(value)
    if kind == "gaussian":
        return GaussianOffset(value)
    raise ConfigError(f"offset kind must be 'fixed' or 'gaussian', got {kind!r}")


# ---------------------------------------------------------------------------
# study subcommands
# ---------------------------------------------------------------------------

_FAILURE_RATE_SCHEMA: Schema = {
    "figure.id": (_parse_str, "failure_rate"),
    "study.n": (_parse_int, 12),
    "study.k": (_parse_int, 6),
    "study.center": (_parse_float, 1.0),
    "study.rel_sigma": (_parse_float, 0.01),
    "study.samples": (_parse_int, 100_000),
    "study.seed": (_parse_int, 1),
    "study.widths": (_parse_floats, (0.0025, 0.005, 0.01, 0.02, 0.04, 0.07, 0.1, 0.15, 0.2)),
    "study.d_list": (_parse_floats, (0.0,)),
    "study.offset_kind": (_parse_str, "fixed"),
    "study.offsets": (_parse_floats, (0.0,)),
}


def _cmd_failure_rate(args: argparse.Namespace) -> None:
    cfg = _resolve(_FAILURE_RATE_SCHEMA, _load_config(args.config))
    overrides = _apply_overrides(cfg, args, "study.seed", "study.samples")
    center = cfg["study.center"]
    model = MismatchModel(cfg["study.rel_sigma"] * center, center)
    sk = sigma_k(model, Uniform(center), cfg["study.k"])
    rows: list[tuple] = []
    for d in cfg["study.d_list"]:
        scheme = Arithmetic(center, d * sk) if d else Uniform(center)
        for value in cfg["study.offsets"]:
            study = StudyConfig(
                n=cfg["study.n"],
                k=cfg["study.k"],
                scheme=scheme,
                model=model,
                window_widths=cfg["study.widths"],
                offset=_offset_spec(cfg["study.offset_kind"], value),
                samples=cfg["study.samples"],
                master_seed=cfg["study.seed"],
            )
            rows.extend(study_csv_rows(run_study(study, threads=args.threads)))
    dataset = FigureDataset(
        cfg["figure.id"],
        STUDY_CSV_COLUMNS,
        tuple(rows),
        meta={
            "x": "width_over_sigmak",
            "y": "failure_rate",
            "series": ["method", "d_eses", "offset_kind", "sigma_T"],
            "samples": cfg["study.samples"],
        },
    )
    n_series = len(cfg["study.d_list"]) * len(cfg["study.offsets"])
    _finish(
        args, "study failure-rate", cfg, overrides, [dataset], {},
        cfg["study.seed"], cfg["study.samples"],
        f"failure-rate: {n_series} series x {len(cfg['study.widths'])} widths"
        f" at {cfg['study.samples']} samples -> {dataset.figure_id}.csv",
    )


_FRONTIER_SCHEMA: Schema = {
    "figure.id": (_parse_str, "rcal_frontier"),
    "study.n": (_parse_int, 12),
    "study.k": (_parse_int, 6),
    "study.center": (_parse_float, 1.0),
    "study.rel_sigma": (_parse_float, 0.01),
    "study.samples": (_parse_int, 20_000),
    "study.seed": (_parse_int, 1),
    "frontier.sigma_t_list": (_parse_floats, (1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0)),
    "frontier.d_candidates": (_parse_floats, (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)),
    "frontier.width_grid": (
        _parse_floats,
        (0.03, 0.05, 0.07, 0.1, 0.14, 0.2, 0.3, 0.45, 0.7, 1.0),
    ),
    "frontier.yield_floor": (_parse_float, 0.99),
}


def _cmd_rcal_frontier(args: argparse.Namespace) -> None:
    cfg = _resolve(_FRONTIER_SCHEMA, _load_config(args.config))
    overrides = _apply_overrides(cfg, args, "study.seed", "study.samples")
    center = cfg["study.center"]
    template = StudyConfig(
        n=cfg["study.n"],
        k=cfg["study.k"],
        scheme=Uniform(center),
        model=MismatchModel(cfg["study.rel_sigma"] * center, center),
        window_widths=cfg["frontier.width_grid"],
        samples=cfg["study.samples"],
        master_seed=cfg["study.seed"],
    )
    entries = rcal_frontier(
        template,
        cfg["frontier.sigma_t_list"],
        cfg["frontier.d_candidates"],
        cfg["frontier.width_grid"],
        yield_floor=cfg["frontier.yield_floor"],
        threads=args.threads,
    )
    if not any(entry.feasible for entry in entries):
        raise InfeasibleStudyError(
            "no (d, width) candidate meets the yield floor at any sigma_T"
        )
    rows = tuple(
        (entry.sigma_t, entry.best_rcal, entry.d_eses, entry.width)
        for entry in entries
    )
    dataset = FigureDataset(
        cfg["figure.id"],
        ("sigma_T_over_sigmak", "best_rcal", "d_eses", "width"),
        rows,
        meta={
            "yield_floor": cfg["frontier.yield_floor"],
            "samples": cfg["study.samples"],
            "infeasible_rows_have_empty_fields": True,
        },
    )
    feasible = [entry for entry in entries if entry.feasible]
    _finish(
        args, "study rcal-frontier", cfg, overrides, [dataset], {},
        cfg["study.seed"], cfg["study.samples"],
        f"rcal-frontier: {len(feasible)}/{len(entries)} sigma_T points feasible;"
        f" best R_cal {max(e.best_rcal for e in feasible):.4g}"
        f" -> {dataset.figure_id}.csv",
    )


_A_SWEEP_SCHEMA: Schema = {
    "figure.id": (_parse_str, "a_sweep"),
    "study.n": (_parse_int, 12),
    "study.k": (_parse_int, 6),
    "study.samples": (_parse_int, 100_000),
    "study.seed": (_parse_int, 1),
    "sweep.a_values": (_parse_floats, (1.0, 0.5, 0.25, 0.125, 0.0625)),
    "sweep.center_sigma": (_parse_float, 0.01),
    "sweep.step_abs": (_parse_float, None),
    "sweep.widths": (_parse_floats, (0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2)),
    "sweep.offset_kind": (_parse_str, "fixed"),
    "sweep.offset": (_parse_float, 0.0),
}


def _cmd_a_sweep(args: argparse.Namespace) -> None:
    cfg = _resolve(_A_SWEEP_SCHEMA, _load_config(args.config))
    overrides = _apply_overrides(cfg, args, "study.seed", "study.samples")
    step_abs = cfg["sweep.step_abs"]
    if step_abs is None:
        # default: a quarter of sigma_k, held absolute across the sweep
        step_abs = math.sqrt(cfg["study.k"]) * cfg["sweep.center_sigma"] / 4.0
        cfg["sweep.step_abs"] = step_abs
    results = a_eses_sweep(
        cfg["sweep.a_values"],
        step_abs,
        cfg["sweep.widths"],
        _offset_spec(cfg["sweep.offset_kind"], cfg["sweep.offset"]),
        n=cfg["study.n"],
        k=cfg["study.k"],
        center_sigma=cfg["sweep.center_sigma"],
        samples=cfg["study.samples"],
        master_seed=cfg["study.seed"],
    )
    rows: list[tuple] = []
    for _, result in results:
        rows.extend(study_csv_rows(result))
    dataset = FigureDataset(
        cfg["figure.id"],
        STUDY_CSV_COLUMNS,
        tuple(rows),
        meta={
            "x": "width_over_sigmak",
            "y": "failure_rate",
            "series": ["a_eses"],
            "step_abs": step_abs,
            "samples": cfg["study.samples"],
        },
    )
    _finish(
        args, "study a-sweep", cfg, overrides, [dataset], {},
        cfg["study.seed"], cfg["study.samples"],
        f"a-sweep: {len(results)} center sizes x {len(cfg['sweep.widths'])} widths"
        f" at fixed step {step_abs:.4g} -> {dataset.figure_id}.csv",
    )


# ---------------------------------------------------------------------------
# hr subcommands
# ---------------------------------------------------------------------------


def _hr_schema(figure_id: str, harmonics: tuple[int, ...]) -> Schema:
    return {
        "figure.id": (_parse_str, figure_id),
        "hr.f0": (_parse_float, 750e6),
        "hr.f_low": (_parse_float, 15e6),
        "hr.n": (_parse_int, 12),
        "hr.k": (_parse_int, 6),
        "hr.element_rel_sigma": (_parse_float, 0.01),
        "hr.gain_sigma": (_parse_float, 0.01),
        "hr.clock_delay_sigma": (_parse_float, 3.7e-12),
        "hr.diff_phase_sigma": (_parse_float, 2.0e-12),
        "hr.weights": (_parse_floats, (12.0, 17.0, 12.0)),
        "hr.seed": (_parse_int, 1),
        "hr.path": (_parse_str, "I"),
        "hr.harmonics": (_parse_ints, harmonics),
        "hr.f_list": (_parse_floats, ()),
        "hr.iterations": (_parse_int, 2),
    }


def _hr_config(cfg: dict) -> HrConfig:
    weights = cfg["hr.weights"]
    if len(weights) != 3:
        raise ConfigError(f"hr.weights needs three values, got {len(weights)}")
    return HrConfig(
        f0=cfg["hr.f0"],
        f_low=cfg["hr.f_low"],
        n_elements=cfg["hr.n"],
        k_selected=cfg["hr.k"],
        element_rel_sigma=cfg["hr.element_rel_sigma"],
        gain_sigma=cfg["hr.gain_sigma"],
        clock_delay_sigma=cfg["hr.clock_delay_sigma"],
        diff_phase_sigma=cfg["hr.diff_phase_sigma"],
        weights=(weights[0], weights[1], weights[2]),
    )


def _hrr_rows(sample, f_list, harmonics, path, phase) -> list[tuple]:
    return [
        (point.f_hz, point.n, point.hrr_db, phase)
        for point in sweep_hrr(sample, f_list, harmonics, path)
    ]


_HRR_COLUMNS = ("f_hz", "n", "hrr_db", "phase")


def _cmd_hr_simulate(args: argparse.Namespace) -> None:
    cfg = _resolve(_hr_schema("hr_simulate", (2, 3, 4, 5, 6)), _load_config(args.config))
    overrides = _apply_overrides(cfg, args, "hr.seed", None)
    receiver = sample_receiver(_hr_config(cfg), sample_substream(cfg["hr.seed"], 0))
    f_list = cfg["hr.f_list"] or (cfg["hr.f0"],)
    rows = _hrr_rows(receiver, f_list, cfg["hr.harmonics"], cfg["hr.path"], "pre")
    dataset = FigureDataset(
        cfg["figure.id"], _HRR_COLUMNS, tuple(rows),
        meta={"path": cfg["hr.path"], "seed": cfg["hr.seed"]},
    )
    worst = min(row[2] for row in rows)
    _finish(
        args, "hr simulate", cfg, overrides, [dataset], {},
        cfg["hr.seed"], None,
        f"hr simulate: {len(rows)} HRR points, worst {worst:.2f} dB"
        f" -> {dataset.figure_id}.csv",
    )


def _cmd_hr_calibrate(args: argparse.Namespace) -> None:
    cfg = _resolve(_hr_schema("hr_calibration", (2, 3, 4, 5, 6)), _load_config(args.config))
    overrides = _apply_overrides(cfg, args, "hr.seed", None)
    receiver = sample_receiver(_hr_config(cfg), sample_substream(cfg["hr.seed"], 0))
    f_list = cfg["hr.f_list"] or (cfg["hr.f0"],)
    path, harmonics = cfg["hr.path"], cfg["hr.harmonics"]
    rows = _hrr_rows(receiver, f_list, harmonics, path, "pre")
    receiver, even_report = calibrate_even_order(receiver)
    receiver, odd_report = calibrate_odd_order(
        receiver, cfg["hr.f0"], cfg["hr.f_low"], iterations=cfg["hr.iterations"]
    )
    rows += _hrr_rows(receiver, f_list, harmonics, path, "post")
    dataset = FigureDataset(
        cfg["figure.id"], _HRR_COLUMNS, tuple(rows),
        meta={"path": path, "seed": cfg["hr.seed"], "iterations": cfg["hr.iterations"]},
    )
    report = {"even": even_report.to_json_dict(), "odd": odd_report.to_json_dict()}
    post = [row for row in rows if row[3] == "post"]
    worst = min(row[2] for row in post)
    _finish(
        args, "hr calibrate", cfg, overrides, [dataset],
        {"hr_calibration.json": report},
        cfg["hr.seed"], None,
        f"hr calibrate: worst post-cal HRR {worst:.2f} dB over n in"
        f" {list(harmonics)} -> {dataset.figure_id}.csv",
    )


def _cmd_hr_sweep(args: argparse.Namespace) -> None:
    cfg = _resolve(_hr_schema("hr_sweep", (3, 5)), _load_config(args.config))
    overrides = _apply_overrides(cfg, args, "hr.seed", None)
    receiver = sample_receiver(_hr_config(cfg), sample_substream(cfg["hr.seed"], 0))
    f0 = cfg["hr.f0"]
    f_list = cfg["hr.f_list"] or tuple(f0 * x / 10.0 for x in range(1, 11))
    path, harmonics = cfg["hr.path"], cfg["hr.harmonics"]
    rows = _hrr_rows(receiver, f_list, harmonics, path, "pre")
    receiver, _ = calibrate_even_order(receiver)
    receiver, _ = calibrate_odd_order(
        receiver, f0, cfg["hr.f_low"], iterations=cfg["hr.iterations"]
    )
    rows += _hrr_rows(receiver, f_list, harmonics, path, "post")
    dataset = FigureDataset(
        cfg["figure.id"], _HRR_COLUMNS, tuple(rows),
        meta={"path": path, "seed": cfg["hr.seed"], "f0": f0},
    )
    post = [row for row in rows if row[3] == "post"]
    _finish(
        args, "hr sweep", cfg, overrides, [dataset], {},
        cfg["hr.seed"], None,
        f"hr sweep: {len(f_list)} frequencies, median post HRR"
        f" {sorted(row[2] for row in post)[len(post) // 2]:.2f} dB"
        f" -> {dataset.figure_id}.csv",
    )


# ---------------------------------------------------------------------------
# dac subcommands
# ---------------------------------------------------------------------------

_DAC_KEYS: Schema = {
    "dac.resolution": (_parse_int, 14),
    "dac.msb_bits": (_parse_int, 6),
    "dac.lsb_bits": (_parse_int, 8),
    "dac.ucc_nominal": (_parse_float, 312e-6),
    "dac.sub_center": (_parse_float, 52e-6),
    "dac.sub_step": (_parse_float, 0.76e-6),
    "dac.sub_sigma": (_parse_float, 1.1e-6),
    "dac.lsb_sigma_factor": (_parse_float, 8.0),
    "dac.delay_sigma": (_parse_float, 1.3e-12),
    "dac.duty_sigma": (_parse_float, 1.8e-12),
    "dac.n": (_parse_int, 12),
    "dac.k": (_parse_int, 6),
}

_HEAL_KEYS: Schema = {
    "heal.n": (_parse_int, 16),
    "heal.k": (_parse_int, 8),
    "heal.sub_nominal": (_parse_float, 19.53e-6),
    "heal.ucc_sigma": (_parse_float, 0.53e-6),
    "heal.i_tiny": (_parse_float, None),
    "heal.cell_trial_limit": (_parse_int, 200),
    "heal.toplevel_trial_limit": (_parse_int, 20),
    "heal.backup_ucc_count": (_parse_int, 4),
    "heal.bias_step": (_parse_float, 0.0005),
    "heal.bias_rel_sigma": (_parse_float, 0.0005),
    "heal.msb_bits": (_parse_int, 6),
    "heal.lsb_bits": (_parse_int, 8),
    "heal.lsb_sigma_factor": (_parse_float, 8.0),
}


def _dac_config(cfg: dict) -> DacConfig:
    n = cfg["dac.n"]
    center, step = cfg["dac.sub_center"], cfg["dac.sub_step"]
    if step == 0.0:
        scheme = Uniform(center)
    else:
        scheme = Explicit(tuple(center + (i - (n - 1) / 2.0) * step for i in range(n)))
    return DacConfig(
        resolution=cfg["dac.resolution"],
        msb_bits=cfg["dac.msb_bits"],
        lsb_bits=cfg["dac.lsb_bits"],
        ucc_nominal=cfg["dac.ucc_nominal"],
        ucc_sub_scheme=scheme,
        sub_sigma=cfg["dac.sub_sigma"],
        lsb_sigma_factor=cfg["dac.lsb_sigma_factor"],
        delay_sigma=cfg["dac.delay_sigma"],
        duty_sigma=cfg["dac.duty_sigma"],
        n=n,
        k=cfg["dac.k"],
    )


def _heal_config(cfg: dict) -> SelfHealConfig:
    return SelfHealConfig(
        n=cfg["heal.n"],
        k=cfg["heal.k"],
        sub_nominal=cfg["heal.sub_nominal"],
        ucc_sigma=cfg["heal.ucc_sigma"],
        i_tiny=cfg["heal.i_tiny"],
        cell_trial_limit=cfg["heal.cell_trial_limit"],
        toplevel_trial_limit=cfg["heal.toplevel_trial_limit"],
        backup_ucc_count=cfg["heal.backup_ucc_count"],
        bias_step=cfg["heal.bias_step"],
        bias_rel_sigma=cfg["heal.bias_rel_sigma"],
        msb_bits=cfg["heal.msb_bits"],
        lsb_bits=cfg["heal.lsb_bits"],
        lsb_sigma_factor=cfg["heal.lsb_sigma_factor"],
    )


def _yield_rows_dataset(study) -> FigureDataset:
    rows = tuple(tuple(row[col] for col in study.columns) for row in study.rows)
    return FigureDataset(
        "yield_rows", study.columns, rows,
        meta={"flow": study.flow, "summary": study.summary},
    )


def _histogram_datasets(study, columns: Sequence[str], figure_id: str) -> list[FigureDataset]:
    units = "s" if study.flow == "timing" else "lsb"
    header = (f"bin_left_{units}", f"bin_right_{units}", "count")
    single = len(columns) == 1 and bool(figure_id)
    out = []
    for column in columns:
        if column not in study.histograms:
            continue  # no finite values to bin
        counts, edges = study.histograms[column]
        rows = tuple(
            (float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(len(counts))
        )
        name = figure_id if single else f"hist_{column}"
        out.append(
            FigureDataset(
                name, header, rows,
                meta={"column": column, "flow": study.flow,
                      "percentiles": study.percentiles.get(column, {})},
            )
        )
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


_YIELD_SCHEMA: Schema = {
    "figure.id": (_parse_str, ""),
    **_DAC_KEYS,
    **_HEAL_KEYS,
    "dac.flow": (_parse_str, "eses"),
    "dac.samples": (_parse_int, 10_000),
    "dac.seed": (_parse_int, 1),
    "dac.bins": (_parse_int, 60),
    "dac.histogram_columns": (_parse_str, "all"),
    "dac.dump_sample": (_parse_int, -1),
}


def _cmd_dac_yield(args: argparse.Namespace) -> None:
    cfg = _resolve(_YIELD_SCHEMA, _load_config(args.config))
    overrides = _apply_overrides(cfg, args, "dac.seed", "dac.samples")
    if args.flow is not None:
        cfg["dac.flow"] = args.flow
        overrides["flow"] = args.flow
    flow = cfg["dac.flow"]
    if flow not in YIELD_FLOWS:
        raise ConfigError(f"dac.flow must be one of {YIELD_FLOWS}, got {flow!r}")
    config = _heal_config(cfg) if flow == "self-heal" else _dac_config(cfg)
    hist_cols = _hist_columns(flow, cfg["dac.histogram_columns"])
    dump = cfg["dac.dump_sample"]
    if dump >= 0:
        if flow not in ("eses", "ses"):
            raise ConfigError("dac.dump_sample needs an amplitude flow (eses or ses)")
        if dump >= cfg["dac.samples"]:
            raise ConfigError(
                f"dac.dump_sample {dump} out of range for {cfg['dac.samples']} samples"
            )
    study = yield_study(
        config, cfg["dac.samples"], flow,
        master_seed=cfg["dac.seed"], threads=args.threads, bins=cfg["dac.bins"],
    )
    datasets = [_yield_rows_dataset(study)]
    hist_id = cfg["figure.id"] if dump < 0 else ""
    datasets += _histogram_datasets(study, hist_cols, hist_id)
    if dump >= 0:
        run_config = uniform_comparison_config(config) if flow == "ses" else config
        sample = sample_dac(run_config, sample_substream(cfg["dac.seed"], dump))
        pre = linearity(sample)
        post = linearity(calibrate_amplitude_eses(sample))
        rows = []
        for phase, report in (("pre", pre), ("post", post)):
            rows.extend(
                (code, phase, float(report.inl[code]), float(report.dnl[code]))
                for code in range(len(report.inl))
            )
        datasets.append(
            FigureDataset(
                cfg["figure.id"] or "linearity_dump",
                ("code", "phase", "inl_lsb", "dnl_lsb"),
                tuple(rows),
                meta={"sample_id": dump, "flow": flow},
            )
        )
    if flow == "self-heal":
        note = f"heal success {study.summary['heal_success_rate']:.4f}"
    elif flow == "timing":
        note = (
            f"post delay sigma {study.summary['post_delay_sigma_pooled']:.3g} s,"
            f" post duty sigma {study.summary['post_duty_sigma_pooled']:.3g} s"
        )
    else:
        note = f"post INL p99 {study.percentiles['post_inl_max']['p99']:.3g} LSB"
    _finish(
        args, "dac yield", cfg, overrides, datasets, {},
        cfg["dac.seed"], cfg["dac.samples"],
        f"dac yield ({flow}): {cfg['dac.samples']} samples, {note} -> yield_rows.csv",
    )


_SELF_HEAL_SCHEMA: Schema = {
    "figure.id": (_parse_str, "self_heal"),
    **_HEAL_KEYS,
    "dac.samples": (_parse_int, 1_000),
    "dac.seed": (_parse_int, 1),
    "dac.bins": (_parse_int, 60),
    "dac.trace_sample": (_parse_int, 0),
    "dac.histogram_columns": (_parse_str, "post_inl_max"),
}


def _cmd_dac_self_heal(args: argparse.Namespace) -> None:
    cfg = _resolve(_SELF_HEAL_SCHEMA, _load_config(args.config))
    overrides = _apply_overrides(cfg, args, "dac.seed", "dac.samples")
    config = _heal_config(cfg)
    hist_cols = _hist_columns("self-heal", cfg["dac.histogram_columns"])
    trace_sample = cfg["dac.trace_sample"]
    if not 0 <= trace_sample < cfg["dac.samples"]:
        raise ConfigError(
            f"dac.trace_sample {trace_sample} out of range for"
            f" {cfg['dac.samples']} samples"
        )
    study = yield_study(
        config, cfg["dac.samples"], "self-heal",
        master_seed=cfg["dac.seed"], threads=args.threads, bins=cfg["dac.bins"],
    )
    # replay the traced sample exactly as the study ran it
    rng = sample_substream(cfg["dac.seed"], trace_sample)
    sample = sample_selfheal(config, rng)
    result = self_heal_ses(sample, rng)
    trace = {"sample_id": trace_sample, **result.trace}
    datasets = [_yield_rows_dataset(study)]
    datasets += _histogram_datasets(study, hist_cols, cfg["figure.id"])
    _finish(
        args, "dac self-heal", cfg, overrides, datasets,
        {"selfheal_trace.json": trace},
        cfg["dac.seed"], cfg["dac.samples"],
        f"dac self-heal: success {study.summary['heal_success_rate']:.4f} over"
        f" {cfg['dac.samples']} samples; trace of sample {trace_sample}"
        f" -> selfheal_trace.json",
    )


_SENSE_SCHEMA: Schema = {
    "figure.id": (_parse_str, "sense_sweep"),
    "sense.f_meas": (_parse_float, 400e6),
    "sense.gain": (_parse_float, 1.0),
    "sense.amplitude": (_parse_float, 312e-6),
    "sense.points": (_parse_int, 10),
    "sense.amplitude_error_max": (_parse_float, 0.02),
    "sense.timing_error_max": (_parse_float, None),
}


def _cmd_dac_sense(args: argparse.Namespace) -> None:
    cfg = _resolve(_SENSE_SCHEMA, _load_config(args.config))
    # the sweep is deterministic: --seed/--samples have no effect here
    sensing = SensingConfig(cfg["sense.f_meas"], cfg["sense.gain"])
    amplitude = cfg["sense.amplitude"]
    if amplitude <= 0:
        raise ConfigError(f"sense.amplitude must be > 0, got {amplitude}")
    points = cfg["sense.points"]
    if points < 2:
        raise ConfigError(f"sense.points must be >= 2, got {points}")
    timing_max = cfg["sense.timing_error_max"]
    if timing_max is None:
        timing_max = 1.0 / cfg["sense.f_meas"] / 1000.0
        cfg["sense.timing_error_max"] = timing_max
    amp_max = cfg["sense.amplitude_error_max"] * amplitude

    def pair(kind: str, value: float):
        if kind == "amplitude":
            return (
                SensedCell(amplitude + value / 2.0),
                SensedCell(amplitude - value / 2.0),
            )
        if kind == "delay":
            return (
                SensedCell(amplitude, delay=value / 2.0),
                SensedCell(amplitude, delay=-value / 2.0),
            )
        return (
            SensedCell(amplitude, duty=value / 2.0),
            SensedCell(amplitude, duty=-value / 2.0),
        )

    rows = []
    for kind, span in (("amplitude", amp_max), ("delay", timing_max), ("duty", timing_max)):
        for value in np.linspace(-span, span, points):
            cell_a, cell_ref = pair(kind, float(value))
            for mode in SENSE_MODES:
                rows.append(
                    (mode, kind, float(value),
                     sense_error(cell_a, cell_ref, mode, sensing))
                )
    dataset = FigureDataset(
        cfg["figure.id"],
        ("mode", "error_kind", "error_value", "output_v"),
        tuple(rows),
        meta={
            "f_meas": cfg["sense.f_meas"],
            "gain": cfg["sense.gain"],
            "amplitude": amplitude,
            "points": points,
        },
    )
    _finish(
        args, "dac sense", cfg, {}, [dataset], {},
        0, None,
        f"dac sense: {len(rows)} readings over {points}-point sweeps"
        f" -> {dataset.figure_id}.csv",
    )


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--samples", type=int, help="sample-count override")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker threads (at most the tasks and the usable cores)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetcal",
        description="Deterministic subset-selection calibration studies.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    study = groups.add_parser("study", help="redundancy statistics studies")
    study_sub = study.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("failure-rate", _cmd_failure_rate, "calibration failure rate vs window width"),
        ("rcal-frontier", _cmd_rcal_frontier, "best resolution ratio vs offset spread"),
        ("a-sweep", _cmd_a_sweep, "shrinking center size at fixed absolute step"),
    ):
        sub = study_sub.add_parser(name, help=help_text)
        _add_common(sub)
        sub.set_defaults(handler=handler)

    hr = groups.add_parser("hr", help="harmonic-rejection receiver studies")
    hr_sub = hr.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("simulate", _cmd_hr_simulate, "draw one receiver and table its HRR"),
        ("calibrate", _cmd_hr_calibrate, "even+odd order calibration of one receiver"),
        ("sweep", _cmd_hr_sweep, "post-calibration HRR vs frequency"),
    ):
        sub = hr_sub.add_parser(name, help=help_text)
        _add_common(sub)
        sub.set_defaults(handler=handler)

    dac = groups.add_parser("dac", help="segmented-converter studies")
    dac_sub = dac.add_subparsers(dest="command", required=True)
    dac_yield = dac_sub.add_parser("yield", help="Monte Carlo linearity yield")
    _add_common(dac_yield)
    dac_yield.add_argument("--flow", choices=YIELD_FLOWS, help="study flow override")
    dac_yield.set_defaults(handler=_cmd_dac_yield)
    for name, handler, help_text in (
        ("self-heal", _cmd_dac_self_heal, "window-search healing study plus trace"),
        ("sense", _cmd_dac_sense, "error-sensing transfer sweep"),
    ):
        sub = dac_sub.add_parser(name, help=help_text)
        _add_common(sub)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already printed usage/help
        code = exit_.code
        return code if isinstance(code, int) else 2
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (InfeasibleStudyError, DegenerateConfigurationError) as err:
        print(f"infeasible study: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
