"""End-to-end tests of the command-line interface (in-process)."""

import csv
import json
import os
import tracemalloc

import pytest

from subsetcal import cli, csdac, reporting, runner, studies
from subsetcal.cli import main
from subsetcal.mismatch import ConfigError
from subsetcal.reporting import emit_json, sha256_of
from subsetcal.studies import STUDY_CSV_COLUMNS


# ---------------------------------------------------------------------------
# oracle helpers
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# argument and config error paths
# ---------------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "study" in capsys.readouterr().out


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["dac", "bogus"]) == 2
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["study", "failure-rate", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


def test_unknown_keys_are_listed_sorted(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.cfg", "study.zzz = 1\nstudy.aaa = 2\n")
    assert main(["study", "failure-rate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "study.aaa, study.zzz" in err


_STUDY_KEYS = ("figure.id", "study.k", "study.n", "study.samples", "study.seed")
_HR_KEYS = (
    "figure.id", "hr.clock_delay_sigma", "hr.diff_phase_sigma", "hr.element_rel_sigma",
    "hr.f0", "hr.f_list", "hr.f_low", "hr.gain_sigma", "hr.harmonics", "hr.iterations",
    "hr.k", "hr.n", "hr.path", "hr.seed", "hr.weights",
)
_HEAL_KEYS = (
    "dac.bins", "dac.histogram_columns", "dac.samples", "dac.seed", "figure.id",
    "heal.backup_ucc_count", "heal.bias_rel_sigma", "heal.bias_step",
    "heal.cell_trial_limit", "heal.i_tiny", "heal.k", "heal.lsb_bits",
    "heal.lsb_sigma_factor", "heal.msb_bits", "heal.n", "heal.sub_nominal",
    "heal.toplevel_trial_limit", "heal.ucc_sigma",
)

# every subcommand's config keys, as its "unknown config keys" error lists them
KNOWN_KEYS = {
    "study failure-rate": _STUDY_KEYS + (
        "study.center", "study.d_list", "study.offset_kind", "study.offsets",
        "study.rel_sigma", "study.widths",
    ),
    "study rcal-frontier": _STUDY_KEYS + (
        "frontier.d_candidates", "frontier.sigma_t_list", "frontier.width_grid",
        "frontier.yield_floor", "study.center", "study.rel_sigma",
    ),
    "study a-sweep": _STUDY_KEYS + (
        "sweep.a_values", "sweep.center_sigma", "sweep.offset", "sweep.offset_kind",
        "sweep.step_abs", "sweep.widths",
    ),
    "hr simulate": _HR_KEYS,
    "hr calibrate": _HR_KEYS,
    "hr sweep": _HR_KEYS,
    "dac yield": _HEAL_KEYS + (
        "dac.delay_sigma", "dac.dump_sample", "dac.duty_sigma", "dac.flow", "dac.k",
        "dac.lsb_bits", "dac.lsb_sigma_factor", "dac.msb_bits", "dac.n",
        "dac.resolution", "dac.sub_center", "dac.sub_sigma", "dac.sub_step",
        "dac.ucc_nominal",
    ),
    "dac self-heal": _HEAL_KEYS + ("dac.trace_sample",),
    "dac sense": (
        "figure.id", "sense.amplitude", "sense.amplitude_error_max", "sense.f_meas",
        "sense.gain", "sense.points", "sense.timing_error_max",
    ),
}


@pytest.mark.parametrize("command", sorted(KNOWN_KEYS))
def test_unknown_key_error_lists_every_known_key(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "bad.cfg", "zz.unknown = 1\n")
    out = tmp_path / "out"
    assert main(command.split() + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config keys: zz.unknown (known: ")
    listed = err.rstrip().removesuffix(")").split("(known: ")[1].split(", ")
    assert listed == sorted(KNOWN_KEYS[command])
    assert not out.exists()


def test_duplicate_key_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "dup.cfg", "study.n = 12\nstudy.n = 10\n")
    assert main(["study", "failure-rate", "--config", cfg]) == 2
    assert "duplicate key" in capsys.readouterr().err


def test_malformed_line_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "line.cfg", "study.n 12\n")
    assert main(["study", "failure-rate", "--config", cfg]) == 2
    assert "key = value" in capsys.readouterr().err


def test_bad_value_names_the_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "val.cfg", "study.samples = many\n")
    assert main(["study", "failure-rate", "--config", cfg]) == 2
    assert "study.samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line, key",
    [
        (["study", "failure-rate"], "study.rel_sigma = nan", "study.rel_sigma"),
        (["study", "failure-rate"], "study.widths = 0.1, inf", "study.widths"),
        (["hr", "simulate"], "hr.f0 = inf", "hr.f0"),
    ],
    ids=["rel_sigma-nan", "widths-inf", "f0-inf"],
)
def test_non_finite_float_is_rejected_before_any_output(tmp_path, capsys, command, line, key):
    cfg = write_cfg(tmp_path, "nonfinite.cfg", line + "\n")
    out = tmp_path / "out"
    argv = command + ["--config", cfg, "--samples", "100", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


def test_study_over_the_memory_bound_is_rejected_before_sampling(
    tmp_path, capsys, monkeypatch
):
    def block_must_not_run(*args, **kwargs):
        raise AssertionError("a study block ran before the memory bound was checked")

    monkeypatch.setattr(studies, "_block_distances", block_must_not_run)
    cfg = write_cfg(tmp_path, "big.cfg", "study.n = 20\nstudy.k = 10\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = main(["study", "failure-rate", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    need = 3 * 8 * studies.BLOCK * 184_756  # three (4096, C(20, 10)) float64 arrays
    assert err.startswith("config error: n=20, k=10 needs") and f"{need} bytes" in err
    assert not out.exists()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "command, text, need",
    [
        ("yield", "dac.lsb_bits = 30\ndac.resolution = 36\n", 8 * 2**30),
        ("yield", "dac.msb_bits = 30\ndac.resolution = 38\n", 8 * (2**30 - 1) * 51),
        ("yield", "dac.lsb_bits = 27\ndac.resolution = 33\ndac.dump_sample = 0\n", 8 * 2**33),
        ("self-heal", "heal.msb_bits = 30\n", 8 * (2**30 - 1 + 4 + 1) * 16),
    ],
    ids=["lsb-values", "cell-draw", "dump-curve", "self-heal-draw"],
)
def test_converter_over_the_memory_bound_is_rejected_before_sampling(
    tmp_path, capsys, no_study, command, text, need
):
    cfg = write_cfg(tmp_path, "big.cfg", text)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = main(["dac", command, "--config", cfg, "--samples", "100", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"needs {need} bytes" in err
    assert not out.exists()
    assert peak < 16 * 2**20


def test_zero_threads_is_rejected(capsys):
    assert main(["dac", "sense", "--threads", "0"]) == 2
    capsys.readouterr()


def test_comments_and_blank_lines_are_ignored(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "ok.cfg",
        "# full-line comment\n\nstudy.samples = 2000  # trailing comment\n"
        "study.widths = 0.05, 0.2\n",
    )
    rc = main([
        "study", "failure-rate", "--config", cfg,
        "--out", str(tmp_path / "out"), "--quiet",
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "failure_rate.csv")
    assert len(rows) == 1 + 2  # header + one row per width
    capsys.readouterr()


# ---------------------------------------------------------------------------
# study subcommands
# ---------------------------------------------------------------------------


def test_failure_rate_outputs_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_cfg(
        tmp_path, "fr.cfg",
        "figure.id = fig3.3\nstudy.widths = 0.01, 0.1\nstudy.offsets = 0, 1\n",
    )
    rc = main([
        "study", "failure-rate", "--config", cfg, "--out", out,
        "--samples", "1000", "--seed", "5",
    ])
    assert rc == 0
    assert "fig3.3.csv" in capsys.readouterr().out
    rows = read_csv(os.path.join(out, "fig3.3.csv"))
    assert tuple(rows[0]) == STUDY_CSV_COLUMNS
    assert len(rows) == 1 + 2 * 2  # two offsets x two widths
    assert all(row[6] == "1000" for row in rows[1:])  # samples column

    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["subcommand"] == "study failure-rate"
    assert manifest["overrides"] == {"samples": 1000, "seed": 5}
    assert manifest["master_seed"] == 5
    assert manifest["config"]["study.samples"] == 1000
    for name, digest in manifest["artifacts"].items():
        assert digest == sha256_of(os.path.join(out, name))
    assert "fig3.3.csv" in manifest["artifacts"]
    assert "fig3.3.meta.json" in manifest["artifacts"]


def test_frontier_emits_empty_fields_when_partially_infeasible(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_cfg(
        tmp_path, "fr.cfg",
        "study.samples = 1000\n"
        "frontier.sigma_t_list = 1, 40\n"
        "frontier.d_candidates = 0.5\n"
        "frontier.width_grid = 0.2\n",
    )
    assert main(["study", "rcal-frontier", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(os.path.join(out, "rcal_frontier.csv"))
    assert rows[0] == ["sigma_T_over_sigmak", "best_rcal", "d_eses", "width"]
    assert rows[1][0] == "1" and rows[1][1] != ""
    assert rows[2] == ["40", "", "", ""]  # infeasible: empty fields, no error
    capsys.readouterr()


def test_frontier_fully_infeasible_exits_three(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "inf.cfg",
        "study.samples = 1000\n"
        "frontier.sigma_t_list = 40\n"
        "frontier.d_candidates = 0\n"
        "frontier.width_grid = 0.03\n",
    )
    rc = main(["study", "rcal-frontier", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_a_sweep_rows_carry_the_center_size(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_cfg(
        tmp_path, "as.cfg",
        "sweep.a_values = 1, 0.5\nsweep.widths = 0.05, 0.2\n",
    )
    assert main([
        "study", "a-sweep", "--config", cfg, "--out", out,
        "--samples", "1000", "--quiet",
    ]) == 0
    rows = read_csv(os.path.join(out, "a_sweep.csv"))
    a_column = STUDY_CSV_COLUMNS.index("a_eses")
    assert sorted(set(row[a_column] for row in rows[1:])) == ["0.5", "1"]
    # the default absolute step is recorded in the manifest config
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["config"]["sweep.step_abs"] == pytest.approx(0.006123724356958)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# hr subcommands
# ---------------------------------------------------------------------------


def test_hr_simulate_writes_pre_rows(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["hr", "simulate", "--out", out, "--quiet"]) == 0
    rows = read_csv(os.path.join(out, "hr_simulate.csv"))
    assert rows[0] == ["f_hz", "n", "hrr_db", "phase"]
    assert len(rows) == 1 + 5  # harmonics 2..6 at f0
    assert all(row[3] == "pre" for row in rows[1:])
    capsys.readouterr()


def test_hr_calibrate_adds_post_rows_and_report(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_cfg(tmp_path, "hr.cfg", "hr.harmonics = 3, 5\nfigure.id = fig4.13\n")
    assert main(["hr", "calibrate", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(os.path.join(out, "fig4.13.csv"))
    phases = [row[3] for row in rows[1:]]
    assert phases == ["pre", "pre", "post", "post"]
    pre3 = float(rows[1][2])
    post3 = float(rows[3][2])
    assert post3 > pre3  # calibration must improve the 3rd harmonic here
    report = read_json(os.path.join(out, "hr_calibration.json"))
    assert set(report) == {"even", "odd"}
    assert report["even"]["selections"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# dac subcommands
# ---------------------------------------------------------------------------


def test_dac_yield_runs_without_a_config_file(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["dac", "yield", "--flow", "eses", "--samples", "100", "--out", out])
    assert rc == 0
    assert "eses" in capsys.readouterr().out
    rows = read_csv(os.path.join(out, "yield_rows.csv"))
    assert rows[0] == ["sample_id", "pre_inl_max", "post_inl_max", "pre_dnl_max", "post_dnl_max"]
    assert len(rows) == 1 + 100
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["overrides"] == {"flow": "eses", "samples": 100}
    # default: one histogram per value column
    for column in rows[0][1:]:
        assert os.path.isfile(os.path.join(out, f"hist_{column}.csv"))


def test_dac_yield_is_byte_identical_across_thread_counts(tmp_path):
    outs = []
    for threads, name in ((1, "t1"), (3, "t3")):
        out = str(tmp_path / name)
        rc = main([
            "dac", "yield", "--flow", "eses", "--samples", "100",
            "--out", out, "--threads", str(threads), "--quiet",
        ])
        assert rc == 0
        outs.append(out)
    for name in ("yield_rows.csv", "hist_post_inl_max.csv"):
        with open(os.path.join(outs[0], name), "rb") as a:
            with open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read()
    m1 = read_json(os.path.join(outs[0], "manifest.json"))
    m3 = read_json(os.path.join(outs[1], "manifest.json"))
    assert m1["artifacts"] == m3["artifacts"]


def test_worker_config_error_exits_like_a_serial_run(tmp_path, capsys, monkeypatch):
    real_row = csdac._amplitude_row

    def row(config, master_seed, i):
        if i == 70:
            raise ConfigError(f"converter {i} rejected")
        return real_row(config, master_seed, i)

    monkeypatch.setattr(csdac, "_amplitude_row", row)
    monkeypatch.setattr(runner, "_usable_cores", lambda: 2)
    assert runner._chunk_bounds(100, 2) == [0, 50, 100]  # row 70 runs in the worker
    errors = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        rc = main([
            "dac", "yield", "--flow", "eses", "--samples", "100",
            "--out", str(out), "--threads", str(threads),
        ])
        assert rc == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] == "config error: converter 70 rejected\n"
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_dac_yield_dump_sample_emits_per_code_rows(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_cfg(
        tmp_path, "dump.cfg",
        "figure.id = fig5.14\ndac.samples = 100\ndac.dump_sample = 7\n"
        "dac.histogram_columns = none\n",
    )
    assert main(["dac", "yield", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(os.path.join(out, "fig5.14.csv"))
    assert rows[0] == ["code", "phase", "inl_lsb", "dnl_lsb"]
    assert len(rows) == 1 + 2 * 2**14
    assert not os.path.isfile(os.path.join(out, "hist_post_inl_max.csv"))
    # the dumped sample's endpoints are pinned by the endpoint INL convention
    first = rows[1]
    assert first[:2] == ["0", "pre"] and float(first[2]) == 0.0
    capsys.readouterr()


@pytest.fixture
def no_study(monkeypatch):
    """Fails the test if a yield study starts: settings must be checked first."""

    def study_must_not_run(*args, **kwargs):
        raise AssertionError("the yield study ran before the settings were checked")

    monkeypatch.setattr(cli, "yield_study", study_must_not_run)


def test_dac_yield_dump_needs_an_amplitude_flow(tmp_path, capsys, no_study):
    cfg = write_cfg(
        tmp_path, "dump.cfg", "dac.samples = 100\ndac.dump_sample = 0\n"
    )
    rc = main([
        "dac", "yield", "--config", cfg, "--flow", "timing",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "amplitude flow" in capsys.readouterr().err


def test_dac_yield_dump_index_must_be_in_range(tmp_path, capsys, no_study):
    cfg = write_cfg(
        tmp_path, "dump.cfg", "dac.samples = 100\ndac.dump_sample = 100\n"
    )
    assert main(["dac", "yield", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "out of range for 100 samples" in capsys.readouterr().err


def test_dac_yield_unknown_histogram_column(tmp_path, capsys, no_study):
    cfg = write_cfg(
        tmp_path, "h.cfg", "dac.samples = 100\ndac.histogram_columns = post_inl\n"
    )
    assert main(["dac", "yield", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "post_inl" in capsys.readouterr().err


def test_dac_yield_histogram_columns_belong_to_the_flow(tmp_path, capsys, no_study):
    cfg = write_cfg(
        tmp_path, "h.cfg", "dac.samples = 300\ndac.histogram_columns = post_inl_max\n"
    )
    rc = main([
        "dac", "yield", "--config", cfg, "--flow", "timing",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "unknown histogram columns: post_inl_max" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_dac_yield_unknown_flow_in_config(tmp_path, capsys, no_study):
    cfg = write_cfg(tmp_path, "f.cfg", "dac.samples = 100\ndac.flow = bogus\n")
    assert main(["dac", "yield", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "dac.flow must be one of" in capsys.readouterr().err


def test_dac_self_heal_trace_sample_must_be_in_range(tmp_path, capsys, no_study):
    cfg = write_cfg(tmp_path, "sh.cfg", "dac.samples = 300\ndac.trace_sample = 500\n")
    rc = main(["dac", "self-heal", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "out of range for 300 samples" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_dac_self_heal_trace_replays_the_study_row(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_cfg(tmp_path, "sh.cfg", "dac.samples = 100\ndac.trace_sample = 3\n")
    assert main(["dac", "self-heal", "--config", cfg, "--out", out, "--quiet"]) == 0
    trace = read_json(os.path.join(out, "selfheal_trace.json"))
    assert trace["sample_id"] == 3
    assert trace["outcome"] in ("healed", "backups exhausted", "restarts exhausted")
    rows = read_csv(os.path.join(out, "yield_rows.csv"))
    header = rows[0]
    row3 = rows[1 + 3]
    healed_csv = row3[header.index("healed")] == "1"
    assert healed_csv == (trace["outcome"] == "healed")
    assert float(row3[header.index("restarts")]) == trace["toplevel_restarts"]
    capsys.readouterr()


def test_dac_sense_sweep_shape(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["dac", "sense", "--out", out, "--quiet"]) == 0
    rows = read_csv(os.path.join(out, "sense_sweep.csv"))
    assert rows[0] == ["mode", "error_kind", "error_value", "output_v"]
    assert len(rows) == 1 + 3 * 10 * 3  # kinds x points x modes
    # matching-mode output crosses zero with the error
    matched = [
        float(row[3]) for row in rows[1:]
        if row[0] == "amplitude" and row[1] == "amplitude"
    ]
    assert matched[0] < 0 < matched[-1]
    capsys.readouterr()


def test_quiet_suppresses_the_summary_line(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["dac", "sense", "--out", out, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# writing the run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, text",
    [
        ("self-heal", "figure.id = yield_rows\n"),
        ("yield", "figure.id = yield_rows\ndac.histogram_columns = post_inl_max\n"),
        ("yield", "figure.id = yield_rows\ndac.dump_sample = 3\ndac.histogram_columns = none\n"),
    ],
    ids=["self-heal-histogram", "yield-histogram", "yield-dump"],
)
def test_two_artifacts_with_one_name_are_rejected_before_writing(
    tmp_path, capsys, command, text
):
    cfg = write_cfg(tmp_path, "clash.cfg", text)
    out = tmp_path / "out"
    rc = main(["dac", command, "--config", cfg, "--samples", "100", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "yield_rows.csv" in err
    assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == ["clash.cfg"]


def test_failed_write_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    calls = []

    def emit_json_failing_second(payload, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(f"disk full writing {path}")
        return emit_json(payload, path)

    # emit_figure writes the meta file through reporting.emit_json, the
    # calibration report goes through the name cli imported
    monkeypatch.setattr(reporting, "emit_json", emit_json_failing_second)
    monkeypatch.setattr(cli, "emit_json", emit_json_failing_second)
    runs = tmp_path / "runs"
    out = runs / "out"
    out.mkdir(parents=True)
    (out / "earlier.txt").write_text("kept", encoding="utf-8")
    rc = main(["hr", "calibrate", "--out", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("i/o error: disk full")
    assert len(calls) == 2
    assert os.listdir(out) == ["earlier.txt"]
    assert os.listdir(runs) == ["out"]  # no staging directory left behind


def test_rerun_replaces_the_manifest_and_keeps_other_files(tmp_path, capsys):
    runs = tmp_path / "runs"
    out = runs / "out"
    assert main(["hr", "simulate", "--out", str(out), "--quiet", "--seed", "1"]) == 0
    (out / "earlier.txt").write_text("kept", encoding="utf-8")
    first = read_json(out / "manifest.json")
    assert main(["hr", "simulate", "--out", str(out), "--quiet", "--seed", "2"]) == 0
    assert sorted(os.listdir(out)) == [
        "earlier.txt", "hr_simulate.csv", "hr_simulate.meta.json", "manifest.json"
    ]
    manifest = read_json(out / "manifest.json")
    assert manifest["master_seed"] == 2
    assert manifest["artifacts"] != first["artifacts"]
    for name, digest in manifest["artifacts"].items():
        assert digest == sha256_of(out / name)
    assert os.listdir(runs) == ["out"]
    capsys.readouterr()
