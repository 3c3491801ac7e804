"""End-to-end tests of the command-line interface (in-process)."""

import csv
import dataclasses
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from subsetcal import cli, csdac, reporting, runner, studies
from subsetcal.cli import main
from subsetcal.csdac import DacConfig, SelfHealConfig, uniform_comparison_config
from subsetcal.hrmixer import HrConfig
from subsetcal.mismatch import Arithmetic, ConfigError, nominal_sizes
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
        (["study", "failure-rate", "--samples", "100"], "study.rel_sigma = nan",
         "study.rel_sigma"),
        (["study", "failure-rate", "--samples", "100"], "study.widths = 0.1, inf",
         "study.widths"),
        (["hr", "simulate"], "hr.f0 = inf", "hr.f0"),
    ],
    ids=["rel_sigma-nan", "widths-inf", "f0-inf"],
)
def test_non_finite_float_is_rejected_before_any_output(tmp_path, capsys, command, line, key):
    cfg = write_cfg(tmp_path, "nonfinite.cfg", line + "\n")
    out = tmp_path / "out"
    argv = command + ["--config", cfg, "--out", str(out)]
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
    # 80 bytes per (row, offset) on blocks of 4096 rows, plus 4 312 656 for
    # the sorted sums, the element draw and a fixed-order gather
    offsets = ", ".join(["0"] * 3267)
    cfg = write_cfg(tmp_path, "big.cfg", f"study.offsets = {offsets}\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = main(["study", "failure-rate", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    need = 4_312_656 + 80 * studies.BLOCK * 3267
    assert err == (
        f"config error: 3267 offsets on blocks of 4096 samples at n=12, k=6 need {need}"
        " bytes, above the 1073741824-byte limit\n"
    )
    assert not out.exists()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "command, text, need",
    [
        ("yield", "dac.lsb_bits = 30\ndac.resolution = 36\n", 8 * 2**30),
        ("yield", "dac.msb_bits = 30\ndac.resolution = 38\n", 8 * (2**30 - 1) * 51),
        ("yield", "dac.lsb_bits = 27\ndac.resolution = 33\ndac.dump_sample = 0\n", 8 * 2**33),
        ("self-heal", "heal.msb_bits = 30\n", 8 * (2**30 - 1 + 4 + 1) * 16),
        ("self-heal", "heal.cell_trial_limit = 1000000000000\n", 8 * 63 * 10**12),
        ("self-heal", "heal.cell_trial_limit = 2000000\n", 8 * 16 * 2_000_000 * 8),
    ],
    ids=["lsb-values", "cell-draw", "dump-curve", "self-heal-draw", "self-heal-trials",
         "self-heal-gather"],
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


def test_sense_sweep_over_the_memory_bound_is_rejected_before_any_reading(
    tmp_path, capsys, monkeypatch
):
    def reading_must_not_run(*args, **kwargs):
        raise AssertionError("a sense reading ran before the sweep size was checked")

    monkeypatch.setattr(cli, "sense_readings", reading_must_not_run)
    # 2 000 000 points fit 8 bytes per reading, not the 250 a reading takes
    for points, need in ((1000000000000, 2250000000000000), (2000000, 4500000000)):
        cfg = write_cfg(tmp_path, "sense.cfg", f"sense.points = {points}\n")
        out = tmp_path / "out"
        assert main(["dac", "sense", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: the sense sweep (3, {points}, 3) needs {need} bytes,"
            " above the 1073741824-byte limit\n"
        )
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command, module, name, message",
    [
        (["study", "failure-rate"], studies, "_block_distances",
         "min_distances' distance array that caps every study's sample count"
         " (100000000000,) needs 800000000000 bytes"),
        (["dac", "yield"], csdac, "parallel_indexed",
         "the yield rows (100000000000,) needs 40000000000000 bytes"),
        (["dac", "self-heal"], csdac, "parallel_indexed",
         "the yield rows (100000000000,) needs 40000000000000 bytes"),
    ],
    ids=["study", "dac-yield", "dac-self-heal"],
)
def test_sample_count_over_the_memory_bound_is_rejected_before_any_sample(
    tmp_path, capsys, monkeypatch, command, module, name, message
):
    def sampling_must_not_run(*args, **kwargs):
        raise AssertionError("a sample ran before the sample count was checked")

    monkeypatch.setattr(module, name, sampling_must_not_run)
    out = tmp_path / "out"
    assert main([*command, "--samples", "100000000000", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}, above the 1073741824-byte limit\n"
    assert captured.out == "" and not out.exists()


_OVER_LIMIT = ", above the 1073741824-byte limit"
_OVERFLOWING_DRAW = (
    "a drawn converter's full-scale current could reach inf A,"
    " above the 2.81e+306 A its sums are kept below"
)
_OVERFLOWING_DELAY = ", above the 1.22e+142 s its squared sums are kept below"
_OVERFLOWING_STUDY = (
    "a drawn study's subset sums could reach inf, above the 2.81e+306 they are kept below"
)


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["study", "a-sweep"], "study.k = -1\n", "need 1 <= k <= n, got n=12 k=-1"),
        (["dac", "yield"], "dac.lsb_bits = 1000000000\n",
         "lsb_bits = 1000000000 needs arrays of 2**lsb_bits items" + _OVER_LIMIT),
        (["dac", "self-heal"], "heal.msb_bits = 1000000000\n",
         "msb_bits = 1000000000 needs arrays of 2**msb_bits items" + _OVER_LIMIT),
        (["dac", "self-heal"], "heal.lsb_bits = 1000000000\n",
         "lsb_bits = 1000000000 needs arrays of 2**lsb_bits items" + _OVER_LIMIT),
        # C(20000, 10000) has 6020 digits, past Python's int-to-string limit
        (["dac", "yield"], "dac.n = 20000\ndac.k = 10000\n",
         "the timing product needs at least 2**20002 bytes" + _OVER_LIMIT),
        # subset sums that would overflow, counted as no failure at all
        (["study", "failure-rate"], "study.center = 1e308\n", _OVERFLOWING_STUDY),
        (["study", "failure-rate"], "study.rel_sigma = 1e308\n", _OVERFLOWING_STUDY),
        (["study", "a-sweep"], "sweep.a_values = 1e308\n", _OVERFLOWING_STUDY),
        (["study", "a-sweep"], "sweep.a_values = 1, 0.5, 1e308\n", _OVERFLOWING_STUDY),
        # 80 bytes per (row, offset) on blocks of 4096 rows
        (["study", "rcal-frontier"],
         "frontier.sigma_t_list = " + ", ".join(["1"] * 3300) + "\n",
         "3300 offsets on blocks of 4096 samples at n=12, k=6 need 1085656656 bytes"
         + _OVER_LIMIT),
    ],
    ids=["a-sweep-k", "dac-lsb-bits", "heal-msb-bits", "heal-lsb-bits", "dac-huge-comb",
         "study-center-sums", "study-rel-sigma-sums", "a-sweep-a-sums", "a-sweep-last-a-sums",
         "frontier-sigma-t-list"],
)
def test_hostile_geometry_is_rejected_before_any_work(
    tmp_path, capsys, monkeypatch, command, text, message
):
    assert_rejected_before_any_work(tmp_path, capsys, monkeypatch, command, text, message)


def assert_rejected_before_any_work(tmp_path, capsys, monkeypatch, command, text, message):
    """``command`` under the config ``text`` exits 2 with ``message`` alone on
    stderr, before any study or converter is made, and leaves no output
    directory."""

    def work_must_not_run(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(studies, "_block_distances", work_must_not_run)
    monkeypatch.setattr(csdac, "parallel_indexed", work_must_not_run)
    cfg = write_cfg(tmp_path, "hostile.cfg", text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:  # numpy's would print first
        warnings.simplefilter("always")
        assert main([*command, "--config", cfg, "--out", str(out)]) == 2
    assert [str(warning.message) for warning in caught] == []
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["dac", "yield"], "dac.lsb_sigma_factor = 5e-324\n",
         "the derived lsb_unit_sigma is inf, not a finite current"),
        (["dac", "yield", "--flow", "timing"], "dac.sub_sigma = 1e308\n",
         "the derived ucc_sigma is inf, not a finite current"),
        (["dac", "self-heal"], "heal.lsb_sigma_factor = 5e-324\n",
         "the derived lsb_unit_sigma is inf, not a finite current"),
        # the cell-draw bound rejects n before any of its sizes is made
        (["dac", "yield"], "dac.n = 1000000000\n",
         "the cell draw (63, 4000000003) needs 2016000001512 bytes" + _OVER_LIMIT),
        # finite derived sigmas whose draws' sums would overflow
        (["dac", "yield"], "dac.sub_sigma = 1e307\n", _OVERFLOWING_DRAW),
        (["dac", "self-heal"], "heal.ucc_sigma = 1e308\n", _OVERFLOWING_DRAW),
        (["dac", "yield", "--flow", "self-heal"], "heal.bias_rel_sigma = 1e308\n",
         _OVERFLOWING_DRAW),
        # a spare pool whose element draw fits but whose pair-sum table does not
        (["dac", "self-heal"], "heal.backup_ucc_count = 2000000\n",
         "the pair-sum table (2000063, 136) needs 2176068544 bytes" + _OVER_LIMIT),
        # timing sigmas whose deviations' squares would overflow the columns
        (["dac", "yield", "--flow", "timing"], "dac.delay_sigma = 1e300\n",
         "a drawn buffer's delay could reach 1.7e+302 s at delay_sigma = 1e+300 s"
         + _OVERFLOWING_DELAY),
        (["dac", "yield", "--flow", "timing"], "dac.duty_sigma = 1e307\n",
         "a drawn buffer's delay could reach inf s at duty_sigma = 1e+307 s"
         + _OVERFLOWING_DELAY),
        # sense sweeps whose span numpy's linspace cannot take, checked before it
        (["dac", "sense"], "sense.f_meas = 5e-324\n",
         "the delay sweep from -inf to inf has no finite width"),
        (["dac", "sense"], "sense.timing_error_max = 1e308\n",
         "the delay sweep from -1e+308 to 1e+308 has no finite width"),
        (["dac", "sense"], "sense.amplitude_error_max = 1e308\n",
         "amplitude must be finite and >= 0, got -1.56e+304"),
        (["dac", "sense"], "sense.timing_error_max = 1e-9\n",
         "timing errors must stay well below an eighth of the toggle period"),
        (["dac", "sense"], "sense.gain = 1e308\nsense.amplitude = 1e308\n",
         "a sense reading overflows a float at gain 1e+308"),
    ],
    ids=[
        "dac-lsb-sigma-factor", "dac-sub-sigma", "heal-lsb-sigma-factor", "dac-huge-n",
        "dac-sub-sigma-sums", "heal-ucc-sigma-sums", "heal-bias-sigma-sums", "heal-pair-table",
        "dac-delay-sigma-squares", "dac-duty-sigma-squares", "sense-f-meas-tiny",
        "sense-timing-span-huge", "sense-amplitude-span-past-zero", "sense-timing-span-past-guard",
        "sense-reading-overflow",
    ],
)
def test_hostile_dac_values_are_rejected_before_any_work(
    tmp_path, capsys, monkeypatch, command, text, message
):
    assert_rejected_before_any_work(tmp_path, capsys, monkeypatch, command, text, message)


def test_yield_summary_survives_a_column_with_no_finite_value(tmp_path, capsys, monkeypatch):
    def nan_rows(config, master_seed, lo, hi):
        return [(i,) + 4 * (math.nan,) for i in range(lo, hi)]

    monkeypatch.setattr(csdac, "_amplitude_rows", nan_rows)
    out = tmp_path / "out"
    assert main(["dac", "yield", "--samples", "100", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "dac yield (eses): 100 samples, post INL p99 nan LSB -> yield_rows.csv\n"
    )
    assert (out / "yield_rows.csv").exists()


def test_negative_zero_sigma_runs_as_zero(tmp_path, capsys):
    # numpy refuses a scale of -0.0, which passes every `< 0.0` check
    written = []
    for value in ("-0.0", "0.0"):
        cfg = write_cfg(tmp_path, "zero.cfg", f"dac.sub_sigma = {value}\n")
        out = tmp_path / value
        assert main(["dac", "yield", "--config", cfg, "--samples", "100", "--out", str(out)]) == 0
        names = sorted(name for name in os.listdir(out) if name != "manifest.json")
        written.append({name: (out / name).read_bytes() for name in names})
        assert read_json(out / "manifest.json")["config"]["dac.sub_sigma"] == 0.0
    capsys.readouterr()
    assert written[0] == written[1] and "yield_rows.csv" in written[0]


@pytest.mark.parametrize(
    "cls, keys, derived",
    [
        # dac.sub_center and dac.sub_step set the sub-current scheme
        (DacConfig, cli._DAC_FIELDS, {"ucc_sub_scheme"}),
        (SelfHealConfig, cli._HEAL_FIELDS, set()),
        (HrConfig, cli._HR_FIELDS, set()),
    ],
    ids=["dac", "heal", "hr"],
)
def test_every_config_field_has_a_key(cls, keys, derived):
    """A config field that no key sets is a model constant: no run can set it."""
    fields = {field.name for field in dataclasses.fields(cls)}
    assert fields == set(keys.values()) | derived


def test_hr_gain_range_past_zero_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "gain.cfg", "hr.gain_sigma = 0.08\n")
    out = tmp_path / "out"
    assert main(["hr", "simulate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "tail_step" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("hr.path = X", "hr.path must be 'I' or 'Q', got 'X'"),
        ("hr.harmonics = 1, 3", "hr.harmonics must be indices >= 2, got [1, 3]"),
        ("hr.harmonics = ", "hr.harmonics must be indices >= 2, got []"),
        ("hr.iterations = 0", "hr.iterations must be >= 1, got 0"),
        ("hr.iterations = 1000000000", "hr.iterations must be <= 100, got 1000000000"),
        ("hr.f_list = 0, 750e6", "hr.f_list must be frequencies > 0, got [0.0, 750000000.0]"),
        ("hr.f_list = -1e6", "hr.f_list must be frequencies > 0, got [-1000000.0]"),
        ("hr.element_rel_sigma = 0.2",
         "delay tuning range 2.26578e-11s cannot cover 2.553e-11s"),
        ("hr.element_rel_sigma = 5e-324",
         "the clock drive is inf s at element_rel_sigma = 4.94066e-324, not a finite delay"),
        *(
            (f"hr.weights = {weights}", f"weights sum to {total}: with branch gains up to"
             " 1.42, the LO's scale must stay within 2**-256 and 2**256")
            for weights, total in (
                ("5e-324, 5e-324, 5e-324", "1.4822e-323"),
                ("1e-320, 1e-320, 1e-320", "2.99997e-320"),
                ("1e-300, 1e-300, 1e-300", "3e-300"),
                ("1e160, 1e160, 1e160", "3e+160"),
                ("1e308, 1, 1", "1e+308"),
                ("1e308, 1e308, 1e308", "inf"),
            )
        ),
    ],
    ids=["path", "harmonic-1", "no-harmonics", "iterations-0", "iterations-huge", "f-zero",
         "f-negative", "underdriven-clock", "infinite-drive", "weights-5e-324", "weights-1e-320",
         "weights-1e-300", "weights-1e160", "weights-one-1e308", "weights-1e308"],
)
@pytest.mark.parametrize("command", ["simulate", "calibrate", "sweep"])
def test_bad_hr_keys_are_rejected_before_the_draw(
    tmp_path, capsys, monkeypatch, command, line, message
):
    def draw_must_not_run(*args, **kwargs):
        raise AssertionError("a receiver was drawn before the hr keys were checked")

    monkeypatch.setattr(cli, "sample_receiver", draw_must_not_run)
    cfg = write_cfg(tmp_path, "hr.cfg", line + "\n")
    out = tmp_path / "out"
    assert main(["hr", command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n" and captured.out == ""
    assert not out.exists()


#: hostile values for every numeric ``hr.*`` key; the integer keys take the
#: integer ones, and a ``weights`` value is given to all three weights
HR_HOSTILE_FLOATS = ("0", "-1", "-0.0", "5e-324", "1e-300", "2.5", "1e308", "1e9")
HR_HOSTILE_INTS = ("0", "-1", "1000000000")
HR_NUMERIC_KEYS = {
    **dict.fromkeys(("n", "k", "seed", "iterations", "harmonics"), HR_HOSTILE_INTS),
    **dict.fromkeys(
        ("f0", "f_low", "element_rel_sigma", "gain_sigma", "clock_delay_sigma",
         "diff_phase_sigma", "weights", "f_list"),
        HR_HOSTILE_FLOATS,
    ),
}


@pytest.mark.parametrize(
    "key, value", [(key, value) for key, values in HR_NUMERIC_KEYS.items() for value in values]
)
def test_hostile_hr_values_exit_cleanly(tmp_path, capsys, key, value):
    """Each numeric ``hr.*`` key at each hostile value, through the three
    mixer commands: exit 0, 2 or 3 and no traceback, an output directory
    only on exit 0, and no floating-point overflow, invalid operation or
    division by zero on the way.  Underflow stays allowed: at ``hr.f_low``
    5e-324 or 1e-300 an edge's phase error (f times its error in seconds)
    underflows, and at ``hr.gain_sigma = 5e-324`` the tail elements' sigmas
    and drawn deviations do.  Both are values those terms may take, and
    those runs exit 0."""
    text = ", ".join(3 * [value]) if key == "weights" else value
    cfg = write_cfg(tmp_path, "hr.cfg", f"hr.{key} = {text}\n")
    for command in ("simulate", "calibrate", "sweep"):
        out = tmp_path / command
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            code = main(["hr", command, "--config", cfg, "--out", str(out), "--quiet"])
        captured = capsys.readouterr()
        assert code in (0, 2, 3), (command, captured.err)
        assert "Traceback" not in captured.err and out.exists() == (code == 0)


SEEDED_COMMANDS = sorted(name for name, command in cli._COMMANDS.items() if command.seed_key)


@pytest.mark.parametrize(
    "subcommand, line",
    [(name, None) for name in SEEDED_COMMANDS]
    + [("study failure-rate", "study.seed = -1"), ("hr calibrate", "hr.seed = -1"),
       ("dac self-heal", "dac.seed = -1")],
)
def test_negative_seed_is_rejected_before_any_draw(tmp_path, capsys, monkeypatch, subcommand, line):
    """--seed -1, or the seed key set to -1, exits 2 before the command runs."""
    command = cli._COMMANDS[subcommand]

    def build_must_not_run(*args, **kwargs):
        raise AssertionError("the command ran before its seed was checked")

    monkeypatch.setitem(cli._COMMANDS, subcommand, command._replace(build=build_must_not_run))
    out = tmp_path / "out"
    argv = [*subcommand.split(), "--out", str(out)]
    argv += ["--config", write_cfg(tmp_path, "seed.cfg", line + "\n")] if line else ["--seed", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {command.seed_key} must be >= 0, got -1\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", [["dac", "yield"], ["dac", "self-heal"]])
def test_histogram_over_the_memory_bound_is_rejected_before_any_row(
    tmp_path, capsys, monkeypatch, command
):
    def rows_must_not_run(*args, **kwargs):
        raise AssertionError("a study row ran before the histogram size was checked")

    monkeypatch.setattr(csdac, "parallel_indexed", rows_must_not_run)
    cfg = write_cfg(tmp_path, "bins.cfg", "dac.bins = 1000000000\n")
    out = tmp_path / "out"
    assert main([*command, "--config", cfg, "--samples", "100", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: the histogram edges (1000000001,) needs")
    assert "8000000008 bytes" in captured.err and captured.out == ""
    assert not out.exists()


def test_hr_f0_must_be_positive_before_it_is_compared(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "hr.cfg", "hr.f0 = 0\n")
    out = tmp_path / "out"
    assert main(["hr", "simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: f0 must be > 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["hr", "simulate", "--samples", "5"],
        ["hr", "calibrate", "--samples", "5"],
        ["hr", "sweep", "--samples", "5"],
        ["dac", "sense", "--seed", "5"],
        ["dac", "sense", "--samples", "5"],
    ],
    ids=["hr-simulate-samples", "hr-calibrate-samples", "hr-sweep-samples",
         "dac-sense-seed", "dac-sense-samples"],
)
def test_a_flag_the_subcommand_cannot_use_is_rejected(tmp_path, capsys, argv):
    # the mixer commands draw one receiver and the sense sweep draws nothing
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


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


def test_graded_converter_is_referenced_at_the_configured_center():
    # at dac.sub_step = 0.9e-6 the 12 graded sizes average 52e-6 - 6.8e-21;
    # the sigma reference and the equal-sized comparison take the configured
    # center itself, as every study's center does
    schema = cli._COMMANDS["dac yield"].schema
    config = cli._dac_config(cli._resolve(schema, {"dac.sub_step": "0.9e-6"}))
    assert np.mean(nominal_sizes(config.ucc_sub_scheme, config.n)) != 52e-6
    assert config.sub_model.size_ref == 52e-6
    assert uniform_comparison_config(config).ucc_sub_scheme == Arithmetic(52e-6, 0.0)


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
    real_rows = csdac._amplitude_rows

    def rows(config, master_seed, lo, hi):
        if lo <= 70 < hi:
            raise ConfigError("converter 70 rejected")
        return real_rows(config, master_seed, lo, hi)

    monkeypatch.setattr(csdac, "_amplitude_rows", rows)
    monkeypatch.setattr(runner, "_usable_cores", lambda: 2)
    blocks = -(-100 // csdac._YIELD_BLOCK)
    # row 70's block runs in the worker
    assert runner._chunk_bounds(blocks, 2)[1] <= 70 // csdac._YIELD_BLOCK
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


@pytest.mark.parametrize(
    "command, line, message",
    [
        (["dac", "self-heal"], "heal.k = 7", "balanced combination needs even k, got k=7"),
        (["dac", "yield", "--flow", "self-heal"], "heal.k = 7",
         "balanced combination needs even k, got k=7"),
        (["dac", "self-heal"], "heal.n = 8\nheal.k = 8", "no balanced combination for n=8 k=8"),
    ],
)
def test_heal_geometry_without_a_balanced_bias_is_rejected_before_the_draw(
    tmp_path, capsys, monkeypatch, command, line, message
):
    def draw_must_not_run(*args, **kwargs):
        raise AssertionError("a converter was drawn before the heal geometry was checked")

    monkeypatch.setattr(cli, "sample_selfheal", draw_must_not_run)
    monkeypatch.setattr(csdac, "sample_selfheal", draw_must_not_run)
    cfg = write_cfg(tmp_path, "sh.cfg", line + "\n")
    out = tmp_path / "out"
    assert main([*command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n" and captured.out == ""
    assert not out.exists()


def test_dac_self_heal_trace_replays_the_study_row(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = write_cfg(tmp_path, "sh.cfg", "dac.samples = 100\ndac.trace_sample = 3\n")
    assert main(["dac", "self-heal", "--config", cfg, "--out", out, "--quiet"]) == 0
    trace = read_json(os.path.join(out, "selfheal_trace.json"))
    assert trace["sample_id"] == 3
    assert trace["outcome"] in ("healed", "failed")
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


def test_dac_sense_reads_a_cell_edge_a_hair_below_zero(tmp_path, capsys):
    """At 15 points over +/-1e-13 s the middle delay is a few 1e-29 s, not 0:
    half of it on a cell puts an edge a hair before the period start, which
    the sweep reads like an edge at 0."""
    cfg = write_cfg(tmp_path, "hair.cfg", "sense.points = 15\nsense.timing_error_max = 1e-13\n")
    out = str(tmp_path / "out")
    assert main(["dac", "sense", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(os.path.join(out, "sense_sweep.csv"))[1:]
    delay = [float(row[3]) for row in rows if row[0] == row[1] == "delay"]
    values = [float(row[2]) for row in rows if row[0] == row[1] == "delay"]
    assert len(delay) == 15 and 0.0 < abs(values[7]) < 1e-27
    assert delay == sorted(delay) and delay[0] < 0 < delay[-1]
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("where", ["build", "write"])
def test_interrupt_exits_130_and_leaves_no_output(tmp_path, capsys, monkeypatch, where):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    if where == "build":
        command = cli._COMMANDS["hr simulate"]
        monkeypatch.setitem(cli._COMMANDS, "hr simulate", command._replace(build=interrupted))
    else:  # while _finish writes into its staging directory
        monkeypatch.setattr(cli, "write_manifest", interrupted)
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / "out"
    assert main(["hr", "simulate", "--out", str(out)]) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n" and captured.out == ""
    assert os.listdir(runs) == []  # neither --out nor a staging directory


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
