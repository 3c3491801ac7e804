"""Tests for CSV/JSON figure emission and run manifests."""

import csv
import hashlib
import json
import os

import pytest

from subsetcal.mismatch import ConfigError
from subsetcal.reporting import (
    FigureDataset,
    RunManifest,
    emit_figure,
    emit_json,
    format_value,
    sha256_of,
    write_manifest,
)


# ---------------------------------------------------------------------------
# oracle helpers
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# value formatting
# ---------------------------------------------------------------------------


def test_format_value_basic_types():
    assert format_value(None) == ""
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(7) == "7"
    assert format_value(-3) == "-3"
    assert format_value("abc") == "abc"
    assert format_value(0.5) == "0.5"


def test_format_value_floats_carry_twelve_significant_digits():
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(1e-6) == "1e-06"
    assert format_value(123456789.0) == "123456789"
    # 12 digits round-trip unambiguously for these magnitudes
    assert float(format_value(0.1234567890123)) == pytest.approx(0.1234567890123, rel=1e-11)


def test_format_value_rejects_unknown_types():
    with pytest.raises(ConfigError):
        format_value(object())
    with pytest.raises(ConfigError):
        format_value([1, 2])


# ---------------------------------------------------------------------------
# dataset validation
# ---------------------------------------------------------------------------


def test_dataset_rejects_bad_figure_ids():
    for bad in ("", "-lead", "has space", "a/b", ".dot"):
        with pytest.raises(ConfigError):
            FigureDataset(bad, ("x",), ((1,),))


def test_dataset_accepts_dotted_and_dashed_ids():
    FigureDataset("fig3.9", ("x",), ())
    FigureDataset("hist_post-inl", ("x",), ())


def test_dataset_rejects_empty_columns_and_ragged_rows():
    with pytest.raises(ConfigError):
        FigureDataset("f", (), ())
    with pytest.raises(ConfigError):
        FigureDataset("f", ("a", "b"), ((1,),))


# ---------------------------------------------------------------------------
# CSV + meta emission
# ---------------------------------------------------------------------------


def test_emit_figure_writes_csv_and_meta(tmp_path):
    dataset = FigureDataset(
        "demo",
        ("name", "value", "note"),
        (("a", 1.5, None), ("b", -2, "x,y"), ("c", 0.125, 'say "hi"')),
        meta={"seed": 3},
    )
    paths = emit_figure(dataset, str(tmp_path))
    assert [os.path.basename(p) for p in paths] == ["demo.csv", "demo.meta.json"]
    rows = read_csv(paths[0])
    assert rows[0] == ["name", "value", "note"]
    assert rows[1] == ["a", "1.5", ""]
    assert rows[2] == ["b", "-2", "x,y"]  # comma survives quoting
    assert rows[3] == ["c", "0.125", 'say "hi"']
    meta = json.loads(file_bytes(paths[1]))
    assert meta["figure_id"] == "demo"
    assert meta["columns"] == ["name", "value", "note"]
    assert meta["n_rows"] == 3
    assert meta["seed"] == 3


def test_emit_figure_empty_dataset_is_header_only(tmp_path):
    paths = emit_figure(FigureDataset("empty", ("a", "b"), ()), str(tmp_path))
    assert file_bytes(paths[0]) == b"a,b\n"


def test_emit_figure_uses_lf_line_endings(tmp_path):
    paths = emit_figure(FigureDataset("lf", ("a",), ((1,), (2,))), str(tmp_path))
    content = file_bytes(paths[0])
    assert b"\r" not in content
    assert content.endswith(b"\n")


def test_reemission_is_byte_identical(tmp_path):
    dataset = FigureDataset("stable", ("x", "y"), ((1, 2.5), (3, 0.1)), meta={"k": 1})
    first = [file_bytes(p) for p in emit_figure(dataset, str(tmp_path))]
    second = [file_bytes(p) for p in emit_figure(dataset, str(tmp_path))]
    assert first == second


def test_emit_figure_creates_output_directory(tmp_path):
    target = tmp_path / "deep" / "nested"
    paths = emit_figure(FigureDataset("d", ("a",), ()), str(target))
    assert os.path.isfile(paths[0])


# ---------------------------------------------------------------------------
# JSON + checksums + manifest
# ---------------------------------------------------------------------------


def test_emit_json_is_sorted_and_newline_terminated(tmp_path):
    path = emit_json({"b": 1, "a": [1, 2]}, str(tmp_path / "x.json"))
    content = file_bytes(path)
    assert content == b'{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def test_emit_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        emit_json({"x": float("nan")}, str(tmp_path / "bad.json"))


def test_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"subset sums" * 1000)
    assert sha256_of(str(path)) == hashlib.sha256(b"subset sums" * 1000).hexdigest()


def test_write_manifest_checksums_every_artifact(tmp_path):
    paths = emit_figure(FigureDataset("m", ("a",), ((1,),)), str(tmp_path))
    manifest = RunManifest(
        subcommand="study failure-rate",
        config={"study.n": 12},
        overrides={"seed": 9},
        master_seed=9,
        samples=100,
        threads=2,
        out_dir=str(tmp_path),
    )
    manifest_path = write_manifest(manifest, paths)
    data = json.loads(file_bytes(manifest_path))
    assert data["subcommand"] == "study failure-rate"
    assert data["overrides"] == {"seed": 9}
    assert data["master_seed"] == 9
    assert data["samples"] == 100
    assert data["threads"] == 2
    assert set(data["artifacts"]) == {"m.csv", "m.meta.json"}
    for path in paths:
        assert data["artifacts"][os.path.basename(path)] == sha256_of(path)
