"""Figure datasets, deterministic CSV/JSON emission, and run manifests.

Everything here is byte-reproducible: floats are always formatted with
``%.12g``, CSV uses RFC-4180 quoting with LF line endings regardless of
platform or locale, and JSON is emitted with sorted keys.  Emitting the same
dataset twice yields identical files, which is what makes the thread-count
and re-run determinism contracts testable at the byte level.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

from .mismatch import ConfigError

__all__ = [
    "Cell",
    "FigureDataset",
    "RunManifest",
    "emit_figure",
    "emit_json",
    "format_value",
    "sha256_of",
    "write_manifest",
]

Cell = Union[str, int, float, None]

_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def format_value(value: Cell) -> str:
    """Fixed, locale-independent cell formatting: 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    raise ConfigError(f"unsupported cell type {type(value).__name__}: {value!r}")


@dataclass(frozen=True)
class FigureDataset:
    """Columnar data behind one emitted figure.

    ``figure_id`` names the output files (``<id>.csv`` and ``<id>.meta.json``)
    and must therefore be a safe file stem.  ``meta`` carries axis labels,
    units, sample counts — anything a plotting script needs besides the data.
    """

    figure_id: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _ID_PATTERN.match(self.figure_id):
            raise ConfigError(f"figure id {self.figure_id!r} is not a safe file stem")
        if not self.columns:
            raise ConfigError("a dataset needs at least one column")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ConfigError(
                    f"row {i} has {len(row)} cells, expected {len(self.columns)}"
                )


def emit_figure(dataset: FigureDataset, out_dir: str) -> list[str]:
    """Write ``<figure_id>.csv`` and ``<figure_id>.meta.json`` under out_dir.

    Returns the two file paths.  An empty dataset still writes the header
    row.  Re-emitting an identical dataset reproduces identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{dataset.figure_id}.csv")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(dataset.columns)
    for row in dataset.rows:
        writer.writerow([format_value(cell) for cell in row])
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())

    meta = {
        "figure_id": dataset.figure_id,
        "columns": list(dataset.columns),
        "n_rows": len(dataset.rows),
        **dataset.meta,
    }
    meta_path = os.path.join(out_dir, f"{dataset.figure_id}.meta.json")
    emit_json(meta, meta_path)
    return [csv_path, meta_path]


def emit_json(payload: dict, path: str) -> str:
    """Deterministic JSON file: sorted keys, two-space indent, trailing LF."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text + "\n")
    return path


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to re-run a study and check its outputs.

    ``config`` is the fully resolved key-value snapshot (defaults applied,
    command-line overrides folded in), so re-running the same subcommand with
    this snapshot reproduces every artifact byte for byte.
    """

    subcommand: str
    config: dict
    overrides: dict
    master_seed: int
    samples: Optional[int]
    threads: int
    out_dir: str


def write_manifest(
    manifest: RunManifest, paths: Sequence[str], directory: Optional[str] = None
) -> str:
    """Write ``manifest.json`` into ``directory`` (by default
    ``manifest.out_dir``): the manifest's fields and ``artifacts``, which
    maps each file of ``paths`` by name to its SHA-256."""
    payload = asdict(manifest)
    payload["artifacts"] = {os.path.basename(path): sha256_of(path) for path in paths}
    return emit_json(payload, os.path.join(directory or manifest.out_dir, "manifest.json"))
