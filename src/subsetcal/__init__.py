"""Deterministic workbench for subset-selection calibration of matched element arrays.

Core idea: build an analog quantity (a current, a transistor width, a delay) out
of n nominally sized unit elements and switch on exactly k of them.  The C(n, k)
possible selections give post-fabrication redundancy; choosing the selection whose
realized sum best matches a target calibrates out random mismatch.  Arithmetic
(unequally stepped) nominal sizing widens the reachable range so that systematic
offsets can be absorbed as well.

Modules:

- ``mismatch``  — the one selection layer: draws, row-index subset sums, timing law
- ``studies``   — Monte Carlo calibration yield/resolution/range studies
- ``waveform``  — exact piecewise-constant periodic waveform algebra
- ``hrmixer``   — 8-phase harmonic-rejection receiver model and its calibration
- ``csdac``     — 14-bit segmented current-steering DAC model, calibration flows
- ``cli``       — deterministic batch runner emitting CSV/JSON datasets
"""

from __future__ import annotations

__version__ = "0.1.0"
