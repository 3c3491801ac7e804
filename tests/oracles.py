"""Reference implementations that only the tests call.

The sequential DAC decode, the per-cell amplitude residuals, the textbook
ideal receiver, a scalar failure-rate query and a waveform scaled by a gain:
the tests check the package's fast paths against them, and no program code
needs them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from subsetcal.csdac import DacSample, ucc_currents
from subsetcal.hrmixer import HrConfig, HrReceiverSample, zero_variance_receiver
from subsetcal.mismatch import ConfigError, combination_index_matrix
from subsetcal.studies import StudyConfig, run_study
from subsetcal.waveform import EdgeWaveform


def dac_output(sample: DacSample, code: int) -> float:
    """Output current for one code: thermometer MSB decode + binary LSB part.

    Kept as a plain sequential sum — the readable reference semantics the
    vectorized ``transfer_curve`` must agree with.
    """
    if not isinstance(code, (int, np.integer)):
        raise ConfigError(f"code must be an integer, got {type(code).__name__}")
    if not 0 <= code < sample.config.n_codes:
        raise ConfigError(
            f"code must be in [0, {sample.config.n_codes - 1}], got {code}"
        )
    segments = int(code) >> sample.config.lsb_bits
    residue = int(code) & (sample.config.lsb_levels - 1)
    combos = combination_index_matrix(sample.config.n, sample.config.k)
    total = 0.0
    for cell in range(segments):
        selected = combos[sample.amplitude_selection[cell]]
        total += float(sample.amplitude[cell, selected].sum())
    for b, bit_current in enumerate(sample.lsb_bit_currents):
        if residue >> b & 1:
            total += bit_current
    return total


def amplitude_residuals(sample: DacSample) -> np.ndarray:
    """Per-UCC current minus the sample's realized reference current."""
    return ucc_currents(sample) - sample.reference_current


def ideal_receiver(config: Optional[HrConfig] = None) -> HrReceiverSample:
    """Zero-variance receiver with exact 1:sqrt(2):1 recombination weights.

    Every harmonic-cancellation condition holds exactly, so HRR3 = HRR5 = inf;
    useful as the textbook reference point and as a calibration no-op check.
    """
    base = config if config is not None else HrConfig()
    return zero_variance_receiver(
        dataclasses.replace(base, weights=(1.0, math.sqrt(2.0), 1.0))
    )


def failure_rate(config: StudyConfig, width: Optional[float] = None) -> float:
    """Scalar query: the study's failure rate at one window width."""
    if width is not None:
        config = dataclasses.replace(config, window_widths=(width,))
    elif len(config.window_widths) != 1:
        raise ConfigError("failure_rate without width needs a single-width config")
    return run_study(config).rows[0].failure_rate


def scaled(wave: EdgeWaveform, gain: float) -> EdgeWaveform:
    """``wave`` with every level and its DC term multiplied by ``gain``."""
    return EdgeWaveform(wave.period, wave.times, wave.levels * gain, wave.dc * gain)
