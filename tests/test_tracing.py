"""The benchmark's tracer against the program it wraps.

``perfbench/tracing.py`` looks up every traced function by module and name
and patches it in each ``subsetcal`` module that holds it.  A rename or a
removal in ``src/`` would otherwise show only when a traced benchmark run
fails; these tests install the tracer over the loaded package, run one
traced call, and check that uninstalling puts every original back.  A traced
yield study shows that the DAC flows run the traced calibration layers.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import numpy as np
import pytest

import subsetcal.cli  # noqa: F401  (loads every subsetcal module)
from subsetcal.csdac import DacConfig, SelfHealConfig
from subsetcal.hrmixer import sweep_hrr

from oracles import zero_variance_receiver

TRACING_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces() -> dict[str, dict]:
    """A copy of every loaded ``subsetcal`` module's namespace."""
    return {
        name: dict(module.__dict__)
        for name, module in sys.modules.items()
        if name == "subsetcal" or name.startswith("subsetcal.")
    }


def test_every_traced_function_exists(tracing):
    for module_name, function in tracing.TRACED:
        assert callable(getattr(sys.modules[f"subsetcal.{module_name}"], function))


def test_install_then_uninstall_restores_the_originals(tracing):
    receiver = zero_variance_receiver()
    before = package_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, function in tracing.TRACED:
            module = sys.modules[f"subsetcal.{module_name}"]
            assert getattr(module, function) is not before[module.__name__][function]
        hrmixer = sys.modules["subsetcal.hrmixer"]
        hrmixer.sweep_hrr(receiver, [750e6], [3])
    finally:
        tracer.uninstall()
    assert [span[4] for span in tracer.spans] == ["hrmixer.sweep_hrr"]
    after = package_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        changed = [key for key, value in namespace.items() if after[name][key] is not value]
        assert changed == [], name
    assert sys.modules["subsetcal.hrmixer"].sweep_hrr is sweep_hrr


def test_the_tracer_sees_the_dac_calibration_layers(tracing):
    """The yield blocks call the calibration layers by their public names, so
    a traced study records a span for each, ``find_best`` once per converter,
    and writes the rows of an untraced run."""
    csdac = sys.modules["subsetcal.csdac"]
    runs = ((DacConfig(), "eses"), (DacConfig(), "timing"), (SelfHealConfig(), "self-heal"))
    untraced = [csdac.yield_study(config, 100, flow, master_seed=3).rows for config, flow in runs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [
            csdac.yield_study(config, 100, flow, master_seed=3, threads=1).rows
            for config, flow in runs
        ]
    finally:
        tracer.uninstall()
    names = [span[4] for span in tracer.spans]
    layers = (
        "mismatch.find_best", "csdac.calibrate_amplitude_eses", "csdac.calibrate_timing",
        "csdac.delay_errors", "csdac.duty_errors", "csdac.healed_linearity",
    )
    assert [name for name in layers if name not in names] == []
    assert names.count("mismatch.find_best") == 100
    for rows, expected in zip(traced, untraced, strict=True):
        np.testing.assert_array_equal(np.array(rows), np.array(expected))
