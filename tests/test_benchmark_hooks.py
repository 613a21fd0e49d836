"""The benchmark's counter hooks still bind to the ftjsim functions they trace.

``benchmarks/layers.py`` names each traced function and reads its arguments by
parameter name; a renamed parameter would make every traced benchmark run fail.
"""

import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ftjsim.crossbar import Crossbar
from ftjsim.device import DeviceParams, PulseSpec
from ftjsim.variability import VariabilityParams

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
PARAMS = DeviceParams()
VP = VariabilityParams(seed=7)


def load_layers():
    """benchmarks/layers.py as a module, leaving no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def xbar_3x3():
    return Crossbar.create(3, 3, PARAMS, VP)


# One 3x3 call per traced function, positional as the command line passes them,
# with the counters each must yield (None: any finite number).
CASES = {
    "crossbar.sneak_ratio": (lambda: (xbar_3x3(), 1, 1, 0.5), {"paths": 4}),
    "crossbar.write_cell": (lambda: (xbar_3x3(), 0, 2, PulseSpec(PARAMS.v_set_full, 50e-6)),
                            {"disturbed": 0}),
    "crossbar.program_write_verify": (
        lambda: (xbar_3x3(), np.full((3, 3), 0.5 * (PARAMS.g_hrs + PARAMS.g_lrs))),
        {"cells": 9, "cell_iterations": None, "converged_cells": None}),
    "crossbar.read_vmm": (lambda: (xbar_3x3(), np.full((2, 3), 0.05)), {"macs": 18}),
    "variability.sample_endpoint_arrays": (
        lambda: (9, PARAMS, VP, np.random.default_rng(3)), {"devices": 9}),
}


def test_every_counter_has_a_case():
    assert set(load_layers().COUNTERS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_counter_hook_binds_and_counts(name):
    hook = load_layers().COUNTERS[name]
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"ftjsim.{module}"), attr)
    make_args, expected = CASES[name]
    args = make_args()
    result = fn(*args)
    bound = inspect.signature(fn).bind(*args)
    bound.apply_defaults()
    counts = hook(bound.arguments, result)
    assert set(counts) == set(expected)
    for key, value in counts.items():
        assert isinstance(value, (int, float, np.integer, np.floating)), key
        assert math.isfinite(value), key
        if expected[key] is not None:
            assert value == expected[key], key
