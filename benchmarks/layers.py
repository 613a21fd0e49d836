"""Per-layer metrics of the traced run.

The layers are the ftjsim modules.  Their metrics come from the spans and
counter hooks that ``spans.Tracer`` records around each public function.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("cli", "config", "conduction", "device", "variability", "crossbar", "inference")


def _cells(xbar) -> int:
    return int(xbar.w.size)


COUNTERS = {
    "crossbar.sneak_ratio": lambda a, r: {"paths": (a["xbar"].rows - 1) * (a["xbar"].cols - 1)},
    "crossbar.write_cell": lambda a, r: {"disturbed": r.disturbed},
    "crossbar.program_write_verify": lambda a, r: {
        "cells": _cells(a["xbar"]),
        "cell_iterations": r.mean_iterations * _cells(a["xbar"]),
        "converged_cells": r.converged_fraction * _cells(a["xbar"]),
    },
    # One multiply-accumulate per input row, cell and input vector.
    "crossbar.read_vmm": lambda a, r: {"macs": np.size(a["x"]) * a["xbar"].cols},
    "variability.sample_endpoint_arrays": lambda a, r: {"devices": a["n"]},
}

# name -> unit; every one is reported on every workload, 0 where it does not run.
PER_LAYER = {
    "crossbar.sneak_ratio.s": "s",
    "crossbar.sneak_ratio.self_s": "s",
    "crossbar.sneak_ratio.paths": "count",
    "crossbar.sneak_ratio.us_per_path": "us",
    "crossbar.write_cell.calls": "count",
    "crossbar.write_cell.self_s": "s",
    "crossbar.write_cell.disturbed": "count",
    "crossbar.program_write_verify.s": "s",
    "crossbar.program_write_verify.mean_iterations": "count",
    "crossbar.program_write_verify.converged_fraction": "ratio",
    "crossbar.program_open_loop.s": "s",
    "crossbar.Crossbar.create.self_s": "s",
    "crossbar.read_vmm.calls": "count",
    "crossbar.read_vmm.s": "s",
    "crossbar.read_vmm.macs": "count",
    "crossbar.Crossbar.snapshot_csv.s": "s",
    "variability.sample_endpoint_arrays.s": "s",
    "variability.sample_endpoint_arrays.self_s": "s",
    "variability.sample_endpoint_arrays.devices": "count",
    "variability.sample_endpoint_arrays.us_per_device": "us",
    "variability.truncated_normal.calls": "count",
    "variability.truncated_normal.self_s": "s",
    "device.step_weight.calls": "count",
    "device.step_weight.self_s": "s",
    "device.apply_pulse.calls": "count",
    "device.run_sequence.s": "s",
    "device.fit_update_curve.s": "s",
    "device.hysteresis_loop.s": "s",
    "conduction.current.calls": "count",
    "conduction.current.self_s": "s",
    "conduction.fit_ohmic.s": "s",
    "conduction.fit_poole_frenkel.s": "s",
    "inference.train_mlp.s": "s",
    "inference.program_network.self_s": "s",
    "inference.AnalogNetwork.forward.s": "s",
    "inference.evaluate.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "config.load_config.s": "s",
    "import.s": "s",
    "import.scipy_optimize_frac": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def iteration_metrics(table: dict[str, dict], top_level: float, counts: dict,
                      iteration: int, wall: float) -> dict:
    """Per-layer metrics of one traced iteration from its span table and counts."""

    def span(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0.0)

    def count(key: str) -> float:
        return counts.get((iteration, key), 0.0)

    out = {}
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if field in ("s", "self_s", "calls"):
            out[metric] = float(span(name, field))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((row["self_s"] for name, row in table.items()
                                      if name.split(".", 1)[0] == layer), 0.0)
    out["crossbar.sneak_ratio.paths"] = count("crossbar.sneak_ratio.paths")
    out["crossbar.sneak_ratio.us_per_path"] = 1e6 * _ratio(
        span("crossbar.sneak_ratio", "s"), out["crossbar.sneak_ratio.paths"])
    out["crossbar.write_cell.disturbed"] = count("crossbar.write_cell.disturbed")
    cells = count("crossbar.program_write_verify.cells")
    out["crossbar.program_write_verify.mean_iterations"] = _ratio(
        count("crossbar.program_write_verify.cell_iterations"), cells)
    out["crossbar.program_write_verify.converged_fraction"] = _ratio(
        count("crossbar.program_write_verify.converged_cells"), cells)
    out["crossbar.read_vmm.macs"] = count("crossbar.read_vmm.macs")
    out["variability.sample_endpoint_arrays.devices"] = count(
        "variability.sample_endpoint_arrays.devices")
    out["variability.sample_endpoint_arrays.us_per_device"] = 1e6 * _ratio(
        span("variability.sample_endpoint_arrays", "s"),
        out["variability.sample_endpoint_arrays.devices"])
    out["trace.wall_s"] = wall
    out["trace.coverage_frac"] = _ratio(top_level, wall)
    out["trace.spans"] = float(sum(row["calls"] for row in table.values()))
    return out
