"""The benchmark workloads: the ftjsim commands each iteration issues, the
input files the benchmark generates for them and the checks on their outputs.

Every input comes from the workload seed.  The seed is also the master seed
passed to each command, so one seed gives the same outputs on every repeat.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

K_B_EV = 8.617333262e-5                       # eV/K
SWEEP_HEADER = ("voltage_V", "current_density_A_per_um2", "temperature_K")
SWEEP_TEMPS = 300.0 + 10.0 * np.arange(7)     # K, 300..360
OHMIC_VOLTAGES = np.linspace(0.01, 0.1, 50)   # V, inside the Ohmic regime
PF_VOLTAGES = np.linspace(0.2, 0.3, 400)      # V, inside the field-enhanced regime
SWEEP_NOISE = 0.01                            # relative std on J
PF_BETA = 0.4                                 # eV V^-1/2
PF_ONSET = 0.2                                # V

# Output bounds, taken from the acceptance tests.
FIT_REL_TOL = 0.05                # test_06, fits at 1 % noise
MEMORY_WINDOW = (1.35, 1.45)      # test_03: 1.4 V within 0.05 V
C2C_WINDOW = (0.095, 0.105)       # test_09
D2D_WINDOW = (0.097, 0.103)       # test_09
MAX_MEAN_DEGRADATION = 5.0        # test_10, percentage points

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (label, argv after the common flags) per command; the label names the
    # command's output directory.  Arguments: run inputs dir, iteration dir.
    commands: Callable[[Path, Path], list[tuple[str, list[str]]]]
    check: Callable[[Path, dict], list[Check]]
    # Writes input files for a seed; returns the values they were made from.
    prepare: Callable[[int, Path], dict] = lambda seed, inputs: {}


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _within(value: float, lo: float, hi: float) -> bool:
    return math.isfinite(value) and lo <= value <= hi


# -- array_64 ---------------------------------------------------------------

def _array_commands(inputs: Path, it: Path) -> list[tuple[str, list[str]]]:
    return [("xbar", ["xbar", "--writes", "1000"])]


def _array_check(it: Path, truth: dict) -> list[Check]:
    metrics = dict(_read_rows(it / "xbar" / "xbar_disturb.csv"))
    disturbed = int(metrics["disturbed_cells"])
    sneak = float(metrics["sneak_ratio_at_0.5V"])
    return [
        ("array_64.disturbed_cells_zero", disturbed == 0, f"disturbed_cells={disturbed}"),
        ("array_64.sneak_ratio_finite_gt_1", math.isfinite(sneak) and sneak > 1,
         f"sneak_ratio={sneak!r}"),
    ]


# -- infer_mc ---------------------------------------------------------------

INFER_MODES = ("open_loop", "write_verify")


def _infer_commands(inputs: Path, it: Path) -> list[tuple[str, list[str]]]:
    return [(mode, ["infer", "--hidden", "64,64", "--seeds", "10", "--mode", mode])
            for mode in INFER_MODES]


def _infer_check(it: Path, truth: dict) -> list[Check]:
    checks = []
    for mode in INFER_MODES:
        rows = _read_rows(it / mode / "infer_report.csv")
        mean = float(np.mean([float(r[3]) for r in rows])) if rows else math.nan
        checks.append((f"infer_mc.{mode}.mean_degradation_lt_5",
                       len(rows) == 10 and mean < MAX_MEAN_DEGRADATION,
                       f"replicas={len(rows)} mean_degradation={mean!r}"))
    return checks


# -- device_char ------------------------------------------------------------

def _write_sweep(path: Path, v: np.ndarray, log_g: Callable, rng: np.random.Generator) -> None:
    """Sweep CSV of J = V * exp(log_g(V, T)) with multiplicative Gaussian noise."""
    vv, tt = (a.ravel() for a in np.meshgrid(v, SWEEP_TEMPS))
    j = vv * np.exp(log_g(vv, tt)) * (1.0 + SWEEP_NOISE * rng.standard_normal(vv.size))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows([f"{a:.17g}" for a in row] for row in zip(vv, j, tt))


def _device_prepare(seed: int, inputs: Path) -> dict:
    """Ohmic and Poole-Frenkel sweeps from the textbook laws.

    The barrier is that of the anchored forward model, e_a + beta*sqrt(onset),
    which is what the fitter reports for such data.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xDC,)))
    e_a = float(rng.uniform(0.12, 0.18))
    phi_b = e_a + PF_BETA * math.sqrt(PF_ONSET)
    _write_sweep(inputs / "ohmic_sweep.csv", OHMIC_VOLTAGES,
                 lambda v, t: -e_a / (K_B_EV * t), rng)
    _write_sweep(inputs / "pf_sweep.csv", PF_VOLTAGES,
                 lambda v, t: (PF_BETA * np.sqrt(v) - phi_b) / (K_B_EV * t), rng)
    return {"e_a": e_a, "phi_b": phi_b}


def _device_commands(inputs: Path, it: Path) -> list[tuple[str, list[str]]]:
    return [
        ("iv", ["iv", "--temps", "250,275,300,325,350"]),
        ("pulse", ["pulse"]),
        ("bench", ["bench"]),
        ("fit", ["fit", str(it / "pulse" / "pulse_trace.csv"),
                 str(inputs / "ohmic_sweep.csv"), str(inputs / "pf_sweep.csv")]),
    ]


def _device_check(it: Path, truth: dict) -> list[Check]:
    fit = {(f, p): v for f, _, p, v in _read_rows(it / "fit" / "fit_report.csv")}
    bench = {name: value for name, value, _ in _read_rows(it / "bench" / "bench.csv")}
    e_a = float(fit.get(("ohmic_sweep.csv", "e_a_eV"), "nan"))
    phi_b = float(fit.get(("pf_sweep.csv", "phi_b_eV"), "nan"))
    window = float(bench["memory_window"])
    c2c = float(bench["cycle_to_cycle_sigma"])
    d2d = float(bench["device_to_device_sigma"])
    return [
        ("device_char.e_a_within_5pct", abs(e_a / truth["e_a"] - 1) <= FIT_REL_TOL,
         f"e_a={e_a!r} true={truth['e_a']!r}"),
        ("device_char.phi_b_within_5pct", abs(phi_b / truth["phi_b"] - 1) <= FIT_REL_TOL,
         f"phi_b={phi_b!r} true={truth['phi_b']!r}"),
        ("device_char.memory_window_1.4V", _within(window, *MEMORY_WINDOW),
         f"memory_window={window!r}"),
        ("device_char.c2c_sigma_window", _within(c2c, *C2C_WINDOW), f"c2c={c2c!r}"),
        ("device_char.d2d_sigma_window", _within(d2d, *D2D_WINDOW), f"d2d={d2d!r}"),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("array_64", "xbar at the default 64x64 config: write-verify, 1000 half-select "
             "writes and the sneak solver, which is about 90 % of it; no inference",
             _array_commands, _array_check),
    Workload("infer_mc", "infer --hidden 64,64 --seeds 10 in open-loop and write-verify mode: "
             "population sampler, programming, read_vmm and training; no sneak solver",
             _infer_commands, _infer_check),
    Workload("device_char", "iv, noisy pulse, bench and fit on generated sweeps: scalar "
             "conduction, run_sequence, hysteresis and the fitters; no array programming",
             _device_commands, _device_check, _device_prepare),
)}
