"""Fixtures and helpers shared by the test modules."""

import csv
from importlib import resources

import numpy as np
import pytest

from ftjsim.conduction import K_B_EV, SweepRecord
from ftjsim.device import trace_from_table
from ftjsim.table import read_table, write_table


def _save_dataset_csv(path, x, y) -> None:
    """Write (x, y) as a dataset CSV: feature_0 .. feature_{n-1} then label."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feature_{i}" for i in range(x.shape[1])] + ["label"])
        for xi, yi in zip(x, y):
            writer.writerow([f"{v:.17g}" for v in xi] + [int(yi)])


@pytest.fixture
def save_dataset_csv():
    return _save_dataset_csv


def default_config_text() -> str:
    """The defaults file shipped with the package."""
    return resources.files("ftjsim").joinpath("data/defaults.json").read_text()


def synthetic_pf_sweep(voltages, temperatures, phi_b: float, beta: float,
                       ln_prefactor: float = 0.0, noise: float = 0.0,
                       rng: np.random.Generator | None = None) -> SweepRecord:
    """Textbook field-enhanced data J = exp(ln_prefactor) * V * exp((beta*sqrt(V) - phi_b)/kT).

    ``beta = 0`` with ``phi_b = e_a`` gives Ohmic data J ~ V exp(-e_a/kT).
    ``noise`` is the relative std of multiplicative Gaussian noise on J.
    """
    vv, tt = np.meshgrid(np.asarray(voltages, float), np.asarray(temperatures, float))
    vv, tt = vv.ravel(), tt.ravel()
    j = np.exp(ln_prefactor) * vv * np.exp((beta * np.sqrt(vv) - phi_b) / (K_B_EV * tt))
    if noise > 0:
        if rng is None:
            raise ValueError("rng required when noise > 0")
        j = j * (1.0 + noise * rng.standard_normal(j.size))
    return SweepRecord(vv, j, tt)


def sweep_to_csv(record: SweepRecord, path) -> None:
    write_table(path, SweepRecord.CSV_HEADER, ([f"{v:.17g}", f"{j:.17g}", f"{t:.17g}"]
                for v, j, t in zip(record.voltage, record.current_density, record.temperature)))


def sweep_from_csv(path) -> SweepRecord:
    return SweepRecord(*read_table(path, numeric=(SweepRecord.CSV_HEADER,))[1].T)


def read_trace_csv(path) -> list:
    return trace_from_table(*read_table(path))
