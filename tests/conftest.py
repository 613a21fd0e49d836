"""Fixtures shared by the test modules."""

import csv

import pytest


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
