"""The summary step of tools/bench_compare.py, on fixed sample lists."""

import importlib.util
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def test_quartiles_interpolate_linearly():
    assert bench_compare.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_compare.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75, "n": 2}


def test_a_clear_gain_wins_every_pair_and_clears_the_iqr():
    pairs = [(0.56, 0.40), (0.55, 0.39), (0.58, 0.41), (0.54, 0.40), (0.57, 0.38)]
    cmp = bench_compare.compare(pairs, "lower")
    assert (cmp["pairs"], cmp["won"]) == (5, 5)
    assert cmp["gap"] == pytest.approx(0.56 - 0.40)
    assert cmp["parent_iqr"] == pytest.approx(0.57 - 0.55)
    assert cmp["verdict"] == "gain"


def test_ties_count_for_neither_side_and_noise_stays_within_the_iqr():
    pairs = [(1.0, 1.0), (1.0, 1.1), (1.2, 1.1), (0.8, 0.9), (1.1, 1.0)]
    cmp = bench_compare.compare(pairs, "lower")
    assert cmp["won"] == 2
    assert cmp["gap"] == pytest.approx(0.0)
    assert cmp["verdict"] == "neither"


def test_a_median_gap_without_enough_pairs_won_is_not_a_gain():
    # Five pairs won of ten: the medians differ by more than the parent's
    # IQR, but a gain needs 90 % of the pairs.
    pairs = [(1.00, 0.50), (1.01, 0.51), (1.02, 0.52), (1.03, 0.53), (1.04, 0.54),
             (1.00, 1.05), (1.01, 1.06), (1.02, 1.07), (1.03, 1.08), (1.04, 1.09)]
    cmp = bench_compare.compare(pairs, "lower")
    assert cmp["won"] == 5
    assert cmp["gap"] > cmp["parent_iqr"]
    assert cmp["verdict"] == "neither"


def test_a_median_worse_by_more_than_the_iqr_is_a_loss():
    pairs = [(43.60, 44.05), (43.62, 44.07), (43.65, 44.08), (43.58, 44.10), (43.63, 44.06)]
    cmp = bench_compare.compare(pairs, "lower")
    assert cmp["won"] == 0
    assert cmp["verdict"] == "loss"


def test_higher_is_better_flips_the_sign():
    pairs = [(1.0, 2.0), (1.1, 2.1), (0.9, 1.9)]
    cmp = bench_compare.compare(pairs, "higher")
    assert cmp["won"] == 3
    assert cmp["gap"] == pytest.approx(1.0)
    assert cmp["verdict"] == "gain"
    assert bench_compare.compare(pairs, "lower")["verdict"] == "loss"


def test_interleaved_setup_alternates_one_interpreter_at_a_time():
    calls = []
    values = {"parent": iter([0.10, 0.12, 0.11, 0.13]), "change": iter([0.09, 0.11, 0.10, 0.12])}

    def measure(side):
        calls.append(side)
        return next(values[side])

    got = bench_compare.interleaved_setup(measure, 4)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert got["parent_change"] == [[0.10, 0.09], [0.12, 0.11], [0.11, 0.10], [0.13, 0.12]]
    assert (got["pairs"], got["won"]) == (4, 4)
    assert got["parent"]["median"] == pytest.approx(0.115)
    assert got["change"]["median"] == pytest.approx(0.105)
    assert got["ratio_of_medians"] == pytest.approx(0.105 / 0.115)
    assert got["pairwise_ratio"]["n"] == 4
    assert got["verdict"] == bench_compare.compare(
        [tuple(p) for p in got["parent_change"]], "lower")["verdict"]


def test_setup_sample_times_a_fresh_interpreter_without_bytecode(tmp_path):
    root = TOOL.parents[1]
    side = tmp_path / "side"
    shutil.copytree(root / "src" / "ftjsim", side / "src" / "ftjsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (side / "benchmarks").mkdir()
    shutil.copy(root / "benchmarks" / "run.py", side / "benchmarks" / "run.py")
    (side / "src" / "ftjsim" / "__pycache__").mkdir()  # removed before the sample
    code, blas = bench_compare.setup_child(side)
    assert "import ftjsim.cli" in code and set(blas.values()) == {"1"}
    seconds = bench_compare.setup_sample(side, [side], (code, blas))
    assert 0 < seconds < 60
    assert not list(side.rglob("__pycache__"))
