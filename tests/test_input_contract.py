"""Property test of the input contract for the CSV files `fit` and `infer --dataset` read.

Every generated file, well-formed or not, must end in exit 0, 2 or 3 with no
exception escaping ``main`` and no warning raised; a refusal prints exactly one
``ftjsim:`` line, and a run that succeeds writes no ``nan`` into any CSV.
"""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftjsim.cli import main
from ftjsim.conduction import SweepRecord
from ftjsim.device import TRACE_CSV_HEADER, TRACE_DIRECTIONS

OVER_LONG_CELL = "1" * 140_000  # past the csv module's default field limit of 131072
ODD_CELLS = ["nan", "inf", "-inf", "5e-324", "1e300", "-1e300", "0", "abc", ""]
FAULTS = ["odd_cell", "ragged_row", "over_long_cell", "not_utf8", "blank_line"]
INFER = ["infer", "--seeds", "1", "--dataset"]


def _trace_row(count: int, direction: str) -> list:
    """A point on a saturating staircase, so that a well-formed trace fits quickly."""
    rise = 1.0 - math.exp(-count / 2.0)
    g = 1e-9 * (1.0 + 6.0 * (rise if direction == "potentiation" else 1.0 - rise))
    return [str(count), direction, repr(g), repr(1.0 / g)]


@st.composite
def _rows(draw, kind: str) -> tuple[tuple, list]:
    """Header and plausible rows of one input kind, at most 12 rows and 4 features."""
    if kind == "sweep":  # a grid of voltages at each temperature
        temps = draw(st.lists(st.sampled_from(["300", "320", "350"]), max_size=3, unique=True))
        volts = draw(st.lists(st.sampled_from(["0.02", "0.05", "0.1", "0.25", "-0.3"]),
                              max_size=4, unique=True))
        return SweepRecord.CSV_HEADER, [[v, repr(draw(st.floats(1e-12, 1e-6))), t]
                                        for t in temps for v in volts]
    if kind == "trace":  # a staircase of counts 0..n-1 in each direction
        n = {d: draw(st.integers(0, 6)) for d in TRACE_DIRECTIONS}
        return TRACE_CSV_HEADER, [_trace_row(c, d) for d in TRACE_DIRECTIONS for c in range(n[d])]
    n_features = draw(st.integers(1, 4))
    header = tuple(f"feature_{i}" for i in range(n_features)) + ("label",)
    row = st.tuples(*[st.floats(-1.0, 1.0).map(repr)] * n_features, st.integers(0, 2).map(str))
    return header, [list(r) for r in draw(st.lists(row, max_size=12))]


@st.composite
def csv_inputs(draw):
    """(argv before the input path, file bytes) of a generated fit or infer input: plausible
    rows, then up to three faults, each applied once."""
    kind = draw(st.sampled_from(["sweep", "trace", "dataset"]))
    header, body = draw(_rows(kind))
    rows = [list(header)] + body
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    if "odd_cell" in faults:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
        rows[i][j] = draw(st.sampled_from(ODD_CELLS))
    if "over_long_cell" in faults:
        rows[draw(st.integers(0, len(rows) - 1))][0] = OVER_LONG_CELL
    lines = [",".join(r) for r in rows]
    if "ragged_row" in faults:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([lines[i] + ",7", lines[i].rpartition(",")[0]]))
    if "blank_line" in faults:
        lines.insert(draw(st.integers(0, len(lines))), "")
    data = ("\n".join(lines) + "\n").encode()
    if "not_utf8" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return (INFER if kind == "dataset" else ["fit"]), data


def _is_nan(cell: str) -> bool:
    try:
        return math.isnan(float(cell))
    except ValueError:
        return False


def _dataset(first_line: str) -> bytes:
    return (first_line + "feature_0,label\n"
            + "".join(f"0.{k},{k % 2}\n" for k in range(6))).encode()


def _sweep(row: str) -> bytes:
    return ",".join(SweepRecord.CSV_HEADER).encode() + b"\n" + row.encode("latin-1") + b"\n"


@given(case=csv_inputs())
@example(case=(INFER, _dataset("\n")))
@example(case=(INFER, b"\n"))
@example(case=(INFER, _dataset(f"{OVER_LONG_CELL}\n")))
@example(case=(["fit"], _sweep("0.05,\xff,300")))
@example(case=(["fit"], _sweep(f"0.05,{OVER_LONG_CELL},300")))
@example(case=(["fit"], _sweep("")))
@example(case=(["fit"], _sweep("0.05,1e-9,300,7\n0.1,2e-9,300,7")))
@example(case=(["fit"], _sweep("0.05,0." + "0" * 140_000 + "1,300")))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_any_input_file_exits_cleanly(case):
    args, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "input.csv", Path(tmp) / "out"
        path.write_bytes(data)
        stderr = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print past the one-line contract
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(["--out", str(out), *args, str(path)])
        assert code in (0, 2, 3)
        lines = stderr.getvalue().splitlines()
        if code:
            assert len(lines) == 1 and lines[0].startswith("ftjsim: ")
            return
        assert not lines
        for report in out.glob("*.csv"):
            with open(report, newline="") as fh:
                assert not any(_is_nan(cell) for row in csv.reader(fh) for cell in row), report
