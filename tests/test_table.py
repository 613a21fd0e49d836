"""The table module against the standard library: format_e12 against Python's own '%.12e',
write_columns against csv.writer, and the numeric read against float conversion."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftjsim import table
from ftjsim.table import format_e12, read_table, write_columns


def python_e12(x) -> list[bytes]:
    return [b"%.12e" % v for v in np.asarray(x, dtype=np.float64).ravel().tolist()]


def ulp_neighbours(values) -> list[float]:
    return [n for v in values for n in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


EXPLICIT = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
            2.0**-20,         # 9.5367431640625e-07: an exact tie, rounded to even
            9.9999999999995,  # 13 digits round up to 10: 1.000000000000e+01
            1.5, 0.1, 1e-10, 1e10, 1e11, 1e-11, 1.7976931348623157e308, 1e100, 1e-100]
POWERS = ulp_neighbours([10.0**k for k in range(-12, 13)])


@pytest.mark.parametrize("x", EXPLICIT + POWERS)
def test_explicit_values(x):
    assert format_e12(np.array([x])).tolist() == python_e12([x])


def test_keeps_shape_and_width():
    x = np.arange(1.0, 7.0).reshape(2, 3)
    out = format_e12(x)
    assert out.shape == (2, 3) and out.dtype == np.dtype("S20")
    assert format_e12(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_random_arrays(scale):
    x = np.random.default_rng(0).random(20_000) * scale
    assert format_e12(x).tolist() == python_e12(x)


def test_ties_at_every_exponent():
    # k / 2^m with few significant bits: many lie exactly on a 13-digit tie.
    k = np.arange(1, 4096, dtype=np.float64)
    x = np.concatenate([k * 2.0**m for m in range(-60, 20, 3)])
    assert format_e12(x).tolist() == python_e12(x)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), max_size=50),
       st.lists(st.integers(0, 2**64 - 1), max_size=50),
       st.lists(st.floats(1e-10, 1e11), max_size=50))
def test_equals_python_formatting(floats, patterns, in_range):
    x = np.concatenate([np.array(floats, dtype=np.float64),
                        np.array(patterns, dtype=np.uint64).view(np.float64),
                        np.array(in_range, dtype=np.float64)])
    assert format_e12(x).tolist() == python_e12(x)


def reference_table(header, columns) -> bytes:
    """csv.writer's bytes, a float written as '%.12e'."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*(np.asarray(c).tolist() for c in columns)):
        writer.writerow(["%.12e" % v if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def assert_writes_reference(path, header, columns):
    write_columns(path, header, columns)
    assert path.read_bytes() == reference_table(header, columns)


SIGNED = EXPLICIT + POWERS + [-v for v in EXPLICIT + POWERS]
LABELS = st.text(st.characters(codec="ascii", exclude_characters=',"\r\n\0'), min_size=1,
                 max_size=8)


def test_columns_of_every_kind(tmp_path):
    n = len(SIGNED)
    assert_writes_reference(tmp_path / "t.csv", ("x", "k", "label", "y"), [
        np.array(SIGNED), np.arange(n) * 7, np.array(["a b", "lrs", " x"] * n)[:n],
        np.abs(SIGNED)])


@pytest.mark.parametrize("x", [9.9999999999995e99, math.nextafter(1e100, 0), 1e-99,
                               math.nextafter(1e-99, 0), 9.99999999999995e-100, 9.95e-100])
def test_exponent_width_edges(tmp_path, x):
    # Records with a three-digit exponent, or whose rounding reaches one, beside two-digit ones.
    assert_writes_reference(tmp_path / "t.csv", ("x",), [np.array([x, -x, 1.5])])


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 20])
def test_partial_blocks(tmp_path, monkeypatch, n):
    monkeypatch.setattr(table, "_BLOCK_ROWS", 7)
    x = np.random.default_rng(n).standard_normal(n) * 1e-9
    assert_writes_reference(tmp_path / "t.csv", ("k", "x", "state"),
                            [np.arange(n), x, np.where(x < 0, "neg", "positive")])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_equals_csv_writer(tmp_path_factory, data):
    n = data.draw(st.integers(0, 30))
    kinds = data.draw(st.lists(st.sampled_from(["float", "int", "label"]), min_size=1, max_size=5))
    patterns = st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64).item())
    floats = st.one_of(st.floats(), st.sampled_from(SIGNED), patterns)
    cells = {"float": (floats, float), "int": (st.integers(0, 5000), np.int64),
             "label": (LABELS, str)}
    columns = [np.array(data.draw(st.lists(cells[kind][0], min_size=n, max_size=n)),
                        dtype=cells[kind][1]) for kind in kinds]
    header = tuple(data.draw(st.lists(LABELS, min_size=len(kinds), max_size=len(kinds))))
    assert_writes_reference(tmp_path_factory.mktemp("t") / "t.csv", header, columns)


@pytest.mark.parametrize("header, columns, error", [
    (("a,b",), [np.zeros(1)], ValueError), (("",), [np.zeros(1)], ValueError),
    (("a",), [np.array(['say "x"'])], ValueError), (("a",), [np.array(["x\ny"])], ValueError),
    (("a",), [np.array(["x\ry"])], ValueError), (("a",), [np.array(["x\0y"])], ValueError),
    (("a",), [np.array([""])], ValueError), (("a",), [np.array(["\u00e9"])], ValueError),
    (("a",), [np.array([3, -1])], ValueError),
    (("a", "b"), [np.zeros(2), np.zeros(3)], ValueError), (("a", "b"), [np.zeros(2)], ValueError),
    ((), [], ValueError), (("a",), [np.array([True])], TypeError),
], ids=["comma_header", "empty_header", "quote_label", "lf_label", "cr_label", "nul_label",
        "empty_label", "non_ascii_label", "negative_int", "uneven_columns", "missing_column",
        "no_columns", "bool_column"])
def test_refuses_what_csv_would_quote_or_cannot_be_written(tmp_path, header, columns, error):
    with pytest.raises(error):
        write_columns(tmp_path / "t.csv", header, columns)


SWEEP = ("voltage_V", "current_density_A_per_um2", "temperature_K")


def read_both(path) -> tuple[np.ndarray, np.ndarray]:
    """The numeric read and float conversion of read_table's cells, as uint64 bit patterns."""
    header, rows = read_table(path)
    reference = np.array(rows, dtype=float).reshape(-1, len(header))
    return (read_table(path, numeric=(header,))[1].view(np.uint64), reference.view(np.uint64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_numeric_read_equals_float_conversion(tmp_path_factory, data):
    cell = st.one_of(st.floats(allow_nan=False).map(repr), st.floats().map(lambda v: "%.17g" % v),
                     st.floats(-1e3, 1e3).map(lambda v: "%.3e" % v),
                     st.integers(-10**30, 10**30).map(str),
                     st.sampled_from(["nan", "-inf", "inf", "-0", "1e400", "5e-324", " 0.5"]))
    rows = data.draw(st.lists(st.lists(cell, min_size=3, max_size=3), max_size=12))
    quote = data.draw(st.booleans())
    lines = [",".join(SWEEP)] + [",".join(f'"{c}"' if quote else c for c in row) for row in rows]
    for _ in range(data.draw(st.integers(0, 3))):  # blank lines anywhere after the header
        lines.insert(data.draw(st.integers(1, len(lines))), "")
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    if data.draw(st.booleans()):  # else no final line break
        text += "\n"
    path = tmp_path_factory.mktemp("s") / "sweep.csv"
    path.write_bytes(text.encode())
    numeric, reference = read_both(path)
    assert numeric.shape == reference.shape and (numeric == reference).all()


def test_sweep_files_of_the_benchmark_read_alike(tmp_path):
    # 50 and 400 voltages at 7 temperatures, written as '%.17g' with 1 % noise.
    rng = np.random.default_rng(12345)
    for n in (50, 400):
        v, t = (a.ravel() for a in np.meshgrid(np.linspace(0.01, 0.3, n), 300 + 10 * np.arange(7)))
        j = v * np.exp(-0.15 / (8.617333262e-5 * t)) * (1 + 0.01 * rng.standard_normal(v.size))
        path = tmp_path / f"sweep_{n}.csv"
        table.write_table(path, SWEEP, ([f"{a:.17g}" for a in row] for row in zip(v, j, t)))
        numeric, reference = read_both(path)
        assert numeric.shape == (7 * n, 3) and (numeric == reference).all()


def write_sweep_text(path, body: str) -> None:
    path.write_text(",".join(SWEEP) + "\n" + body)


@pytest.mark.parametrize("body, message", [
    ("1,2,3,4\n5,6,7,8\n", "every row needs 3 cells"), ("1,2\n", "every row needs 3 cells"),
    ("1,2,3\n4,5,6,7\n", "number of columns changed"), ("1_000,2,3\n", "could not convert"),
    ("\uff11,2,3\n", "could not convert"), ("1,,3\n", "could not convert"),
    ("0." + "0" * 140_000 + "1,2,3\n", "field larger than field limit"),
    ("1,2," + "9" * 140_000 + "\n", "field larger than field limit"),
    ("1,2,3\n" * 20_000 + "1,0." + "0" * 140_000 + "1,3\n", "field larger than field limit"),
], ids=["every_row_wider", "every_row_narrower", "ragged", "underscore", "non_ascii_digit",
        "empty_cell", "over_long_finite_cell", "over_long_last_cell",
        "over_long_cell_in_a_later_batch"])
def test_numeric_read_refuses(tmp_path, body, message):
    path = tmp_path / "sweep.csv"
    write_sweep_text(path, body)
    with pytest.raises(ValueError, match=message):
        read_table(path, numeric=(SWEEP,))


def test_numeric_read_of_empty_body_and_long_cells(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_text(path, "\n\n")
    assert read_table(path, numeric=(SWEEP,))[1].shape == (0, 3)
    write_sweep_text(path, "0." + "0" * 131_000 + "1,2,3\n")  # under the field limit
    assert read_table(path, numeric=(SWEEP,))[1].tolist() == [[0.0, 2.0, 3.0]]
    path.write_bytes(",".join(SWEEP).encode() + b"\n1,2,3\n\xff,1,2\n")
    with pytest.raises(ValueError, match="not a well-formed UTF-8 CSV file"):
        read_table(path, numeric=(SWEEP,))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("rows", [4, 20_000])  # 20 000 rows span three batches of lines
@pytest.mark.parametrize("numeric", [(), (SWEEP,)], ids=["text", "numeric"])
def test_table_bound(tmp_path, monkeypatch, numeric, rows, newline):
    monkeypatch.setattr(table, "MAX_TABLE_CELLS", 3 * rows + 2)  # rows rows of 3 cells
    path = tmp_path / "sweep.csv"
    write_sweep_text(path, f"1,2,3{newline}{newline}" * rows)  # a blank line after each row
    assert len(read_table(path, numeric)[1]) == rows
    write_sweep_text(path, f"1,2,3{newline}{newline}" * (rows + 1))
    with pytest.raises(ValueError, match=f"more than {3 * rows + 2} cells: at most {rows} rows "
                                         "of 3 columns"):
        read_table(path, numeric)
