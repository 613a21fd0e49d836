"""CSV tables: the one reader of every input file and the writers of the output files.

A well-formed file is UTF-8 with a header row; blank lines are skipped, every other row
is as long as the header, no cell passes the csv field limit, and the data rows hold at
most ``MAX_TABLE_CELLS`` cells.  Each fault is a one-line ``ValueError``; callers convert
and check the cells.  ``write_columns`` writes a table of arrays as bytes, a float as
``'%.12e'``, through ``format_e12``.
"""

from __future__ import annotations

import collections
import csv
import functools
import itertools
from pathlib import Path

import numpy as np

# Most cells, data rows x header width, that an input table may hold.  Reading
# stops one row or one batch of lines past it, so a larger file is refused before
# its cells are converted.
MAX_TABLE_CELLS = 2**20
# Decimal exponents written by array arithmetic: for |e| <= 10 the scale 10^(12 - e)
# is at most 10^22, which float64 holds exactly.
_E12_MAX_EXP = 10
# Bytes of the longest '%.12e' of a float64, -1.797693134862e+308.
E12_WIDTH = 20
# Characters that make csv.writer quote a field, and NUL, which write_columns pads with.
_QUOTED = frozenset(',"\r\n\0')
_BLOCK_ROWS = 1 << 10  # rows that write_columns lays out at once
_SIGNS = np.array([b"", b"-"])  # a float's sign field, by its signbit


def read_table(path: str | Path, numeric: tuple = ()
               ) -> tuple[tuple[str, ...], list[list[str]] | np.ndarray]:
    """The header and the non-blank rows of a well-formed CSV file.

    Where the header is one of ``numeric``, the rows come as one float64 array
    of shape (rows, header width), parsed by ``np.loadtxt`` in one C pass: each
    cell is correctly rounded, as by ``float``, but a cell that is not written
    in ASCII as a decimal, ``inf`` or ``nan``, such as ``1_000``, is malformed.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = filter(None, csv.reader(fh))
            header = tuple(next(rows, ()))
            if not header:
                raise ValueError("no header row")
            if header in numeric:
                return header, _read_numbers(fh, len(header))
            body = list(itertools.islice(rows, MAX_TABLE_CELLS // len(header) + 1))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"not a well-formed UTF-8 CSV file: {exc}") from exc
    _check_bound(len(body), len(header))
    if any(len(row) != len(header) for row in body):
        raise ValueError(f"every row needs {len(header)} cells, one per header column")
    return header, body


def _check_bound(rows: int, width: int) -> None:
    if rows * width > MAX_TABLE_CELLS:
        raise ValueError(f"more than {MAX_TABLE_CELLS} cells: at most "
                         f"{MAX_TABLE_CELLS // width} rows of {width} columns")


def _read_numbers(fh, width: int) -> np.ndarray:
    """The float64 rows of the rest of ``fh``, a table's body."""
    # Lines are read in batches and counted, blank ones aside, so that reading
    # stops one batch past the bound.  loadtxt so needs no max_rows, which it
    # would allocate at once.
    lines, rows = [], 0
    while rows * width <= MAX_TABLE_CELLS and (batch := fh.readlines(1 << 16)):
        # loadtxt has no field limit; a cell past csv's makes its line longer than it.
        if max(map(len, batch)) > csv.field_size_limit():
            collections.deque(csv.reader(batch), maxlen=0)
        rows += len(batch) - sum(map(batch.count, ("\n", "\r\n", "\r")))
        lines += batch
    _check_bound(rows, width)
    if not rows:  # where loadtxt would warn
        return np.empty((0, width))
    body = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
    if body.shape[1] != width:
        raise ValueError(f"every row needs {width} cells, one per header column")
    return body


def write_table(path: str | Path, header: tuple, rows) -> None:
    """A header row, then ``rows``; csv.writer ends every line with CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_labels(names) -> None:
    """Refuse a name that csv.writer would quote, or an empty one."""
    for name in names:
        if not name or not _QUOTED.isdisjoint(name):
            raise ValueError(f"label {name!r} would be quoted, or is empty")


def write_columns(path: str | Path, header: tuple, columns) -> None:
    """The bytes ``write_table`` writes for the rows of ``columns``, a float as ``'%.12e'``.

    A float column is written through ``format_e12``, its sign as a field of its
    own; a non-negative integer column from a table of the digits of 0 .. its
    largest value, so it suits indices and counts; a str column as ASCII
    labels, from a table of its distinct values.  A header name or label that
    csv.writer would quote, or an empty one, is refused.  A block of rows is
    laid out as a NUL-padded array of lines, a structured dtype with every field
    at a fixed offset, commas between them and CRLF after; its non-NUL bytes
    are the block's lines.
    """
    _check_labels(header)
    if not header or len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"need one column of one length per header name, got {len(columns)}")
    n = len(columns[0])
    # A field is (dtype, offset, table, codes): its rows are table[codes], or, where
    # table is None, the magnitudes of float column number codes.
    magnitudes, fields, commas = [], [], []
    offset = 0
    for column in columns:
        column = np.asarray(column)
        if column.dtype.kind == "f":
            x = column.astype(np.float64, copy=False)
            if np.signbit(x).any():  # '%e' writes no sign on a nan
                negative = np.signbit(x) & ~np.isnan(x)
                fields.append((_SIGNS.dtype, offset, _SIGNS, negative.view(np.uint8)))
                offset += 1
            a = np.abs(x)
            # NULs inside the lines slow the compaction: most records are 18 bytes.
            width = E12_WIDTH
            if np.min(a, where=a != 0, initial=1.0) >= 1e-99 and a.max(initial=0.0) < 9.9e99:
                width = E12_WIDTH - 2  # every exponent has two digits
            fields.append((np.dtype(f"S{width}"), offset, None, len(magnitudes)))
            magnitudes.append(a)
        else:
            if column.dtype.kind in "iu":
                if column.min(initial=0) < 0:
                    raise ValueError("integer columns must be >= 0")
                table = np.array([b"%d" % k for k in range(column.max(initial=0) + 1)])
            elif column.dtype.kind == "U":
                table, column = np.unique(column, return_inverse=True)
                _check_labels(table.tolist())
                table = table.astype("S")
            else:
                raise TypeError(f"cannot write a column of dtype {column.dtype}")
            width = table.dtype.itemsize
            # numpy gathers items of 1, 2, 4, 8, ... bytes fastest; the field cuts the padding.
            fields.append((table.dtype, offset, table.astype(f"S{1 << (width - 1).bit_length()}"),
                           column))
        offset += width
        commas.append(offset)
        offset += 1
    lines = np.zeros(max(1, min(n, _BLOCK_ROWS)), np.dtype({
        "names": [f"f{i}" for i in range(len(fields))], "formats": [f[0] for f in fields],
        "offsets": [f[1] for f in fields], "itemsize": offset + 1}))
    raw = lines.view(np.uint8).reshape(lines.size, offset + 1)
    raw[:, commas[:-1]] = ord(",")
    raw[:, -2:] = tuple(b"\r\n")
    targets = [(lines[f"f{i}"], table, codes) for i, (_, _, table, codes) in enumerate(fields)]

    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for r0 in range(0, n, lines.size):
            r1 = min(r0 + lines.size, n)
            if magnitudes:
                records = format_e12(np.stack([a[r0:r1] for a in magnitudes], -1))
            for target, table, codes in targets:
                target[:r1 - r0] = records[:, codes] if table is None else table[codes[r0:r1]]
            block = raw[:r1 - r0]
            fh.write(block[block != 0])  # the block's lines


@functools.cache
def _e12_tables() -> tuple[np.ndarray, ...]:
    """Exact powers 10^0 .. 10^22, then the ASCII words of a record as native uint32 tables.

    A record is five 4-byte words: 'd.dd' of its first three digits, two words
    of four digits, its last two digits with 'e' and the exponent's sign, and
    the exponent's two digits with two NULs.
    """
    n = np.arange(10**4, dtype=np.uint16)
    digit = [(n // 10**k % 10 + ord("0")).astype(np.uint8) for k in (3, 2, 1, 0)]
    dot, e, plus, minus, nul = (np.uint8(ord(c)) for c in ".e+-\0")

    def words(*columns):  # four byte columns -> one uint32 per row
        return np.column_stack(np.broadcast_arrays(*columns)).view(np.uint32)[:, 0]

    tables = (np.cumprod(np.r_[1.0, np.full(22, 10.0)]),  # every product is exact
              words(digit[1], dot, digit[2], digit[3])[:1000],
              words(*digit),
              words(digit[2], digit[3], e, np.where(n < 100, plus, minus))[:200],
              words(digit[2], digit[3], nul, nul)[:_E12_MAX_EXP + 1])
    for table in tables:
        table.flags.writeable = False
    return tables


def format_e12(x) -> np.ndarray:
    """``b'%.12e' % v`` for every element v of the float64 array x, as dtype S20.

    A positive, finite x whose decimal exponent e lies in [-10, 10] is written
    from N = rint(y), y = x * 10^(12 - e): the scale is exact, so y is one
    rounding from the exact product, and N's 13 digits and e are read from
    word tables.  Where y is a rounding tie, N falls outside [10^12, 10^13)
    (as where 13 digits round up to 10^13) or x is outside that range,
    Python formats the element, so every byte is Python's.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    powers, lead, quad, tail, exps = _e12_tables()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = np.floor(np.log10(flat))  # nan or +-inf unless x is positive and finite
        ok = (-_E12_MAX_EXP <= e) & (e <= _E12_MAX_EXP)
        e = np.where(ok, e, 0.0).astype(np.intp)
        y = flat * powers[12 - e]
        n = np.rint(y)
        # A tie k + 1/2 < 2^44 is a float, and rounding is monotone, so y and the
        # exact product lie on one side of it unless y is the tie itself.  y, not
        # N, must reach 10^12: a smaller y would come from an e one too high.
        ok &= (y >= 1e12) & (n < 1e13) & (np.abs(y - n) != 0.5)
    n = np.where(ok, n, 1e12).astype(np.int64)
    q = n // 100
    m = q // 10**4
    a = m // 10**4
    out = np.empty((flat.size, E12_WIDTH // 4), np.uint32)
    out[:, 0] = lead[a]
    out[:, 1] = quad[m - a * 10**4]
    out[:, 2] = quad[q - m * 10**4]
    out[:, 3] = tail[n - q * 100 + 100 * (e < 0)]
    out[:, 4] = exps[np.abs(e)]
    records = out.view(f"S{E12_WIDTH}")[:, 0]
    rest = np.flatnonzero(~ok)
    records[rest] = [b"%.12e" % v for v in flat[rest].tolist()]
    return records.reshape(x.shape)
