"""CSV tables: the one reader of every input file and the writer of the output files.

A well-formed file is UTF-8 with a header row; blank lines are skipped, every other row
is as long as the header, and no cell passes the csv field limit.  Each fault is a
one-line ``ValueError``; callers convert and check the cells.  ``format_e12`` gives the
bytes of ``'%.12e'`` for a whole array, for writers that assemble their lines as bytes.
"""

from __future__ import annotations

import csv
import functools
from pathlib import Path

import numpy as np

# Decimal exponents written by array arithmetic: for |e| <= 10 the scale 10^(12 - e)
# is at most 10^22, which float64 holds exactly.
_E12_MAX_EXP = 10
# Bytes of the longest '%.12e' of a float64, -1.797693134862e+308.
E12_WIDTH = 20


def read_table(path: str | Path) -> tuple[tuple[str, ...], list[list[str]]]:
    """The header and the non-blank rows of a well-formed CSV file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"not a well-formed UTF-8 CSV file: {exc}") from exc
    if not rows:
        raise ValueError("no header row")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"every row needs {len(rows[0])} cells, one per header column")
    return tuple(rows[0]), rows[1:]


def write_table(path: str | Path, header: tuple, rows) -> None:
    """A header row, then ``rows``; csv.writer ends every line with CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
