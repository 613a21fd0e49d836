"""CSV tables: the one reader of every input file and the one writer of every output.

A well-formed file is UTF-8 with a header row; blank lines are skipped, every other row
is as long as the header, and no cell passes the csv field limit.  Each fault is a
one-line ``ValueError``; callers convert and check the cells.
"""

from __future__ import annotations

import csv
from pathlib import Path


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
