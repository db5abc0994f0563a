"""The CSV conventions every ladderforge input table shares.

Blank lines and lines starting with ``#`` are skipped, the first remaining
row must be the exact header, and every later row must have as many fields.
Errors are raised as the caller's error class, so each format keeps its own
exception family, and name the physical line of the offending row.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Iterator, Sequence, Union

from .errors import LadderforgeError


def read_table(
    source: Union[str, Iterable[str]],
    header: Sequence[str],
    error_cls: type[LadderforgeError],
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, row)`` for each data row of ``source``, the table
    text itself or an iterable of its lines such as an open text file."""
    lines = io.StringIO(source) if isinstance(source, str) else source
    # First physical line of the row being read.  The CSV reader pulls lines only
    # as it needs them, so this holds even for quoted fields spanning lines.
    start = 0

    def content():
        nonlocal start
        for lineno, line in enumerate(lines, start=1):
            # not line.strip(), without copying the line: both mean Unicode whitespace
            if line and not line.isspace() and not line.startswith("#"):
                start = start or lineno
                yield line

    rows = csv.reader(content())
    try:
        first = next(rows, None)
        if first is None:
            raise error_cls(f"table is empty; header must be {','.join(header)}")
        if first != list(header):
            raise error_cls(f"line {start}: header must be {','.join(header)}")
        start = 0
        for row in rows:
            if len(row) != len(header):
                raise error_cls(f"line {start}: expected {len(header)} fields, got {len(row)}")
            yield start, row
            start = 0
    except csv.Error as exc:
        raise error_cls(f"line {start}: {exc}") from None


def finite_float(text: str) -> float:
    """``float(text)``, raising ValueError for nan and infinities as well."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value
