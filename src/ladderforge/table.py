"""The CSV conventions every ladderforge input table shares, held by one reader.

Blank lines and lines starting with ``#`` are skipped, the first remaining
row must be the exact header, and every later row must have as many fields.
Errors are raised as the caller's error class, so each format keeps its own
exception family, and name the physical line of the offending row.

:func:`read_columns`, which every reader calls, reads a table as columns, a
block of rows at a time: one ``csv.reader`` runs over the kept lines, and
the columns that a reader names are converted block by block, so their
texts are let go as the table is read.  A table error after the header (a
row of the wrong width, a CSV syntax error, or a failure to read the
source) ends the table but keeps the rows before it, which come with the
error: a reader raises it only if none of those rows fails a check of its
own, so the error is the one that a row-by-row reader meets first.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from itertools import chain, count, islice
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import LadderforgeError

# Rows a block holds: enough to spread a block's numpy calls, few enough
# that a reader converting a block at a time holds little text.
BLOCK_ROWS = 256


def read_columns(
    source: Union[str, Iterable[str]],
    header: Sequence[str],
    error_cls: type[LadderforgeError],
    parsers: Mapping[int, Callable[[Sequence[str]], np.ndarray]] | None = None,
) -> tuple[list[int], list, tuple[int, list[str]] | None, Exception | None]:
    """The data rows of ``source``, the table text itself or an iterable of
    its lines such as an open text file, as ``(linenos, columns, failed,
    error)``, read ``BLOCK_ROWS`` rows at a time.  A missing or wrong header
    raises at once.  Column ``k`` is ``parsers[k]`` of its texts, which gives
    the values up to the first text that does not parse, so that its texts
    are let go block by block; each other column is the list of its texts.
    Reading stops at the first row with a text that does not parse: the
    columns stop before it, and ``failed`` is its line and texts.  ``error``
    is the table error that ended the table, if one did."""
    lines = io.StringIO(source) if isinstance(source, str) else source
    numbers: list[int] = []  # the physical line of each line given to the CSV reader
    physical = count(1)

    def content(line: str) -> bool:
        number = next(physical)
        # not line.strip(), without copying the line: both mean Unicode whitespace
        if line and not line.isspace() and not line.startswith("#"):
            numbers.append(number)
            return True
        return False

    rows = csv.reader(filter(content, lines))
    try:
        first = next(rows, None)
    except csv.Error as exc:
        raise error_cls(f"line {numbers[0]}: {exc}") from None
    if first is None:
        raise error_cls(f"table is empty; header must be {','.join(header)}")
    if first != list(header):
        raise error_cls(f"line {numbers[0]}: header must be {','.join(header)}")
    parsers = parsers or {}
    linenos: list[int] = []
    # A parsed column starts as its parser's empty array, which gives it its type.
    parts: list[list] = [[parsers[k](())] if k in parsers else [] for k in range(len(header))]
    start, failed, error = rows.line_num, None, None  # start: the index in numbers of the next row's first line
    while error is None and failed is None:
        block_linenos: list[int] = []
        block: list[list[str]] = []
        try:
            for row in islice(rows, BLOCK_ROWS):
                if len(row) != len(header):
                    raise error_cls(f"line {numbers[start]}: expected {len(header)} fields, got {len(row)}")
                block_linenos.append(numbers[start])
                block.append(row)
                start = rows.line_num
        except csv.Error as exc:
            error = error_cls(f"line {numbers[start]}: {exc}")
        except (error_cls, OSError, ValueError) as exc:  # OSError, ValueError: the source could not be read
            error = exc
        if not block:
            break
        columns = list(zip(*block))
        values = {k: parse(columns[k]) for k, parse in parsers.items()}
        parsed = min(map(len, values.values()), default=len(block))
        for k, column in enumerate(columns):
            parts[k].append(values[k][:parsed] if k in values else column[:parsed])
        linenos += block_linenos[:parsed]
        if parsed < len(block):
            failed = block_linenos[parsed], list(block[parsed])
    columns = [np.concatenate(part) if k in parsers else list(chain.from_iterable(part)) for k, part in enumerate(parts)]
    return linenos, columns, failed, error


def converted(texts: Sequence[str], convert) -> list:
    """``convert`` of each text, up to the first one that it rejects."""
    values: list = []
    with contextlib.suppress(ValueError):  # list.extend keeps what came before the error
        values.extend(map(convert, texts))
    return values


def finite_floats(texts: Sequence[str]) -> np.ndarray:
    """The values of ``texts``, up to the first one that :func:`finite_float` rejects."""
    values = np.array(converted(texts, float), np.float64)
    bad = ~np.isfinite(values)
    return values[:bad.argmax()] if bad.any() else values


def int_array(values: Sequence[int]) -> np.ndarray:
    """``values`` as int64, or as Python ints where one is beyond int64, kept exact."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


def ints(texts: Sequence[str]) -> np.ndarray:
    """The values of ``texts``, up to the first one that ``int`` rejects."""
    return int_array(converted(texts, int))


def finite_float(text: str) -> float:
    """``float(text)``, raising ValueError for nan and infinities as well."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value
