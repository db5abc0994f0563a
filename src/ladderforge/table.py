"""The CSV conventions every ladderforge input table shares, held by one reader.

Blank lines and lines starting with ``#`` are skipped, the first remaining
row must be the exact header, and every later row must have as many fields.
Errors are raised as the caller's error class, so each format keeps its own
exception family, and name the physical line of the offending row.

:func:`read_columns`, which every reader calls, reads a table as columns, a
block of rows at a time: one ``csv.reader`` runs over the kept lines, and
the columns that a reader names are converted block by block, so their
texts are let go as the table is read.  The first row that a parser
refuses, or a table error after the header (a row of the wrong width, a CSV
syntax error, or a failure to read the source), ends the table but keeps
the rows before it, which come with one late error: a reader raises it only
if none of those rows fails a check of its own, so the error is the one
that a row-by-row reader meets first.
"""

from __future__ import annotations

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
    parsers: Mapping[int, Callable[[Sequence[str]], tuple[np.ndarray, Exception | None]]] | None = None,
) -> tuple[list[int], list, Exception | None]:
    """The data rows of ``source``, the table text itself or an iterable of
    its lines such as an open text file, as ``(linenos, columns, late)``,
    read ``BLOCK_ROWS`` rows at a time.  A missing or wrong header raises at
    once.  Column ``k`` is ``parsers[k]`` of its texts, which gives ``(values,
    fault)``: the values up to the first text it refuses, and that text's
    error or None, so that texts are let go block by block; each other column
    is the list of its texts.  The columns stop before the first row that a
    parser refuses.  ``late`` is the error a row-by-row reader meets after
    them: the fault of the first such parser, in the mapping's order, as
    ``line N: fault`` in its own class if a :class:`LadderforgeError`, else
    in ``error_cls``; else the table error that ended the table; else None."""
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
    parts: list[list] = [[parsers[k](())[0]] if k in parsers else [] for k in range(len(header))]
    start, late = rows.line_num, None  # start: the index in numbers of the next row's first line
    while late is None:
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
            late = error_cls(f"line {numbers[start]}: {exc}")
        except (error_cls, OSError, ValueError) as exc:  # OSError, ValueError: the source could not be read
            late = exc
        if not block:
            break
        columns = list(zip(*block))
        parsed = {k: parse(columns[k]) for k, parse in parsers.items()}
        n = min((len(values) for values, _ in parsed.values()), default=len(block))
        for k, column in enumerate(columns):
            parts[k].append(parsed[k][0][:n] if k in parsed else column[:n])
        linenos += block_linenos[:n]
        if n < len(block):  # that row comes before any table error
            fault = next(fault for values, fault in parsed.values() if len(values) == n)
            late = (type(fault) if isinstance(fault, LadderforgeError) else error_cls)(
                f"line {block_linenos[n]}: {fault}")
    columns = [np.concatenate(part) if k in parsers else list(chain.from_iterable(part)) for k, part in enumerate(parts)]
    return linenos, columns, late


def converted(texts: Sequence[str], convert) -> tuple[list, ValueError | None]:
    """``convert`` of each text, up to the first one that it rejects, and that rejection."""
    values: list = []
    try:
        values.extend(map(convert, texts))  # list.extend keeps what came before the error
    except ValueError as exc:
        return values, exc
    return values, None


def finite_floats(texts: Sequence[str]) -> tuple[np.ndarray, ValueError | None]:
    """The values of ``texts``, up to the first that :func:`finite_float` rejects, and its error."""
    values, fault = converted(texts, float)
    values = np.array(values, np.float64)
    bad = ~np.isfinite(values)
    if bad.any():
        at = int(bad.argmax())
        return values[:at], converted(texts[at:at + 1], finite_float)[1]
    return values, fault


def int_array(values: Sequence[int]) -> np.ndarray:
    """``values`` as int64, or as Python ints where one is beyond int64, kept exact."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


def ints(texts: Sequence[str]) -> tuple[np.ndarray, ValueError | None]:
    """The values of ``texts``, up to the first one that ``int`` rejects, and its error."""
    values, fault = converted(texts, int)
    return int_array(values), fault


def finite_float(text: str) -> float:
    """``float(text)``, raising ValueError for nan and infinities as well."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value
