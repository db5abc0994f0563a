import math
from itertools import product

import pytest
from conftest import (
    reference_load_evaluation_csv,
    reference_load_pairing_csv,
    reference_load_training_csv,
    reference_read_features_csv,
    reference_read_table,
    table_segments,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge import table
from ladderforge.complexity import FEATURES_CSV_HEADER, read_features_csv
from ladderforge.errors import LadderforgeError
from ladderforge.forest import TARGET_KINDS, TRAINING_CSV_HEADER, VSR_TAGS, load_training_csv
from ladderforge.ladder import load_pairing_csv
from ladderforge.metrics import EVALUATION_CSV_HEADER, METRIC_KINDS, load_evaluation_csv
from ladderforge.table import finite_float, finite_floats, ints, read_columns


class TableError(LadderforgeError):
    pass


def test_read_columns_gives_physical_line_numbers():
    text = '# comment\n\na,b\n1,2\n\n# another\n"multi\nline",3\n4,5\n'
    assert read_columns(text, ("a", "b"), TableError) == (
        [4, 7, 9], [["1", "multi\nline", "4"], ["2", "3", "5"]], None, None)


def test_read_columns_raises_header_errors_and_hands_back_table_errors():
    with pytest.raises(TableError, match="empty"):
        read_columns("# only a comment\n\n", ("a", "b"), TableError)
    with pytest.raises(TableError, match="line 2: header must be a,b"):
        read_columns("\na,c\n", ("a", "b"), TableError)
    # A table error ends the table; the rows before it come with it.
    linenos, columns, _, error = read_columns("a,b\n1,2\n#\n1,2,3\n4,5\n", ("a", "b"), TableError)
    assert (linenos, columns, str(error)) == ([2], [["1"], ["2"]], "line 4: expected 2 fields, got 3")
    linenos, columns, _, error = read_columns("a,b\n1,2\n" + "x" * 200_000 + ",1\n", ("a", "b"), TableError)
    assert (linenos, columns) == ([2], [["1"], ["2"]])
    assert str(error).startswith("line 3: field larger than field limit")
    assert read_columns("a,b\n", ("a", "b"), TableError) == ([], [[], []], None, None)


@pytest.mark.parametrize("block_rows", [1, 2, table.BLOCK_ROWS])
def test_read_columns_parses_up_to_the_first_row_that_does_not_parse(monkeypatch, block_rows):
    monkeypatch.setattr(table, "BLOCK_ROWS", block_rows)
    text = "a,b\n1,x\n\n2.5,y\n3,x\nnan,z\n4,w\n"
    linenos, columns, failed, error = read_columns(text, ("a", "b"), TableError, {0: finite_floats})
    assert (linenos, columns[0].tolist(), columns[1], failed, error) == (
        [2, 4, 5], [1.0, 2.5, 3.0], ["x", "y", "x"], (6, ["nan", "z"]), None)
    linenos, columns, failed, error = read_columns(text.replace("nan", "6"), ("a", "b"), TableError, {0: ints})
    assert (linenos, columns[0].tolist(), failed, str(error)) == (
        [2], [1], (4, ["2.5", "y"]), "None")
    linenos, columns, failed, error = read_columns("a,b\n1,x\n2,y,z\n", ("a", "b"), TableError, {0: ints})
    assert (linenos, columns[0].tolist(), failed, str(error)) == ([2], [1], None, "line 3: expected 2 fields, got 3")


def test_a_source_that_fails_ends_the_table_with_its_own_error():
    def lines():
        yield "a,b\n"
        yield "1,2\n"
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    linenos, columns, _, error = read_columns(lines(), ("a", "b"), TableError)
    assert (linenos, columns) == ([2], [["1"], ["2"]]) and isinstance(error, UnicodeDecodeError)


def test_finite_float_rejects_nan_and_infinities():
    assert finite_float(" 1.5e3 ") == 1500.0
    for text in ("nan", "-inf", "Infinity", "1e999"):
        with pytest.raises(ValueError, match="not a finite number"):
            finite_float(text)


# Tokens that reach the per-format checks: numbers good and bad, the enum
# values the readers accept, and the characters CSV treats specially.
_TOKENS = st.sampled_from([
    "0", "1.5", "-3", "360", "720", "2.4", "nan", "inf", "1e999", "x", "none", "fsrcnn",
    "quality", "time", "psnr", "vmaf", "default", ",", ",", ",", "\n", "\n", '"', "#", " ",
    "\r", "\x00",
])


def _training_values(data):
    return [(*x, t, TARGET_KINDS[k], VSR_TAGS[g]) for x, t, k, g in
            zip(data.x.tolist(), data.target.tolist(), data.kind.tolist(), data.tag.tolist())]


def _reference_training_values(rows):
    return [(e, h, l, math.log2(r), math.log2(b), t, kind, tag) for e, h, l, r, b, t, kind, tag in rows]


def _evaluation_values(evaluated):
    return evaluated.scheme, table_segments(evaluated)


def _same(values):
    return values


_READERS = [
    (read_features_csv, FEATURES_CSV_HEADER),
    (load_training_csv, TRAINING_CSV_HEADER),
    (load_pairing_csv, ("bitrate_mbps", "resolution")),
    (load_evaluation_csv, EVALUATION_CSV_HEADER),
]

# The row-by-row reader that each reader replaced (conftest), and what the
# results of each are compared as.
_REFERENCES = {
    read_features_csv: (reference_read_features_csv, _same, _same),
    load_training_csv: (reference_load_training_csv, _training_values, _reference_training_values),
    load_pairing_csv: (reference_load_pairing_csv, _same, _same),
    load_evaluation_csv: (reference_load_evaluation_csv, _evaluation_values, _same),
}


@pytest.mark.parametrize("reader, header", _READERS)
@settings(max_examples=60, deadline=None)
@given(
    free_text=st.text(max_size=200),
    body=st.lists(_TOKENS, max_size=80).map("".join),
)
def test_readers_return_or_raise_ladderforge_errors(reader, header, free_text, body):
    for text in (free_text, ",".join(header) + "\n" + body):
        for source in (text, text.splitlines(True)):
            try:
                reader(source)
            except LadderforgeError:
                pass


# Fields that pass each column's checks, drawn from small pools so that rows
# meet on one segment or representation.
_GOOD = {
    "segment_id": ["a", "b", "é"], "scheme": ["hls"], "E_Y": ["0", "1.5", "-0.0", "1e-300"],
    "h": ["0", "2.5"], "L_Y": ["16", "235.0"], "resolution": ["360", "720", "+720", "1_080", "99999999999999999999"],
    "bitrate_mbps": ["0.145", "2.4", " 3 "], "vsr_tag": list(VSR_TAGS), "target_kind": list(TARGET_KINDS),
    "target": ["-0.0", "50", "150", "0.5"], "quality_metric": list(METRIC_KINDS), "quality": ["30", "-0.0", "1e308"],
    "encode_time_s": ["0.4", "0", "-0.0"],
}


@st.composite
def _table_text(draw, header):
    """The header, then rows whose fields are mostly good and sometimes any
    token, with now and then a blank, comment, short or quoted line."""
    field = {name: st.sampled_from(_GOOD[name]) for name in header}
    row = st.builds(",".join, st.tuples(*(st.one_of(field[name], field[name], field[name], _TOKENS)
                                          for name in header)))
    other = st.sampled_from(["", "# comment", "a,1", '"a', '"a\nb",1', ",".join(header)])
    lines = draw(st.lists(st.one_of(row, row, row, row, other), max_size=12))
    return "\n".join([",".join(header), *lines]) + draw(st.sampled_from(["\n", "", "\r\n"]))


@pytest.mark.parametrize("reader, header", _READERS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_reader_equals_the_row_by_row_reader_it_replaced(reader, header, data):
    """The same values, or the same error class and text, line included."""
    text = data.draw(_table_text(header))
    reference, values, reference_values = _REFERENCES[reader]

    def outcome(read, convert):
        try:
            return repr(convert(read()))
        except LadderforgeError as exc:
            return f"{type(exc).__name__}: {exc}"

    keywords = [{}, {"resolutions": (360, 720)}] if reader is load_training_csv else [{}]
    for source, kwargs in product((lambda: text, lambda: text.splitlines(True)), keywords):
        assert outcome(lambda: reader(source(), **kwargs), values) == outcome(
            lambda: reference(source(), **kwargs), reference_values)


@pytest.mark.parametrize("block_rows", [1, 2, 3, table.BLOCK_ROWS])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(body=st.lists(_TOKENS, max_size=60).map("".join))
def test_read_columns_equals_the_row_by_row_reader_at_any_block_size(block_rows, body):
    text = "a,b\n" + body

    def reference():
        rows = []
        try:
            rows.extend(reference_read_table(text.splitlines(True), ("a", "b"), TableError))
        except TableError as exc:
            return rows, str(exc)
        return rows, None

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(table, "BLOCK_ROWS", block_rows)
            linenos, columns, _, error = read_columns(text.splitlines(True), ("a", "b"), TableError)
    except TableError as exc:
        assert reference() == ([], str(exc))
        return
    rows = [(lineno, list(row)) for lineno, row in zip(linenos, zip(*columns))]
    assert reference() == (rows, None if error is None else str(error))
