import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge.complexity import FEATURES_CSV_HEADER, read_features_csv
from ladderforge.errors import LadderforgeError
from ladderforge.forest import TRAINING_CSV_HEADER, load_training_csv
from ladderforge.ladder import load_pairing_csv
from ladderforge.metrics import EVALUATION_CSV_HEADER, load_evaluation_csv
from ladderforge.table import finite_float, read_table


class TableError(LadderforgeError):
    pass


def test_read_table_yields_physical_line_numbers():
    text = '# comment\n\na,b\n1,2\n\n# another\n"multi\nline",3\n4,5\n'
    rows = list(read_table(text, ("a", "b"), TableError))
    assert rows == [(4, ["1", "2"]), (7, ["multi\nline", "3"]), (9, ["4", "5"])]


def test_read_table_rejects_header_arity_and_csv_errors():
    with pytest.raises(TableError, match="empty"):
        list(read_table("# only a comment\n\n", ("a", "b"), TableError))
    with pytest.raises(TableError, match="line 2: header must be a,b"):
        list(read_table("\na,c\n", ("a", "b"), TableError))
    with pytest.raises(TableError, match="line 4: expected 2 fields, got 3"):
        list(read_table("a,b\n1,2\n#\n1,2,3\n", ("a", "b"), TableError))
    with pytest.raises(TableError, match="line 3: field larger than field limit"):
        list(read_table("a,b\n1,2\n" + "x" * 200_000 + ",1\n", ("a", "b"), TableError))


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

_READERS = [
    (read_features_csv, FEATURES_CSV_HEADER),
    (load_training_csv, TRAINING_CSV_HEADER),
    (load_pairing_csv, ("bitrate_mbps", "resolution")),
    (load_evaluation_csv, EVALUATION_CSV_HEADER),
]


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
