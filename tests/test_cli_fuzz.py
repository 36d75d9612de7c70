"""Property tests of the CLI's input parsers.

``read_csv`` and ``read_matrix`` parse the numeric block in bulk and fall
back to a cell loop (``cli._cell_table``) on any doubt. The bulk path must
never change what a file means: for every text, the parsers must give
bitwise-equal arrays with the same layout, or the same exception type and
message, as the cell loop alone. ``parse_index_spec`` must give a sorted,
unique, in-range 0-based tuple or a ``MestcertError``, never another
exception.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mestcert import MestcertError, cli

#: whitespace that ``float()`` strips around a number, a non-ASCII space
#: included
_PADDING = st.sampled_from(["", "", " ", "\t", "  ", "\x0b", "\x0c",
                            "\xa0"])
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(
        lambda v: format(v, ".17g")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
)
_ODD_CELLS = st.one_of(
    st.from_regex(r"[+-]?[0-9_]{0,4}(\.[0-9_]{0,3})?([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.sampled_from([
        "", " ", "1_0", '"1"', '"1,5"', '""', "#", "# 1", "1#",
        "abc", "NA", "\u0661", "1 2", "-", ".", "e5", "0x10", "+", "1.5.",
        "\x00"]),
)
#: numbers next to an ASCII separator, which numpy strips around a cell as
#: whitespace and ``float()`` rejects
_SEPARATED = st.sampled_from(["1\x1c", "\x1f2", " 3\x1d ", "4\x1e"])
#: cells that parse to a non-finite float
_NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf",
                               "Infinity", "-iNfInItY", "1e999", "-1e400"])
_NAMES = st.sampled_from(["y", "x1", "x2", "time", "status", " y ", "",
                          "a b", "#x", "x\t"])
_BLANK_LINES = st.sampled_from(["", " ", "\t ", ",", ", ,", ",,,"])
_ENDINGS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def _cell(draw):
    """Mostly a (padded) finite number, sometimes a non-finite, separated
    or odd cell."""
    kind = draw(st.integers(0, 49))
    if kind < 2:
        return draw(_ODD_CELLS)
    if kind < 4:
        return draw(_NON_FINITE)
    if kind == 4:
        return draw(_SEPARATED)
    number = draw(_NUMBERS)
    if kind < 16:
        number = draw(_PADDING) + number + draw(_PADDING)
    return number


@st.composite
def _header(draw, ncol):
    """Mostly a usable header (``y``, distinct covariates, now and then
    ``time`` and ``status``, a name in quotes or after an unclosed quote),
    sometimes any names at all."""
    kind = draw(st.integers(0, 9))
    if kind < 2:
        return draw(st.lists(_NAMES, min_size=ncol, max_size=ncol))
    names = ["y"] + [f"x{j}" for j in range(1, ncol)]
    if ncol >= 4 and draw(st.booleans()):
        names[-2:] = ["time", "status"]
    if kind < 4:
        names[-1] = '"' + names[-1] + '"' * (kind - 2)
    return draw(st.permutations(names))


@st.composite
def csv_texts(draw, header=True):
    """CSV texts that are mostly well formed: a header (if any) and rows of
    its width, with odd cells, ragged rows, rows all one cell too short or
    too long, blank, whitespace-only and comma-only lines, a leading blank
    line and mixed line terminators. A ``status`` column mostly holds 0
    or 1, so that survival files parse too."""
    lines = []
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(_BLANK_LINES))
    ncol = draw(st.integers(1, 5))
    names = draw(_header(ncol)) if header else []
    if header:
        lines.append(",".join(names))
    row_width = ncol + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 14))
        if kind == 0:
            lines.append(draw(_BLANK_LINES))
            continue
        width = draw(st.integers(0, ncol + 1)) if kind == 1 else row_width
        cells = draw(st.lists(_cell(), min_size=width, max_size=width))
        for j in range(min(width, len(names))):
            if names[j] == "status" and draw(st.integers(0, 9)):
                cells[j] = draw(st.sampled_from(["0", "1", "1.0", " 0"]))
        lines.append(",".join(cells))
    ends = draw(st.lists(_ENDINGS, min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no terminator on the last line
    return text


def _arrays(result):
    if isinstance(result, np.ndarray):
        return {"matrix": result}
    survival = hasattr(result, "status")
    names = ("X", "time", "status") if survival else ("X", "y")
    return {name: getattr(result, name) for name in names}


def _outcome(reader, path):
    """What a parser makes of a file: the exception type and message, or
    the result type and every array's dtype, shape, strides and bytes."""
    try:
        result = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), {
        name: (a.dtype.str, a.shape, a.strides, a.flags.c_contiguous,
               a.tobytes())
        for name, a in _arrays(result).items()}


def _cell_loop_only():
    return mock.patch.object(cli, "_bulk_table", lambda path, check: None)


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as tmp:
        yield os.path.join(tmp, "data.csv")


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _same_as_cell_loop(reader, path):
    got = _outcome(reader, path)
    with _cell_loop_only():
        expected = _outcome(reader, path)
    assert got == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_texts())
@example(text='y,"x1\n1,2\n')  # csv reads to the end as one header cell
def test_read_csv_matches_cell_loop(scratch, text):
    _write(scratch, text)
    _same_as_cell_loop(cli.read_csv, scratch)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=csv_texts(header=False))
def test_read_matrix_matches_cell_loop(scratch, text):
    _write(scratch, text)
    _same_as_cell_loop(cli.read_matrix, scratch)


class TestBulkPath:
    """The bulk path really is the one taken on plain files, and declined
    where numpy and ``float()`` would disagree."""

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_plain_files_parse_in_bulk(self, tmp_path, end):
        path = str(tmp_path / "t.csv")
        _write(path, end.join(["y,x1", "1, 2.5", "\t-3e-2,4", ""]))
        header, values = cli._bulk_table(path, cli._check_header)
        assert header == ["y", "x1"]
        np.testing.assert_array_equal(values, [[1.0, 2.5], [-0.03, 4.0]])
        _write(path, end.join(["1,0", "0,2", ""]))
        assert cli._bulk_table(path, None)[1].shape == (2, 2)

    @pytest.mark.parametrize("text", [
        "y,x1\n1,2\x1c\n",        # float() rejects, numpy strips
        "y,x1\n1,nan\n",          # non-finite
        "y,x1,x2\n1,2\n",         # every row one cell short
        '"y",x1\n1,2\n',          # quoted header
        "\ny,x1\n1,2\n",          # blank leading line
        "y,x1\n1_0,2\n",          # float() reads, numpy does not
        "y,x1\n",                 # no data rows
    ])
    def test_doubtful_files_are_left_to_the_loop(self, tmp_path, text):
        path = str(tmp_path / "t.csv")
        _write(path, text)
        try:
            table = cli._bulk_table(path, cli._check_header)
        except Exception:
            table = None
        assert table is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=st.text(st.sampled_from("0123456789-, \t+_a"), max_size=16)
       | st.lists(st.integers(-5, 10 ** 12).map(str) | st.tuples(
           st.integers(-5, 10 ** 12), st.integers(-5, 10 ** 12)).map(
               lambda r: f"{r[0]}-{r[1]}"), max_size=4).map(",".join),
       n=st.integers(1, 30))
def test_parse_index_spec_is_sorted_unique_in_range_or_refused(spec, n):
    try:
        out = cli.parse_index_spec(spec, n)
    except MestcertError:
        return
    assert isinstance(out, tuple) and out
    assert list(out) == sorted(set(out))
    assert all(type(i) is int and 0 <= i < n for i in out)
