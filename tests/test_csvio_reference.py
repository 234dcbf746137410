"""read_table and write_table against the row-by-row reader and writer they replaced.

The reader checks each block's structure once and takes a block that passes
without looking at its rows one by one; the writer builds every table, a
timestamp table included, one block at a time, column by column, with one
join per block (a text column's block of one value is one repeat).
The two functions below are the earlier row-by-row versions, kept as the
reference: every table must read to the same columns (text columns decoded)
or fail with the same DataError text, and every table must be written to the
same bytes or fail with the same ValueError text.
"""

import sys
from functools import partial
from itertools import count, islice, repeat
from math import isfinite
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfwm_sim import csvio
from sfwm_sim.csvio import (
    MISMATCH_HEADER,
    SPECTRUM_HEADER,
    TextColumn,
    read_table,
    write_mismatch_csv,
    write_spectrum_csv,
    write_table,
)
from sfwm_sim.engine import BiphotonSpectrum, SpectralGrid
from sfwm_sim.errors import DataError

# ---------------------------------------------------------------- reference


def _ref_is_row(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


def _ref_row_error(path, row: int, message: str) -> DataError:
    with Path(path).open(encoding="utf-8") as fh:
        lines = (n for n, line in enumerate(fh, start=1) if _ref_is_row(line))
        return DataError(f"{path}:{next(islice(lines, row + 1, None))}: {message}")


def _ref_floats(path, first_row: int, name: str, cells: list[str]) -> np.ndarray:
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for k, cell in enumerate(cells):
        try:
            problem = None if isfinite(float(cell)) else "is not finite"
        except ValueError:
            problem = "is not a number"
        if problem:
            raise _ref_row_error(path, first_row + k, f"{name} cell {cell.strip()!r} {problem}")
    raise AssertionError


def reference_read_table(path, header, text=(), block_chars=1 << 16) -> list:
    path, n = Path(path), len(header)
    parts: list[list] = [[] for _ in header]
    done = -1
    try:
        with path.open(encoding="utf-8") as fh:
            for block in iter(partial(fh.readlines, block_chars), []):
                rows = list(filter(_ref_is_row if "#" in "".join(block) else str.strip, block))
                if done < 0 and rows:
                    got = tuple(cell.strip() for cell in rows.pop(0).split(","))
                    if got != tuple(header):
                        message = f"expected header {','.join(header)!r}, got {','.join(got)!r}"
                        raise _ref_row_error(path, -1, message)
                    done = 0
                counts = list(map(str.count, rows, repeat(",")))
                if counts.count(n - 1) != len(rows):
                    k = next(k for k, c in enumerate(counts) if c != n - 1)
                    raise _ref_row_error(path, done + k, f"expected {n} cells, got {counts[k] + 1}")
                cells = ",".join(rows).split(",") if rows else []
                for j, name in enumerate(header):
                    if name in text:
                        parts[j].extend(map(sys.intern, map(str.strip, cells[j::n])))
                    else:
                        parts[j].append(_ref_floats(path, done, name, cells[j::n]))
                done += len(rows)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read table ({exc})") from exc
    if done < 0:
        raise DataError(f"{path}: no header line, expected {','.join(header)!r}")
    return [col if name in text else np.concatenate(col) for name, col in zip(header, parts)]


def reference_write_table(path, header, columns, comments=()) -> None:
    if len(columns) != len(header) or len({len(col) for col in columns}) > 1:
        raise ValueError(f"{path}: need one column per header name, all of one length")
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in comments) + ",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), 1 << 12):
            block = [col[start : start + (1 << 12)] for col in columns]
            cells = (map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in block)
            rows = list(map(",".join, zip(*cells)))
            text = "\r\n".join(rows) + "\r\n"
            breaks = text.count("\r") + text.count("\n")
            if text.count(",") != (len(header) - 1) * len(rows) or breaks != 2 * len(rows):
                raise ValueError(f"{path}: a cell contains a comma or a line break")
            fh.write(text)


# ------------------------------------------------------------------ reading


def _outcome(read, *args):
    """The columns ``read`` returns, text columns decoded, or the DataError text it raises."""
    try:
        columns = read(*args)
    except DataError as exc:
        return "DataError", str(exc)
    return "columns", [
        [col.values[code] for code in col.codes.tolist()] if isinstance(col, TextColumn)
        else col.view(np.int64).tolist() if isinstance(col, np.ndarray) else col
        for col in columns
    ]


def assert_reads_like_the_reference(path, header, text, block_chars):
    with mock.patch.object(csvio, "_READ_BLOCK_CHARS", block_chars):
        got = _outcome(read_table, path, header, text)
    assert got == _outcome(reference_read_table, path, header, text, block_chars)
    return got


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "four", "", " 1.5 ", "\t2", "0x1p3", "1_0"]),
)
TEXT_CELLS = st.sampled_from(["signal", "idler", " signal ", "idler\t", "x", ""])
FINITE_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
ZERO_SPELLINGS = st.sampled_from(["0", "-0", "0.0", " 0", "0e0"])
# How a float column's cells repeat: each cell drawn on its own ("any"), all
# one text ("one", perhaps with one fault row), a few texts ("few"), one value
# spelled several ways ("spellings"), or a few texts for the first rows and
# then each cell drawn on its own ("then_distinct").
FLOAT_COLUMNS = st.sampled_from(["any", "one", "few", "spellings", "then_distinct"])


@st.composite
def tables(draw):
    """A table's header, text columns and file text, with the faults the reader must name."""
    n = draw(st.integers(1, 3))
    header = tuple(f"c{j}" for j in range(n))
    text = tuple(name for name in header if draw(st.booleans()))
    shapes = [draw(FLOAT_COLUMNS) for _ in header]
    texts = [draw(st.lists(FINITE_CELLS | ZERO_SPELLINGS, min_size=1, max_size=3)) for _ in header]
    faults = [  # a row of a one-text column that holds a fault cell instead
        draw(st.none() | st.tuples(st.integers(0, 8), st.sampled_from(["nan", "inf", "x"])))
        for _ in header
    ]
    switch = draw(st.integers(0, 8))  # the first row of a then_distinct column's distinct cells
    row_numbers = count()

    def cell(j: int, k: int) -> str:
        """The cell of column ``j`` in the ``k``-th row drawn."""
        if j < n and header[j] in text:
            return draw(TEXT_CELLS)
        if j >= n or shapes[j] == "any":
            return draw(NUMBER_CELLS)
        if shapes[j] == "one":
            return faults[j][1] if faults[j] and faults[j][0] == k else texts[j][0]
        if shapes[j] == "spellings":
            return draw(ZERO_SPELLINGS)
        if shapes[j] == "then_distinct" and k >= switch:
            return draw(FINITE_CELLS)
        return draw(st.sampled_from(texts[j]))

    def row(width: int) -> str:
        k = next(row_numbers)
        return ",".join(cell(j, k) for j in range(width))

    # Half the tables hold only lines the reader skips or takes, so that most
    # of their float cells reach the parser.
    malformed = draw(st.booleans())
    kinds = st.sampled_from(
        ["row"] * 6 + ["comment", "comment_n_cells", "blank", "space"]
        + (["hash_cell", "wide", "narrow"] if malformed else [])
    )
    lines = []
    for kind in draw(st.lists(kinds, min_size=0 if malformed else 8, max_size=30)):
        if kind == "row":
            lines.append(row(n))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# note", "  # indented"])))
        elif kind == "comment_n_cells":  # a comment with the comma count of a row
            lines.append("#" + "," * (n - 1) + draw(st.sampled_from(["", "1"])))
        elif kind == "hash_cell":  # a '#' that does not start the line
            lines.append(row(n - 1) + ("," if n > 1 else "") + "#1")
        elif kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "   "])))
        elif kind == "wide":
            lines.append(row(n + 1))
        else:
            lines.append(row(n - 1))
    head = draw(st.sampled_from(["exact", "padded", "wrong", "none"] if malformed else ["exact"]))
    if head != "none":
        names = {"exact": header, "padded": [f" {h} " for h in header], "wrong": ["x"] * n}[head]
        first = draw(st.integers(0, min(2, len(lines)))) if malformed else 0
        lines.insert(first, ",".join(names))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no newline after the last line
    return header, text, "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, deadline=None)
@given(table=tables(), block_chars=st.integers(1, 160) | st.integers(160, 1000))
@example(table=(("a", "b"), (), "a,b\n1,2,3\n4\n5,6\n"), block_chars=1000)  # counts balance
@example(table=(("a", "b"), (), "a,b\n1,2\n#,\n3,4\n"), block_chars=1000)  # comment, n-1 commas
@example(table=(("a",), (), "a\n1\n\n2\n   \n"), block_chars=1000)  # blank rows, one column
@example(table=(("a", "b"), ("a",), "a,b\r\nx,1\r\ny,2"), block_chars=1000)  # no final newline
# one value spelt five ways, each parsed from its own text
@example(table=(("a",), (), "a\n0\n-0\n0.0\n 0\n0e0\n0\n-0\n0\n0\n0\n"), block_chars=1000)
@example(table=(("a", "b"), (), "a,b\n0,1\n0,2\nx,3\n0,4\n0,5\n"), block_chars=1000)  # x in a run
@example(table=(("a", "b"), (), "a,b\n7,1\n7,2\n7,3\ninf,4\n"), block_chars=1000)  # inf ends a run
@example(table=(("a",), (), "a\nnan\nnan\nnan\n"), block_chars=1000)  # one non-finite text
@example(  # repeating in the first blocks, distinct in the last
    table=(("a", "b"), ("b",), "a,b\n" + "1.5,s\n" * 12 + "".join(f"{k}.25,i\n" for k in range(9))),
    block_chars=40,
)
def test_read_table_matches_the_row_by_row_reader(tmp_path_factory, table, block_chars):
    header, text, content = table
    path = tmp_path_factory.mktemp("read") / "t.csv"
    path.write_bytes(content.encode())
    assert_reads_like_the_reference(path, header, text, block_chars)


def _stream_lines(n_rows: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    stamps = np.sort(rng.random(n_rows) * 10.0).tolist()
    return ["channel,timestamp_s"] + [
        f"{'signal' if k < n_rows // 2 else 'idler'},{t!r}" for k, t in enumerate(stamps)
    ]


@pytest.mark.parametrize(
    "fault",
    ["none", "comment_n_cells", "blank", "wide", "narrow_then_wide", "nan", "unknown_channel"],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_faults_at_a_real_block_boundary_read_like_the_reference(tmp_path, fault, newline):
    lines = _stream_lines(9000, seed=5)
    # The first data line that the second block of the reader starts with.
    size, boundary = 0, 0
    while size <= csvio._READ_BLOCK_CHARS:
        size += len(lines[boundary]) + 1
        boundary += 1
    k = boundary - 1  # the last line of the first block: edits here straddle the boundary
    if fault == "comment_n_cells":
        lines.insert(boundary + 3, "# n-1 commas: ,")
    elif fault == "blank":
        lines.insert(boundary + 3, "  ")
    elif fault == "wide":
        lines[k] += ",1.0"
    elif fault == "narrow_then_wide":  # two rows whose cell counts balance within one block
        lines[boundary + 2] = "signal"
        lines[boundary + 3] += ",1.0"
    elif fault == "nan":
        lines[boundary] = "signal,nan"
    elif fault == "unknown_channel":
        lines[boundary + 1] = "idle," + lines[boundary + 1].split(",")[1]
    path = tmp_path / "t.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    kind, _ = assert_reads_like_the_reference(
        path, ("channel", "timestamp_s"), ("channel",), csvio._READ_BLOCK_CHARS
    )
    assert kind == ("columns" if fault in ("none", "comment_n_cells", "blank", "unknown_channel")
                    else "DataError")


def test_each_block_after_the_header_is_taken_whole(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_text("\n".join(_stream_lines(9000, seed=6)) + "\n")
    checked = []

    def row_cells(block, n):
        cells = csvio_row_cells(block, n)
        checked.append(cells is not None)
        return cells

    csvio_row_cells = csvio._row_cells
    monkeypatch.setattr(csvio, "_row_cells", row_cells)
    channel, stamps = read_table(path, ("channel", "timestamp_s"), text=("channel",))
    assert len(checked) >= 2 and all(checked)
    assert channel.codes.dtype == np.uint8 and len(channel.codes) == len(stamps) == 9000


def test_codes_widen_past_256_values(tmp_path):
    names = [f"v{k}" for k in range(300)]
    path = tmp_path / "t.csv"
    path.write_text("name,x\n" + "".join(f"{name},{k}\n" for k, name in enumerate(names)))
    name, x = read_table(path, ("name", "x"), text=("name",))
    assert name.codes.dtype == np.uint16
    assert [name.values[code] for code in name.codes] == names


# ------------------------------------------------------------------ writing

RUN_LENGTHS = st.one_of(
    st.sampled_from([0, 1, 4095, 4096, 4097, 8192]), st.integers(0, 40), st.integers(0, 9000)
)


@st.composite
def runs(draw):
    """Channel values, and runs of (value index, length), some of them empty."""
    values = tuple(draw(st.lists(
        st.sampled_from(["signal", "idler", "a b", "", "x.y"]), min_size=1, max_size=3, unique=True
    )))
    chosen = draw(st.lists(
        st.tuples(st.integers(0, len(values) - 1), RUN_LENGTHS), max_size=5
    ))
    return values, chosen


@settings(max_examples=60, deadline=None)
@given(drawn=runs(), layout=st.sampled_from(["text_first", "text_last", "two_texts"]),
       n_comments=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
@example(drawn=(("signal", "idler"), [(0, 100), (1, 200)]), layout="text_first", n_comments=0,
         seed=1)  # a channel switch inside the first block
@example(drawn=(("signal", "idler"), [(0, 4096), (1, 4096)]), layout="text_first",
         n_comments=0, seed=2)  # runs of exactly one block
@example(drawn=(("signal", "idler"), [(0, 1), (1, 0)]), layout="text_first", n_comments=0,
         seed=3)  # a one-row channel and an empty one
@example(drawn=(("signal", "idler"), []), layout="text_first", n_comments=1, seed=4)
@example(drawn=(("signal", "idler"), [(0, 4095), (1, 10)]), layout="text_first", n_comments=0,
         seed=5)  # a switch one row before the block edge, then a one-run block
@example(drawn=(("signal", "idler"), [(0, 4097), (1, 10)]), layout="text_last", n_comments=0,
         seed=6)  # a one-run block, then a switch one row after the block edge
@example(drawn=(("signal", "idler"), [(0, 1), (1, 1)] * 60), layout="text_first", n_comments=0,
         seed=7)  # both channels alternating within one block
def test_write_table_bytes_match_the_row_by_row_writer(
    tmp_path_factory, drawn, layout, n_comments, seed
):
    values, chosen = drawn
    codes = np.repeat(
        np.array([k for k, _ in chosen], np.uint8), [length for _, length in chosen]
    ).astype(np.uint8)
    rng = np.random.default_rng(seed)
    numbers = rng.standard_normal(codes.size) * 10.0 ** rng.integers(-300, 300, codes.size)
    channel = TextColumn(values, codes)
    decoded = [values[code] for code in codes.tolist()]
    if layout == "text_first":
        header, new, old = ("channel", "t"), (channel, numbers), (decoded, numbers)
    elif layout == "text_last":
        header, new, old = ("t", "channel"), (numbers, channel), (numbers, decoded)
    else:  # a second text column whose runs end at other rows
        other_codes = (np.cumsum(rng.random(codes.size) < 0.01) % 2).astype(np.uint8)
        other = TextColumn(("u", "v"), other_codes)
        header = ("a", "t", "b")
        new = (channel, numbers, other)
        old = (decoded, numbers, [other.values[code] for code in other_codes.tolist()])
    comments = [f"note {k}" for k in range(n_comments)]
    tmp = tmp_path_factory.mktemp("write")
    write_table(tmp / "new.csv", header, new, comments)
    reference_write_table(tmp / "old.csv", header, old, comments)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def test_text_columns_mixed_with_list_columns_write_the_reference_bytes(tmp_path):
    channel = TextColumn(("p", "q"), np.array([0, 1, 1, 0], np.uint8))
    columns = (channel, ["1", "2", "3", "4"], np.array([0.5, -0.0, 1e300, 7.0]))
    write_table(tmp_path / "new.csv", ("c", "s", "x"), columns)
    old = (["p", "q", "q", "p"], columns[1], columns[2])
    reference_write_table(tmp_path / "old.csv", ("c", "s", "x"), old)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("value", ["src,strip", "two\nlines", "carriage\rreturn"])
@pytest.mark.parametrize("used", [True, False])
def test_a_text_value_that_would_break_the_format_is_rejected(tmp_path, value, used):
    codes = np.array([0, 1 if used else 0], np.uint8)
    with pytest.raises(ValueError, match="comma or a line break"):
        write_table(tmp_path / "t.csv", ("id", "x"), (TextColumn(("ok", value), codes), [1.0, 2.0]))


BOUNDARY_ROWS = [4095, 4096, 4097, 8193]  # one block is 4,096 rows


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
@pytest.mark.parametrize("mirrored", [True, False])
def test_spectrum_and_mismatch_files_at_block_boundaries_are_the_reference_bytes(
    tmp_path, rows, mirrored
):
    grid = SpectralGrid(1.2e15, 3.0e13, rows)
    x = grid.omegas - grid.center
    values = x**2 if mirrored else np.exp(x / grid.half_span) * 1e-3
    write_spectrum_csv(tmp_path / "spectrum.csv", BiphotonSpectrum(grid, values), "abc")
    write_mismatch_csv(tmp_path / "mismatch.csv", grid, -values, "abc")
    for name, header, column in (("spectrum", SPECTRUM_HEADER, values),
                                 ("mismatch", MISMATCH_HEADER, -values)):
        old = (grid.omegas, grid.detunings_hz() / 1e12, column)
        reference_write_table(tmp_path / "old.csv", header, old, ("config_sha256=abc",))
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
def test_mixed_columns_at_block_boundaries_are_the_reference_bytes(tmp_path, rows):
    rng = np.random.default_rng(rows)
    codes = (rng.random(rows) < 0.3).astype(np.uint8)
    channel = TextColumn(("signal", "idler"), codes)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    names = [f"n{k % 7}" for k in range(rows)]
    ints = rng.integers(-5, 5, rows)
    header = ("c", "x", "name", "k", "y")
    new = (channel, floats, names, ints, list(floats[::-1]))
    old = ([channel.values[c] for c in codes.tolist()], floats, names, ints, new[4])
    write_table(tmp_path / "new.csv", header, new, ["note"])
    reference_write_table(tmp_path / "old.csv", header, old, ["note"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("bad", [",", "\r", "\n"])
@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("row", [5, 4096 + 5])  # in the first or the second block
def test_a_caller_text_cell_that_would_break_the_format_is_rejected(tmp_path, bad, column, row):
    rows = 4096 + 10
    columns = [np.arange(rows, dtype=float), np.arange(rows) * 0.5, np.arange(rows)]
    cells = [f"id{k}" for k in range(rows)]
    cells[row] = f"a{bad}b"
    columns[column] = cells
    errors = []
    for write, name in ((write_table, "new.csv"), (reference_write_table, "old.csv")):
        with pytest.raises(ValueError, match="comma or a line break") as info:
            write(tmp_path / name, ("a", "b", "c"), columns)
        errors.append(str(info.value).replace(name, "t.csv"))
    assert errors[0] == errors[1]
