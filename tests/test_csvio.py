"""The one CSV table format: write_table / read_table and every table the CLI emits."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfwm_sim import csvio
from sfwm_sim.cli import SUMMARY_HEADER, main
from sfwm_sim.coincidence import TIMESTAMP_HEADER
from sfwm_sim.csvio import (
    HISTOGRAM_HEADER,
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

FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.1, 1e16, 1e-5]


def _tables(min_rows: int):
    return st.integers(1, 4).flatmap(
        lambda n_cols: arrays(
            np.float64, st.tuples(st.integers(min_rows, 12), st.just(n_cols)), elements=FINITE
        )
    )


def _header(n_cols: int) -> tuple[str, ...]:
    return tuple(f"c{j}" for j in range(n_cols))


@settings(max_examples=150, deadline=None)
@given(table=_tables(min_rows=0), n_comments=st.integers(0, 2))
@example(table=np.array([EXTREMES]).T, n_comments=1)
@example(table=np.array([EXTREMES, EXTREMES[::-1]]).T, n_comments=0)
def test_finite_float_columns_round_trip_bit_exactly(tmp_path_factory, table, n_comments):
    path = tmp_path_factory.mktemp("rt") / "table.csv"
    header = _header(table.shape[1])
    write_table(path, header, list(table.T), [f"note {i}" for i in range(n_comments)])
    columns = read_table(path, header)
    assert len(columns) == table.shape[1]
    for written, read in zip(table.T, columns):
        assert read.dtype == np.float64
        np.testing.assert_array_equal(read.view(np.int64), written.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(
    table=_tables(min_rows=1),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    n_comments=st.integers(0, 2),
    data=st.data(),
)
def test_single_non_finite_cell_rejected_with_its_line(
    tmp_path_factory, table, bad, n_comments, data
):
    row = data.draw(st.integers(0, table.shape[0] - 1))
    col = data.draw(st.integers(0, table.shape[1] - 1))
    table = table.copy()
    table[row, col] = bad
    path = tmp_path_factory.mktemp("nf") / "table.csv"
    header = _header(table.shape[1])
    write_table(path, header, list(table.T), ["x"] * n_comments)
    line = n_comments + 2 + row  # comments, the header, then rows from line n_comments + 2
    with pytest.raises(DataError, match=rf"table\.csv:{line}: c{col} .*not finite"):
        read_table(path, header)


def test_bytes_of_the_format(tmp_path):
    path = tmp_path / "t.csv"
    columns = (["a", "b"], np.array([0.1, -0.0]), np.array([1, 0]))
    write_table(path, ("name", "x", "n"), columns, ["k=v"])
    assert path.read_bytes() == b"# k=v\nname,x,n\r\na,0.1,1\r\nb,-0.0,0\r\n"


def test_reader_skips_blank_and_comment_lines_and_accepts_lf(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# top\n\n name , x \nsignal,1.5\n   \n  # mid\nidler , 2\n")
    name, x = read_table(path, ("name", "x"), text=("name",))
    assert name.codes.dtype == np.uint8 and sorted(name.values) == ["idler", "signal"]
    assert [name.values[code] for code in name.codes] == ["signal", "idler"]
    np.testing.assert_array_equal(x, [1.5, 2.0])


@pytest.mark.parametrize(
    "text, message",
    [
        ("", r"t\.csv: no header line"),
        ("# only a comment\n", r"t\.csv: no header line"),
        ("# c\na,y\n1,2\n", r"t\.csv:2: expected header 'a,b'"),
        ("a,b\n1,2\n\n3\n", r"t\.csv:4: expected 2 cells, got 1"),
        ("a,b\n1,2\n3,4,5\n", r"t\.csv:3: expected 2 cells, got 3"),
        ("a,b\n1,2\n3,four\n", r"t\.csv:3: b cell 'four' is not a number"),
        ("a,b\n1,2\n# c\n3,\n", r"t\.csv:4: b cell '' is not a number"),
    ],
)
def test_malformed_tables_name_their_line(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        read_table(path, ("a", "b"))


def test_writer_rejects_cells_that_would_break_the_format(tmp_path):
    for cell in ("src,strip", "two\nlines", "carriage\rreturn"):
        with pytest.raises(ValueError, match="comma or a line break"):
            write_table(tmp_path / "t.csv", ("id", "x"), ([cell], [1.0]))


def test_every_emitted_table_reads_back_with_its_header(tmp_path):
    spectrum_cfg = tmp_path / "spectrum.yaml"
    spectrum_cfg.write_text(yaml.safe_dump({
        "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_w": 1.0},
        "grid": {"span_thz": 20.0, "points": 64},
        "waveguides": [{"label": "strip", "kind": "strip", "length_mm": 5.0}],
    }))
    car_cfg = tmp_path / "car.yaml"
    car_cfg.write_text(yaml.safe_dump({
        "bin_width_ps": 1000.0,
        "window_ns": 41.0,
        "synthesize": {"duration_s": 0.5, "pair_rate_hz": 1000.0,
                       "noise_rate_signal_hz": 500.0, "noise_rate_idler_hz": 500.0},
    }))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(spectrum_cfg), "--out", str(out)]) == 0
    assert main(["circuit", "--template", "app1_timebin", "--out", str(out)]) == 0
    assert main(["car", "--config", str(car_cfg), "--out", str(out), "--seed", "3"]) == 0

    declared = {
        "_spectrum.csv": (SPECTRUM_HEADER, ()),
        "_mismatch.csv": (MISMATCH_HEADER, ()),
        "_summary.csv": (SUMMARY_HEADER, ("segment", "pump_powers_w")),
        "histogram.csv": (HISTOGRAM_HEADER, ()),
        "timestamps.csv": (TIMESTAMP_HEADER, ("channel",)),
    }
    seen = set()
    for path in sorted(out.glob("*.csv")):
        (suffix,) = [s for s in declared if path.name.endswith(s)]
        header, text = declared[suffix]
        columns = read_table(path, header, text=text)
        lengths = {len(col.codes) if isinstance(col, TextColumn) else len(col) for col in columns}
        assert len(lengths) == 1 and lengths != {0}, path.name
        seen.add(suffix)
    assert seen == set(declared)


def _grid_and_values(draw) -> tuple[SpectralGrid, np.ndarray]:
    n = draw(st.integers(2, 40))
    center = draw(st.floats(1e12, 1e16))
    grid = SpectralGrid(center, center * draw(st.floats(1e-6, 0.99)), n)
    x = grid.omegas - grid.center
    kind = draw(st.sampled_from(["mirrored", "ulp_off", "signed_zeros", "off_centre", "any"]))
    if kind == "any":
        return grid, draw(arrays(np.float64, n, elements=FINITE))
    if kind == "off_centre":  # an even function about a point beside the grid centre
        return grid, (x - draw(st.floats(-0.5, 0.5)) * grid.half_span) ** 2
    half = draw(arrays(np.float64, n - n // 2, elements=FINITE))
    values = np.concatenate([half[::-1][: n // 2], half])  # bit-mirrored
    k = draw(st.integers(0, n // 2 - 1))
    if kind == "ulp_off":  # one ulp toward zero (up from 0.0), so no value overflows to inf
        values[k] = np.nextafter(values[k], -np.inf if values[k] > 0.0 else np.inf)
    elif kind == "signed_zeros":  # equal under ==, not bit for bit
        values[k], values[n - 1 - k] = -0.0, 0.0
    return grid, values


@settings(max_examples=200, deadline=None)
@given(drawn=st.composite(_grid_and_values)())
def test_spectrum_and_mismatch_files_are_the_old_write_table_bytes(tmp_path_factory, drawn):
    grid, values = drawn
    flux = np.where(values < 0.0, -values, values)  # keeps -0.0
    tmp = tmp_path_factory.mktemp("cells")
    write_spectrum_csv(tmp / "spectrum.csv", BiphotonSpectrum(grid, flux), "abc")
    write_mismatch_csv(tmp / "mismatch.csv", grid, values, "abc")
    for name, header, column in (("spectrum", SPECTRUM_HEADER, flux),
                                 ("mismatch", MISMATCH_HEADER, values)):
        old = (grid.omegas, grid.detunings_hz() / 1e12, column)
        write_table(tmp / "old.csv", header, old, ("config_sha256=abc",))
        assert (tmp / f"{name}.csv").read_bytes() == (tmp / "old.csv").read_bytes()


ANY_FLOAT = st.floats() | st.sampled_from(EXTREMES + [math.inf, -math.inf, math.nan, -math.nan])


@st.composite
def _cell_columns(draw) -> np.ndarray:
    """Columns that are mirrored, anti-mirrored or neither, possibly one ulp off either."""
    n = draw(st.integers(0, 13))
    kind = draw(st.sampled_from(["mirrored", "anti_mirrored", "positive_anti_mirrored", "any"]))
    if kind == "any":
        return draw(arrays(np.float64, n, elements=ANY_FLOAT))
    upper = draw(arrays(np.float64, n - n // 2, elements=ANY_FLOAT))  # centre included
    if kind == "positive_anti_mirrored":
        upper = np.abs(upper)
    lower = upper[n % 2 :][::-1]
    values = np.concatenate([lower if kind == "mirrored" else -lower, upper])
    if n and draw(st.booleans()):
        k, toward = draw(st.integers(0, n - 1)), draw(st.sampled_from([-math.inf, math.inf]))
        with np.errstate(over="ignore"):  # the largest float steps to inf
            values[k] = np.nextafter(values[k], toward)
    return values


@settings(max_examples=300, deadline=None)
@given(values=_cell_columns())
@example(values=SpectralGrid(1.2e15, 3.0e13, 4096).detunings_hz() / 1e12)
@example(values=SpectralGrid(1.2e15, 3.0e13, 7).detunings_hz() / 1e12)
@example(values=np.array([-5e-324, 0.0, 5e-324]))
@example(values=np.array([-0.0, 0.0]))
@example(values=np.array([0.0, -0.0]))
@example(values=np.array([-math.inf, math.inf]))
@example(values=np.array([-math.nan, math.nan]))
def test_cells_are_the_str_of_each_value(values):
    assert csvio._cells(values) == list(map(str, values.tolist()))


def _column_pool(draw, n: int) -> list[np.ndarray]:
    """Value columns for one grid, several of them equal under == but not bit for bit."""
    base = np.abs(draw(arrays(np.float64, n, elements=FINITE)))
    signed = base.copy()
    signed[draw(st.integers(0, n - 1))] = -0.0  # equal to 0.0 under ==, not bit for bit
    zeros = np.zeros(n)
    return [base, base.copy(), signed, zeros, -zeros, zeros.astype(np.int64),
            np.nextafter(base, 0.0)]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_runs_of_identical_and_different_columns_are_the_write_table_bytes(
    tmp_path_factory, data
):
    n = data.draw(st.integers(2, 12))
    grid = SpectralGrid(1.2e15, 3.0e13, n)
    pool = _column_pool(data.draw, n)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    tmp = tmp_path_factory.mktemp("runs")
    for k, pick in enumerate(picks):
        column = pool[pick]
        if column.dtype == np.float64 and data.draw(st.booleans()):
            header = SPECTRUM_HEADER
            write_spectrum_csv(tmp / f"{k}.csv", BiphotonSpectrum(grid, column), "abc")
        else:
            header = MISMATCH_HEADER
            write_mismatch_csv(tmp / f"{k}.csv", grid, column, "abc")
        old = (grid.omegas, grid.detunings_hz() / 1e12, column)
        write_table(tmp / "old.csv", header, old, ("config_sha256=abc",))
        assert (tmp / f"{k}.csv").read_bytes() == (tmp / "old.csv").read_bytes()
        # The memo holds the grid cells and the row text of the last value
        # column, nothing more.
        entry = csvio._GRID_CELLS[grid]
        assert [part for part in entry if isinstance(part, list)] == [entry[0], entry[1]]
        assert entry[3] == (tmp / "old.csv").read_bytes().decode().split("\r\n", 1)[1]


def test_a_repeated_column_reuses_the_row_text_and_a_new_one_replaces_it(tmp_path):
    grid = SpectralGrid(1.2e15, 3.0e13, 5)
    flux = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    write_spectrum_csv(tmp_path / "a.csv", BiphotonSpectrum(grid, flux), "abc")
    rows = csvio._GRID_CELLS[grid][3]
    write_spectrum_csv(tmp_path / "b.csv", BiphotonSpectrum(grid, flux.copy()), "abc")
    assert csvio._GRID_CELLS[grid][3] is rows
    write_mismatch_csv(tmp_path / "c.csv", grid, -flux, "abc")
    rows = csvio._GRID_CELLS[grid][3]
    assert [row.rsplit(",", 1)[1] for row in rows.split("\r\n")[:-1]] == [
        "-1.0", "-2.0", "-3.0", "-2.0", "-1.0"
    ]
    assert (tmp_path / "c.csv").read_bytes().endswith(rows.encode())


@pytest.mark.parametrize("n", [4, 6])
def test_a_value_column_off_the_grid_length_is_refused(tmp_path, n):
    grid = SpectralGrid(1.2e15, 3.0e13, 5)
    with pytest.raises(ValueError, match="all of one length"):
        write_mismatch_csv(tmp_path / "m.csv", grid, np.ones(n), "abc")


def test_grid_cells_live_only_as_long_as_their_grid(tmp_path):
    gc.collect()
    before = len(csvio._GRID_CELLS)
    grid = SpectralGrid(1.2e15, 3.0e13, 7)
    write_mismatch_csv(tmp_path / "m.csv", grid, np.zeros(7), "abc")
    write_spectrum_csv(tmp_path / "s.csv", BiphotonSpectrum(grid, np.ones(7)), "abc")
    write_spectrum_csv(tmp_path / "t.csv", BiphotonSpectrum(grid, np.ones(7)), "abc")
    assert grid in csvio._GRID_CELLS and len(csvio._GRID_CELLS) == before + 1
    del grid
    gc.collect()
    assert len(csvio._GRID_CELLS) == before


def test_reading_a_long_table_holds_its_float_column_about_once(tmp_path):
    rows = 1_000_000  # a timestamp stream: half the rows on each channel, each ascending
    stamps = np.concatenate([np.sort(np.random.default_rng(k).random(rows // 2)) * 10.0
                             for k in range(2)])
    codes = np.repeat(np.arange(2, dtype=np.uint8), rows // 2)
    path = tmp_path / "t.csv"
    write_table(path, TIMESTAMP_HEADER, (TextColumn(("signal", "idler"), codes), stamps))
    tracemalloc.start()
    try:
        channel, read = read_table(path, TIMESTAMP_HEADER, text=("channel",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(read.view(np.int64), stamps.view(np.int64))
    np.testing.assert_array_equal(channel.codes, codes)
    result = read.nbytes + channel.codes.nbytes
    # The columns and about one read block (1.2 times the columns here), not
    # the blocks and their concatenation (2.1 times).
    assert peak < 1.3 * result, (peak, result)


def test_a_column_whose_early_rows_are_short_is_not_over_reserved(tmp_path):
    # A counter: the first block's rows hold 3 to 8 characters, most later
    # rows 10, so the first block alone suggests 1.3 times the rows there are.
    values = np.arange(1_000_000) * 0.5
    path = tmp_path / "k.csv"
    write_table(path, ("v",), (values,))
    tracemalloc.start()
    try:
        (read,) = read_table(path, ("v",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(read, values)
    # The column, a few percent of reserve and one read block (1.28 times
    # the column here), not a reserve sized from the first block (1.81).
    assert peak <= 1.3 * read.nbytes, (peak, read.nbytes)
