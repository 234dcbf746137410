"""The one CSV table format (see README "File formats"), and the tables on it.

``write_table`` and ``read_table`` are the only code that formats or parses
CSV: ``# ...`` comment lines ending in LF, then a header and rows ending in
CRLF, unquoted comma-separated cells, floats in shortest round-trip form.

A text column (such as the timestamps' ``channel``) is held as a
``TextColumn``: its distinct values once, and one small unsigned integer code
per row.  ``read_table`` returns it that way and ``write_table`` takes it that
way; in the file it is one plain cell per row.

Spectrum and mismatch tables do each distinct piece of formatting once: the
omega and detuning cells once per grid, a mirrored or anti-mirrored float
column's cells once per mirror pair (see _cells), and the row text of a
table once per run of bit-identical value columns on one grid (see
_grid_rows).
"""

from __future__ import annotations

import os
from functools import partial
from itertools import islice, repeat
from math import inf, isfinite
from pathlib import Path
from typing import NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from .engine import BiphotonSpectrum, SpectralGrid
from .errors import DataError

SPECTRUM_HEADER = ("omega_rad_s", "detuning_thz", "flux_density_per_hz")
MISMATCH_HEADER = ("omega_rad_s", "detuning_thz", "delta_k_rad_per_m")
HISTOGRAM_HEADER = ("bin_center_s", "counts")

# Both directions work in blocks, so a long timestamp stream never holds
# more than one block of cell strings in memory.
_WRITE_BLOCK_ROWS = 1 << 12
_READ_BLOCK_CHARS = 1 << 16
_BREAKS = frozenset(",\r\n")  # the characters no cell may hold

# Per grid: [omega cells, detuning cells, key and row text of the last value
# column written on it] (see _grid_rows); an entry dies with its grid.
_GRID_CELLS: WeakKeyDictionary = WeakKeyDictionary()


class TextColumn(NamedTuple):
    """A text column: each distinct value once, and per row the index of its value.

    ``codes`` is an array of the smallest unsigned integer type that holds
    ``len(values) - 1`` (one byte per row up to 256 values); row ``k`` holds
    ``values[codes[k]]``.
    """

    values: tuple[str, ...]
    codes: np.ndarray


class _NumberCells(list):
    """Cells that csvio formatted from numbers: ``write_table`` writes them unscanned."""


def _length(column) -> int:
    return len(column.codes) if isinstance(column, TextColumn) else len(column)


def write_table(path: str | Path, header, columns, comments=()) -> None:
    """Write equal-length ``columns``, one per header name, after ``# comment`` lines.

    A column is a TextColumn, a numpy array or a list.  Cells are written with
    ``str``; numpy columns go through ``tolist()`` first, so float64 cells come
    out in Python's shortest round-trip form.  Every table is written one
    block of rows at a time, each block built column by column and joined
    once (see _column_blocks).  A cell given as text (a TextColumn value, used
    or not, or a list cell) that holds a comma or a line break raises
    ValueError; a number's ``str`` holds neither, so cells formatted from
    numbers are not scanned.
    """
    if len(columns) != len(header) or len({_length(col) for col in columns}) > 1:
        raise ValueError(f"{path}: need one column per header name, all of one length")
    texts = [col for col in columns if isinstance(col, TextColumn)]
    if any(_BREAKS.intersection(value) for col in texts for value in col.values):
        raise ValueError(f"{path}: a cell contains a comma or a line break")
    _write(path, header, comments, _column_blocks(path, columns))


def _write(path, header, comments, blocks) -> None:
    """Write the ``# comment`` lines, the header and the row text ``blocks``."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in comments) + ",".join(header) + "\r\n")
        fh.writelines(blocks)


def _is_numeric(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "biuf"


def _block_cells(path, column, start: int, stop: int) -> list[str]:
    """The cells of rows ``start:stop`` of ``column`` as ``str``, those given as text checked."""
    if isinstance(column, _NumberCells):
        return column[start:stop]
    if isinstance(column, TextColumn):  # its values are checked once, in write_table
        codes = column.codes[start:stop]
        if codes.min() == codes.max():  # one run of one value: one repeat
            return [column.values[codes[0]]] * len(codes)
        return list(map(column.values.__getitem__, codes.tolist()))
    block = column[start:stop]
    cells = list(map(str, block.tolist() if isinstance(block, np.ndarray) else block))
    if not _is_numeric(block) and not _BREAKS.isdisjoint("".join(cells)):
        raise ValueError(f"{path}: a cell contains a comma or a line break")
    return cells


def _column_blocks(path, columns):
    """The rows of any table, one block at a time, each block built column by column.

    A block is one list of cells and separators (a comma, or CRLF after the
    last column), filled one column slice at a time and joined once.
    """
    n = len(columns)
    row = [","] * (2 * n)
    row[-1] = "\r\n"
    for start in range(0, _length(columns[0]), _WRITE_BLOCK_ROWS):
        stop = start + _WRITE_BLOCK_ROWS
        cells = [_block_cells(path, col, start, stop) for col in columns]
        parts = row * len(cells[0])
        for j, column_cells in enumerate(cells):
            parts[2 * j :: 2 * n] = column_cells
        yield "".join(parts)


def _is_row(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


def row_error(path: str | Path, row: int, message: str) -> DataError:
    """A DataError naming the file line of data row ``row`` (0-based; -1 is the header)."""
    with Path(path).open(encoding="utf-8") as fh:
        lines = (n for n, line in enumerate(fh, start=1) if _is_row(line))
        return DataError(f"{path}:{next(islice(lines, row + 1, None))}: {message}")


def _floats(path: Path, first_row: int, name: str, cells: list[str]) -> np.ndarray:
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
            raise row_error(path, first_row + k, f"{name} cell {cell.strip()!r} {problem}")
    raise AssertionError


def _codes(cells: list[str], index: dict[str, int]) -> np.ndarray:
    """The code of each cell's stripped value in ``index``, which gains each new value.

    Each distinct cell is stripped once (in sorted order, so that no code
    depends on string hashing), and a block of one value is one fill.
    """
    local = {cell: index.setdefault(cell.strip(), len(index)) for cell in sorted(set(cells))}
    dtype = np.min_scalar_type(max(len(index) - 1, 0))
    if len(local) == 1:
        return np.full(len(cells), *local.values(), dtype)
    return np.fromiter(map(local.__getitem__, cells), dtype, len(cells))


def _row_cells(block: list[str], n: int) -> list[str] | None:
    """The cells of ``block`` when each of its lines is a row of ``n`` cells, else None.

    The block must hold no ``#``, split into ``n`` cells per line once its
    lines are joined with commas, and have each line break in a last-column
    cell.  The join adds a cell boundary at each line end, so then every line
    holds a whole number of rows' cells, and with ``n`` per line on average,
    exactly ``n``.  With ``n == 1`` a blank line would pass, so it is checked.
    """
    joined = ",".join(block)
    if "#" in joined:
        return None
    cells = joined.split(",")
    breaks = len(block) - (not block[-1].endswith("\n"))  # only a file's last line lacks one
    if len(cells) != n * len(block) or "".join(cells[n - 1 :: n]).count("\n") != breaks:
        return None
    if n == 1 and not all(map(str.strip, cells)):
        return None
    return cells


def read_table(path: str | Path, header, text=()) -> list:
    """The columns of a table whose header is exactly ``header``.

    Blank and ``#`` lines are skipped and LF line ends are accepted.  Columns
    named in ``text`` come back as TextColumns of stripped strings, all others
    as float64 arrays.  An unreadable file, a wrong header, a row with the
    wrong number of cells or a numeric cell that is not a finite number raises
    DataError naming ``path:line``.
    """
    path, n = Path(path), len(header)
    # Per column: its code blocks, or one float array grown in place (see _put).
    parts: list = [[] if name in text else np.empty(0) for name in header]
    index: list[dict[str, int]] = [{} for _ in header]  # per text column: value -> code
    done = -1  # data rows read so far; -1 until the header is read
    try:
        with path.open(encoding="utf-8") as fh:
            # Bytes in the file, and bytes read so far: the text layer reads
            # ahead at most one chunk, so ``fh.buffer.tell()`` runs ahead of the
            # rows by at most that much.
            size = os.fstat(fh.fileno()).st_size
            for block in iter(partial(fh.readlines, _READ_BLOCK_CHARS), []):
                seen = fh.buffer.tell()
                cells = _row_cells(block, n) if done >= 0 else None
                if cells is None:  # a header, comment, blank or malformed line: row by row
                    rows = list(filter(_is_row if "#" in "".join(block) else str.strip, block))
                    if done < 0 and rows:
                        got = tuple(cell.strip() for cell in rows.pop(0).split(","))
                        if got != tuple(header):
                            expected, got = ",".join(header), ",".join(got)
                            raise row_error(path, -1, f"expected header {expected!r}, got {got!r}")
                        done = 0
                    counts = list(map(str.count, rows, repeat(",")))
                    if counts.count(n - 1) != len(rows):
                        k = next(k for k, c in enumerate(counts) if c != n - 1)
                        raise row_error(path, done + k, f"expected {n} cells, got {counts[k] + 1}")
                    cells = ",".join(rows).split(",") if rows else []
                stop = done + len(cells) // n
                for j, name in enumerate(header):
                    if name in text:
                        parts[j].append(_codes(cells[j::n], index[j]))
                    else:
                        floats = _floats(path, done, name, cells[j::n])
                        _put(parts[j], done, floats, stop * size // seen)
                done = stop
                del block, cells  # hold one block of cell strings at a time
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read table ({exc})") from exc
    if done < 0:
        raise DataError(f"{path}: no header line, expected {','.join(header)!r}")
    for name, col in zip(header, parts):
        if name not in text:
            col.resize(done, refcheck=False)
    return [
        TextColumn(tuple(values), np.concatenate(col)) if name in text else col
        for name, col, values in zip(header, parts, index)
    ]


def _put(column: np.ndarray, start: int, values: np.ndarray, rows_hint: int) -> None:
    """Write ``values`` into ``column`` from row ``start``, growing it in place when full.

    It grows to a sixteenth past ``rows_hint``, the rows the whole file holds
    at the density in bytes read so far, but at most to twice the rows read:
    a file whose early rows are shorter than the rest (a counter gaining
    digits) gives too high an early hint.  A long column is never held
    twice, and its last growth follows a hint taken over at least half its
    rows.
    """
    stop = start + len(values)
    if len(column) < stop:
        column.resize(min(max(stop, rows_hint) * 17 // 16, 2 * stop), refcheck=False)
    column[start:stop] = values


def _sha_comment(config_sha: str) -> tuple[str]:
    return (f"config_sha256={config_sha}",)


def _cells(values: np.ndarray) -> _NumberCells:
    """The ``str`` of each value, as ``write_table`` would format them.

    A float64 column whose lower half mirrors its upper half bit for bit
    (compared as int64, so 0.0 and -0.0 differ) formats only the upper half,
    centre value included: a mirrored lower half reuses those strings in
    reverse, and an anti-mirrored one (each value its mirror negated, as in a
    detuning column) prefixes them with "-".  That prefix is the negation's
    ``str`` only for a positive finite value, so only such upper halves take
    the second path.
    """
    values = np.asarray(values)
    if values.dtype == np.float64:
        n = len(values)
        half = n // 2
        lower, mirror = values[:half].view(np.int64), values[n - half :][::-1]
        if np.array_equal(lower, mirror.view(np.int64)):
            upper = list(map(str, values[half:].tolist()))
            return _NumberCells(upper[::-1][:half] + upper)
        if (
            mirror.min() > 0.0
            and mirror.max() < inf
            and np.array_equal(lower, np.negative(mirror).view(np.int64))
        ):
            upper = list(map(str, values[half:].tolist()))
            return _NumberCells(list(map("-".__add__, upper[::-1][:half])) + upper)
    return _NumberCells(map(str, values.tolist()))


def _grid_rows(path, grid: SpectralGrid, values: np.ndarray) -> str:
    """The row text of the omega, detuning (THz) and ``values`` table on ``grid``.

    The grid cells are formatted once while the grid lives.  Only the row
    text of the last value column is kept, keyed on the column's bytes (so
    0.0 and -0.0 differ); a bit-identical next column on the grid writes
    that text again.
    """
    if _length(values) != grid.n_points:
        raise ValueError(f"{path}: need one column per header name, all of one length")
    entry = _GRID_CELLS.get(grid)
    if entry is None:
        entry = [_cells(grid.omegas), _cells(grid.detunings_hz() / 1e12), None, None]
        _GRID_CELLS[grid] = entry
    values = np.asarray(values)
    key = (values.dtype.str, values.shape, values.tobytes())
    if entry[2] != key:
        columns = entry[0], entry[1], _cells(values)
        entry[2:] = key, "".join(_column_blocks(path, columns))
    return entry[3]


def write_spectrum_csv(path: str | Path, spectrum: BiphotonSpectrum, config_sha: str) -> None:
    rows = _grid_rows(path, spectrum.grid, spectrum.flux_density)
    _write(path, SPECTRUM_HEADER, _sha_comment(config_sha), (rows,))


def write_mismatch_csv(
    path: str | Path, grid: SpectralGrid, delta_k: np.ndarray, config_sha: str
) -> None:
    rows = _grid_rows(path, grid, delta_k)
    _write(path, MISMATCH_HEADER, _sha_comment(config_sha), (rows,))


def write_histogram_csv(path: str | Path, hist, config_sha: str) -> None:
    write_table(
        path,
        HISTOGRAM_HEADER,
        (hist.bin_centers_s, hist.counts.astype(float)),
        _sha_comment(config_sha),
    )
