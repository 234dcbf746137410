"""The one CSV table format (see README "File formats"), and the tables on it.

``write_table`` and ``read_table`` are the only code that formats or parses
CSV: ``# ...`` comment lines ending in LF, then a header and rows ending in
CRLF, unquoted comma-separated cells, floats in shortest round-trip form.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import islice, repeat
from math import isfinite
from pathlib import Path
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

# Per grid: [omega cells, detuning cells, key and cells of the last value
# column written on it] (see _table_cells); an entry dies with its grid.
_GRID_CELLS: WeakKeyDictionary = WeakKeyDictionary()


def write_table(path: str | Path, header, columns, comments=()) -> None:
    """Write equal-length ``columns``, one per header name, after ``# comment`` lines.

    Cells are written with ``str``; numpy columns go through ``tolist()``
    first, so float64 cells come out in Python's shortest round-trip form.
    """
    if len(columns) != len(header) or len({len(col) for col in columns}) > 1:
        raise ValueError(f"{path}: need one column per header name, all of one length")
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in comments) + ",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            block = [col[start : start + _WRITE_BLOCK_ROWS] for col in columns]
            cells = (map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in block)
            rows = list(map(",".join, zip(*cells)))
            text = "\r\n".join(rows) + "\r\n"
            breaks = text.count("\r") + text.count("\n")
            if text.count(",") != (len(header) - 1) * len(rows) or breaks != 2 * len(rows):
                raise ValueError(f"{path}: a cell contains a comma or a line break")
            fh.write(text)


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


def read_table(path: str | Path, header, text=()) -> list:
    """The columns of a table whose header is exactly ``header``.

    Blank and ``#`` lines are skipped and LF line ends are accepted.  Columns
    named in ``text`` come back as lists of stripped strings, all others as
    float64 arrays.  An unreadable file, a wrong header, a row with the wrong
    number of cells or a numeric cell that is not a finite number raises
    DataError naming ``path:line``.
    """
    path, n = Path(path), len(header)
    parts: list[list] = [[] for _ in header]
    done = -1  # data rows read so far; -1 until the header is read
    try:
        with path.open(encoding="utf-8") as fh:
            for block in iter(partial(fh.readlines, _READ_BLOCK_CHARS), []):
                rows = list(filter(_is_row if "#" in "".join(block) else str.strip, block))
                if done < 0 and rows:
                    got = tuple(cell.strip() for cell in rows.pop(0).split(","))
                    if got != tuple(header):
                        message = f"expected header {','.join(header)!r}, got {','.join(got)!r}"
                        raise row_error(path, -1, message)
                    done = 0
                counts = list(map(str.count, rows, repeat(",")))
                if counts.count(n - 1) != len(rows):
                    k = next(k for k, c in enumerate(counts) if c != n - 1)
                    raise row_error(path, done + k, f"expected {n} cells, got {counts[k] + 1}")
                cells = ",".join(rows).split(",") if rows else []
                for j, name in enumerate(header):
                    if name in text:  # text cells repeat (channel names): one object per value
                        parts[j].extend(map(sys.intern, map(str.strip, cells[j::n])))
                    else:
                        parts[j].append(_floats(path, done, name, cells[j::n]))
                done += len(rows)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read table ({exc})") from exc
    if done < 0:
        raise DataError(f"{path}: no header line, expected {','.join(header)!r}")
    return [col if name in text else np.concatenate(col) for name, col in zip(header, parts)]


def _sha_comment(config_sha: str) -> tuple[str]:
    return (f"config_sha256={config_sha}",)


def _cells(values: np.ndarray) -> list[str]:
    """The ``str`` of each value, as ``write_table`` would format them.

    A float64 column that mirrors bit for bit (compared as int64, so 0.0 and
    -0.0 differ) formats only its upper half; the lower half reuses those
    strings in reverse.
    """
    values = np.asarray(values)
    if values.dtype == np.float64:
        bits = values.view(np.int64)
        if np.array_equal(bits, bits[::-1]):
            half = len(values) // 2
            upper = list(map(str, values[half:].tolist()))
            return upper[::-1][:half] + upper
    return list(map(str, values.tolist()))


def _table_cells(grid: SpectralGrid, values: np.ndarray) -> tuple[list[str], ...]:
    """The omega, detuning (THz) and ``values`` cells of a table on ``grid``.

    The grid cells are formatted once while the grid lives.  Only the last
    value column is kept, keyed on its bytes (so 0.0 and -0.0 differ); a
    bit-identical next column on the grid reuses its cells.
    """
    entry = _GRID_CELLS.get(grid)
    if entry is None:
        entry = [_cells(grid.omegas), _cells(grid.detunings_hz() / 1e12), None, None]
        _GRID_CELLS[grid] = entry
    values = np.asarray(values)
    key = (values.dtype.str, values.shape, values.tobytes())
    if entry[2] != key:
        entry[2:] = key, _cells(values)
    return entry[0], entry[1], entry[3]


def write_spectrum_csv(path: str | Path, spectrum: BiphotonSpectrum, config_sha: str) -> None:
    columns = _table_cells(spectrum.grid, spectrum.flux_density)
    write_table(path, SPECTRUM_HEADER, columns, _sha_comment(config_sha))


def write_mismatch_csv(
    path: str | Path, grid: SpectralGrid, delta_k: np.ndarray, config_sha: str
) -> None:
    columns = _table_cells(grid, delta_k)
    write_table(path, MISMATCH_HEADER, columns, _sha_comment(config_sha))


def write_histogram_csv(path: str | Path, hist, config_sha: str) -> None:
    write_table(
        path,
        HISTOGRAM_HEADER,
        (hist.bin_centers_s, hist.counts.astype(float)),
        _sha_comment(config_sha),
    )
