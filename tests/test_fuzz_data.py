"""Fuzz ``cli.main`` with mutated copies of the two data files it reads.

Each example takes the shipped mode-field CSV (for ``gamma``) or a small
``channel,timestamp_s`` file (for ``car``) and edits its rows: a cell dropped
or added, text, non-finite, huge and tiny numbers, a whole column scaled,
rows duplicated, swapped or deleted, a wrong header, an empty file.  Every
outcome must be an exit code of 0, 2, 3 or 4: an exception escaping ``main``
(a RuntimeWarning included, since pytest turns those into errors) fails the
test.
"""

from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sfwm_sim.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MODE_FIELD_LINES = (CONFIGS / "modefields" / "gaussian_21x21.csv").read_text().splitlines()
# 12 signal/idler pairs 1 us apart, each idler 0.2 ns after its signal.
TIMESTAMP_LINES = ["channel,timestamp_s"] + [
    f"{channel},{k * 1e-6 + delay!r}"
    for k in range(1, 13)
    for channel, delay in (("signal", 0.0), ("idler", 2e-10))
]
FILES = {
    "gamma": (MODE_FIELD_LINES, {"wavelength_nm": 1552.5}, "mode_field_csv"),
    "car": (TIMESTAMP_LINES, {"bin_width_ps": 100.0, "window_ns": 2.0}, "timestamps_csv"),
}
FIELD_COLUMNS = tuple(range(2, 14))  # ex_re ... hz_im of the mode-field CSV

CELLS = [
    "", "abc", "1e5x", "nan", "-nan", "inf", "-inf", "0", "-0", "1", "-1", "2.5",
    "1e-300", "5e-324", "-5e-324", "1e300", "-1e300", "1.7976931348623157e308",
    "-1.7976931348623157e308", "1e309", "signal", "idler", "0x10", " 3 ",
]
FACTORS = (0.0, -1.0, 1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e305)


@st.composite
def mutations(draw):
    """A command and 1-4 edits, each ("op", *arguments) on the file's lines."""
    command = draw(st.sampled_from(sorted(FILES)))
    n_columns = FILES[command][0][0].count(",") + 1
    row, column = st.integers(0, 10_000), st.integers(0, n_columns - 1)
    edit = st.one_of(
        st.tuples(st.just("cell"), row, column, st.sampled_from(CELLS)),
        st.tuples(st.just("drop_cell"), row, column),
        st.tuples(st.just("add_cell"), row, st.sampled_from(CELLS)),
        st.tuples(
            st.just("scale"),
            st.sampled_from([(0,), (1,), FIELD_COLUMNS] if command == "gamma" else [(1,)]),
            st.sampled_from(FACTORS),
        ),
        st.tuples(st.sampled_from(["duplicate", "delete"]), row),
        st.tuples(st.just("swap"), row, row),
        st.tuples(st.just("header"), st.sampled_from(["x,y", "channel,timestamp", ""])),
        st.tuples(st.just("empty")),
    )
    return command, draw(st.lists(edit, min_size=1, max_size=4))


def _scaled(cell: str, factor: float) -> str:
    try:
        return repr(float(cell) * factor)
    except ValueError:
        return cell


def _apply(lines: list[str], edits) -> list[str]:
    lines = list(lines)
    for op, *args in edits:
        data = range(1, len(lines))  # the rows after the header
        if op == "empty":
            lines = []
        elif op == "header" and lines:
            lines[0] = args[0]
        elif op == "scale":
            columns, factor = args
            for i in data:
                cells = lines[i].split(",")
                for j in columns:
                    if j < len(cells):
                        cells[j] = _scaled(cells[j], factor)
                lines[i] = ",".join(cells)
        elif not data:
            continue
        elif op in ("cell", "drop_cell", "add_cell"):
            i = data[args[0] % len(data)]
            cells = lines[i].split(",")
            if op == "add_cell":
                cells.append(args[1])
            else:
                j = args[1] % len(cells)
                cells[j : j + 1] = [args[2]] if op == "cell" else []
            lines[i] = ",".join(cells)
        elif op == "duplicate":
            i = data[args[0] % len(data)]
            lines.insert(i, lines[i])
        elif op == "delete":
            del lines[data[args[0] % len(data)]]
        elif op == "swap":
            i, j = (data[k % len(data)] for k in args)
            lines[i], lines[j] = lines[j], lines[i]
    return lines


def run_mutated(tmp_dir: Path, case) -> int:
    command, edits = case
    lines, doc, key = FILES[command]
    data = tmp_dir / f"{command}.csv"
    data.write_text("".join(line + "\n" for line in _apply(lines, edits)))
    cfg = tmp_dir / f"{command}.yaml"
    cfg.write_text(yaml.safe_dump({**doc, key: data.name}))
    return main([command, "--config", str(cfg), "--out", str(tmp_dir / "out")])


HUGE = "1.7976931348623157e308"
# Inputs that once ended in a RuntimeWarning or a ZeroDivisionError escaping
# main, with the exit code each gives now.
KNOWN_CASES = {
    "field-overflow": (("gamma", [("scale", FIELD_COLUMNS, 1e200)]), 3),
    "coordinate-overflow": (("gamma", [("scale", (0,), 1e305)]), 3),
    "poynting-underflow": (("gamma", [("scale", FIELD_COLUMNS, 1e-100)]), 3),
    # Signal stamps -HUGE, +HUGE, 3 us: unsorted, and +HUGE - -HUGE overflows.
    "unsorted-huge-stamps": (("car", [("cell", 0, 1, "-" + HUGE), ("cell", 2, 1, HUGE)]), 3),
}


def test_unmutated_data_files_run(tmp_path):
    for command in FILES:
        assert run_mutated(tmp_path, (command, [])) == 0


@pytest.mark.parametrize("case, code", KNOWN_CASES.values(), ids=list(KNOWN_CASES))
def test_known_data_case_exits_with_its_code(tmp_path, case, code):
    assert run_mutated(tmp_path, case) == code


def _seeded(test):
    for case, _ in KNOWN_CASES.values():
        test = example(case=case)(test)
    return test


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@_seeded
@given(case=mutations())
def test_mutated_data_file_exits_with_a_documented_code(tmp_path_factory, case):
    assert run_mutated(tmp_path_factory.mktemp("fuzz"), case) in (0, 2, 3, 4)
