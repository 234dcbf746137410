"""Every file the shipped commands write, pinned in ``shipped_artifacts.json``.

The table holds the sha256 of each file, with the numpy version, the
machine and the SIMD targets of float64 ``sin``/``sinh`` it was made on.
numpy's SIMD ``sin``/``sinh`` may differ in the last bit between CPUs and
numpy releases, so the hashes must match only where all of those match the
table.  Anywhere else each file's text must match with every number masked,
and each number column (a CSV column, or all the numbers of any other file)
must keep its count, and its sum and sum of magnitudes to within ``ULPS``
ulp of every number in it.

A change that declares an artifact diff regenerates the table in the same
commit, from the repository root:

    PYTHONPATH=src python tests/test_artifacts.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.lib.introspect import opt_func_info

from sfwm_sim.cli import main

REPO = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("shipped_artifacts.json")
ULPS = 4

# Configs are named relative to the repository root, as a user runs them, so
# the gamma report's mode-field path reads the same on every checkout.
COMMANDS = {
    "spectrum_degenerate_svg":
        ["spectrum", "--config", "configs/degenerate_bandwidth_contrast.yaml", "--svg"],
    "spectrum_nondegenerate_svg":
        ["spectrum", "--config", "configs/nondegenerate_bandwidth_contrast.yaml", "--svg"],
    "app1": ["circuit", "--template", "app1_timebin"],
    "app1_all_strip": ["circuit", "--template", "app1_timebin", "--all-strip"],
    "app1_svg": ["circuit", "--template", "app1_timebin", "--svg"],
    "app2": ["circuit", "--template", "app2_path"],
    "app2_all_strip": ["circuit", "--template", "app2_path", "--all-strip"],
    "app2_svg": ["circuit", "--template", "app2_path", "--svg"],
    "custom_svg": ["circuit", "--config", "configs/custom_circuit.yaml", "--svg"],
    "gamma_verify_scale": ["gamma", "--config", "configs/gamma_gaussian.yaml", "--verify-scale"],
    # The shipped 600 s stream takes 20 s; 2 s of it runs the same code.
    "car_2s_seed33": ["car", "--config", "{inputs}/car_2s.yaml", "--seed", "33"],
    "car_2s_read_back": ["car", "--config", "{inputs}/car_2s_read_back.yaml"],
}

# A decimal number standing alone: not part of a name such as app1_timebin,
# nor of a hex digest.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _write_inputs(inputs: Path) -> None:
    shipped = (REPO / "configs" / "car_plausibility.yaml").read_text()
    assert "duration_s: 600.0" in shipped
    (inputs / "car_2s.yaml").write_text(shipped.replace("duration_s: 600.0", "duration_s: 2.0"))
    doc = yaml.safe_load(shipped)
    del doc["synthesize"]
    doc["timestamps_csv"] = "../car_2s_seed33/timestamps.csv"
    (inputs / "car_2s_read_back.yaml").write_text(yaml.safe_dump(doc))


def run_commands(root: Path) -> dict[str, Path]:
    """Run every command into ``root/<name>``; each written file by ``<name>/<file>``.

    Call with the repository root as the working directory.
    """
    inputs = root / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    files = {}
    for name, argv in COMMANDS.items():
        out = root / name
        argv = [arg.format(inputs=inputs) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 0, name
        files.update({f"{name}/{p.name}": p for p in sorted(out.iterdir())})
    return files


def fingerprint(path: Path) -> dict:
    """The sha256 of a file, of its text with numbers masked, and its number columns.

    Each column is [count, sum, sum of magnitudes], the sums exactly rounded.
    """
    data = path.read_bytes()
    columns: dict[str, list[float]] = defaultdict(list)
    masked = []
    is_csv = path.suffix == ".csv"
    for line in data.decode("utf-8").splitlines(keepends=True):
        row = is_csv and not line.startswith("#")
        for match in NUMBER.finditer(line):
            column = str(line.count(",", 0, match.start())) if row else "text"
            columns[column].append(float(match.group()))
        masked.append(NUMBER.sub("#", line))
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "masked_sha256": hashlib.sha256("".join(masked).encode()).hexdigest(),
        "numbers": {
            key: [len(values), math.fsum(values), math.fsum(map(abs, values))]
            for key, values in sorted(columns.items())
        },
    }


def environment() -> dict[str, str]:
    """The numpy release, the machine, and the SIMD target of float64 sin and sinh.

    numpy picks that target at import from the CPU's features (and
    ``NPY_DISABLE_CPU_FEATURES``), so one machine name covers several.
    """
    kernels = opt_func_info(func_name="^(sin|sinh)$", signature="float64")
    targets = {
        name: loop["current"]
        for name, loops in sorted(kernels.items())
        for loop in loops.values()  # the one float64 loop
    }
    return {"numpy": np.__version__, "machine": platform.machine(), **targets}


def near_misses(got: dict, want: dict) -> list[str]:
    """How a fingerprint departs from the recorded one by more than ``ULPS`` ulp."""
    problems = []
    if got["masked_sha256"] != want["masked_sha256"]:
        problems.append("text differs with numbers masked")
    if got["numbers"].keys() != want["numbers"].keys():
        problems.append(f"number columns {sorted(got['numbers'])}, want {sorted(want['numbers'])}")
    for key in got["numbers"].keys() & want["numbers"].keys():
        (count, total, size), (want_count, want_total, want_size) = (
            got["numbers"][key], want["numbers"][key]
        )
        # Moving each number by k ulp moves either sum by at most k*eps*size.
        tolerance = ULPS * sys.float_info.epsilon * want_size
        if count != want_count:
            problems.append(f"column {key}: {count} numbers, want {want_count}")
        elif abs(total - want_total) > tolerance or abs(size - want_size) > tolerance:
            problems.append(f"column {key}: sums {total!r}/{size!r}, want {want_total!r}/{want_size!r}")
    return problems


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO)
        yield run_commands(tmp_path_factory.mktemp("artifacts"))


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_the_same_files_are_written(written, table):
    assert sorted(written) == sorted(table["files"])


def test_every_file_matches_the_table(written, table):
    if environment() == table["environment"]:
        changed = [
            name for name, path in written.items()
            if hashlib.sha256(path.read_bytes()).hexdigest() != table["files"][name]["sha256"]
        ]
    else:
        changed = [
            (name, problems) for name, path in written.items()
            if (problems := near_misses(fingerprint(path), table["files"][name]))
        ]
    assert not changed, f"changed (see the module docstring to regenerate): {changed}"


@pytest.mark.parametrize("case", ["app1", "car_2s_read_back"])
def test_text_and_numbers_match_to_a_few_ulp(written, table, case):
    # The comparison made away from the table's machine, kept tested here on
    # spectra, a summary and a report (app1) and on a histogram.
    names = [name for name in written if name.startswith(f"{case}/")]
    assert names
    for name in names:
        assert near_misses(fingerprint(written[name]), table["files"][name]) == [], name


def test_the_ulp_comparison_allows_an_ulp_and_rejects_more(tmp_path):
    path = tmp_path / "t_spectrum.csv"
    flux = [0.125, 3.0e-9, 7.5]

    def write(values):
        rows = "".join(f"{i}.5,{v!r}\r\n" for i, v in enumerate(values))
        path.write_text(f"# selection_ratio=14243.5\nx,flux\r\n{rows}", newline="")
        return fingerprint(path)

    want = write(flux)
    assert near_misses(write([math.nextafter(flux[0], 1.0), *flux[1:]]), want) == []
    assert near_misses(write([*flux[:2], 7.5 * (1 + 1e-9)]), want)[0].startswith("column 1: sums")
    assert "column 1: 2 numbers, want 3" in near_misses(write(flux[:2]), want)
    path.write_bytes(path.read_bytes().replace(b"selection_ratio", b"ratio"))
    assert "text differs with numbers masked" in near_misses(fingerprint(path), want)


def regenerate() -> None:
    """Rewrite the table from a fresh run of every command."""
    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as tmp:
        files = run_commands(Path(tmp))
        table = {
            "environment": environment(),
            "files": {name: fingerprint(path) for name, path in sorted(files.items())},
        }
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{TABLE}: {len(table['files'])} files")


if __name__ == "__main__":
    regenerate()
