"""Fuzz ``cli.main`` with mutated copies of the shipped configs.

Each example takes one shipped config, changes value types, drops keys,
adds keys and puts in huge, tiny and non-finite numbers, then runs the
command.  Every outcome must be an exit code of 0, 2, 3 or 4: an exception
escaping ``main`` (a RuntimeWarning included, since pytest turns those into
errors) fails the test.

The keys that set how much work a run does are drawn from small ranges or
from just past their limits, so each example stays small.
"""

import copy
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sfwm_sim.cli import main
from sfwm_sim.coincidence import MAX_HISTOGRAM_BINS
from sfwm_sim.config import MAX_GRID_POINTS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = {
    "degenerate_bandwidth_contrast.yaml": "spectrum",
    "nondegenerate_bandwidth_contrast.yaml": "spectrum",
    "custom_circuit.yaml": "circuit",
    "gamma_gaussian.yaml": "gamma",
    "car_plausibility.yaml": "car",
}


def _base_doc(name: str) -> dict:
    """A shipped config, cut to a small run: 64 grid points, a 1 s stream."""
    doc = yaml.safe_load((CONFIGS / name).read_text())
    if "grid" in doc:
        doc["grid"]["points"] = 64
    if "synthesize" in doc:
        doc["synthesize"]["duration_s"] = 1.0
    if "mode_field_csv" in doc:
        doc["mode_field_csv"] = str(CONFIGS / doc["mode_field_csv"])
    return doc


BASE_DOCS = {name: _base_doc(name) for name in COMMANDS}


class Digits(int):
    """An integer written as that many 9s: past what PyYAML will convert from 4,301 up."""


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(
    Digits, lambda dumper, n: dumper.represent_scalar("tag:yaml.org,2002:int", "9" * int(n))
)

ODD_VALUES = [
    None, True, "", "abc", "1e5", [], [1, 2], {}, {"x": 1}, Digits(5001),
    0, 1, -1, 2, 2**64, 10**400,
    0.0, -0.0, -1.0, 2.5, 1e-300, 5e-324, 1e300, -1e300, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    {"beta2_ps2_per_km": 1e300, "lambda_c_nm": 1e-300},
    {"beta2_s2_per_m": 1e300, "beta4_s4_per_m": -1e300, "omega_c_rad_s": 1.2e15},
    {"kind": "custom", "length_mm": 5.0, "gamma_per_w_m": 1e300,
     "dispersion": {"beta2_ps2_per_km": 1e-300, "beta4_s4_per_m": 1e300}},
]
odd_values = st.sampled_from(ODD_VALUES)

# Keys that set an array size or an event count: small values, or values
# just past the limit that the parsers check before allocating anything.
SIZE_VALUES = {
    "points": st.one_of(
        st.integers(-2, 64), st.integers(MAX_GRID_POINTS + 1, MAX_GRID_POINTS + 4)
    ),
    "duration_s": st.one_of(st.floats(-1.0, 1.0), st.floats(1e4, 1e300)),
    "window_ns": st.one_of(
        st.floats(-1.0, 50.0), st.floats(MAX_HISTOGRAM_BINS * 1.001, 1e300)
    ),
    "bin_width_ps": st.one_of(st.floats(-1.0, 1000.0), st.floats(1e-300, 1e-6)),
}
for _rate in ("pair_rate_hz", "noise_rate_signal_hz", "noise_rate_idler_hz",
              "dark_rate_signal_hz", "dark_rate_idler_hz"):
    SIZE_VALUES[_rate] = st.one_of(st.floats(-1.0, 2e5), st.floats(1e10, 1e300))


def _paths(node, prefix=()):
    """Every key or index path into a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _keys(node) -> set:
    return {path[-1] for path in _paths(node) if isinstance(path[-1], str)}


ADD_KEYS = sorted(
    set().union(*map(_keys, BASE_DOCS.values()))
    | {"bogus", "template", "all_strip", "timestamps_csv", "dispersion", "n_eff", "n0",
       "n2_m2_per_w", "pair_loss_exponent", "guard_bins", "lambda_c_nm", "beta2_ps2_per_km",
       "gamma_per_w_m", "attenuation_db_per_cm", "dark_rate_signal_hz", "dark_rate_idler_hz"}
)


FACTORS = (0.0, -1.0, 0.5, 2.0, 1e-3, 1e3, 1e-300, 1e300)


@st.composite
def mutations(draw):
    """A shipped config name and 1-4 edits: ("set" | "drop", path, value).

    A set either puts in an odd value or scales the number already there.
    """
    name = draw(st.sampled_from(sorted(COMMANDS)))
    doc = BASE_DOCS[name]
    paths = list(_paths(doc))
    leaves = [p for p in paths if not isinstance(_get(doc, p), (dict, list))]
    containers = [()] + [p for p in paths if isinstance(_get(doc, p), dict)]
    edits = []
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "scale", "scale", "drop", "add"]))
        if op == "add":
            path = draw(st.sampled_from(containers)) + (draw(st.sampled_from(ADD_KEYS)),)
        else:
            path = draw(st.sampled_from(paths if op == "drop" else leaves))
        if op == "drop":
            edits.append(("drop", path, None))
            continue
        value = draw(SIZE_VALUES.get(path[-1], odd_values))
        if op == "scale" and path[-1] not in SIZE_VALUES:
            old = _get(doc, path)
            if isinstance(old, (int, float)) and not isinstance(old, bool):
                value = old * draw(st.sampled_from(FACTORS))
        edits.append(("set", path, value))
    return name, draw(st.booleans()), edits


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _apply(doc: dict, edits) -> dict:
    doc = copy.deepcopy(doc)
    for op, path, value in edits:
        try:
            parent = _get(doc, path[:-1])
            if op == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):  # an earlier edit moved the path
            pass
    return doc


def run_mutated(tmp_dir: Path, case) -> int:
    name, svg, edits = case
    doc = _apply(BASE_DOCS[name], edits)
    cfg = tmp_dir / name
    cfg.write_text(yaml.dump(doc, Dumper=_Dumper))
    argv = [COMMANDS[name], "--config", str(cfg), "--out", str(tmp_dir / "out")]
    if svg and COMMANDS[name] in ("spectrum", "circuit"):
        argv.append("--svg")
    return main(argv)


# Inputs that once ended in a traceback or a silent inf; each now exits 2 or 4.
KNOWN_CASES = [
    ("degenerate_bandwidth_contrast.yaml", False,
     [("drop", ("pump", "power_w"), None), ("add", ("pump", "power_dbm"), 4000.0)]),
    ("car_plausibility.yaml", False, [("set", ("synthesize", "pair_rate_hz"), 10**400)]),
    ("car_plausibility.yaml", False,
     [("set", ("window_ns",), 1.0e300), ("set", ("bin_width_ps",), 1.0)]),
    ("car_plausibility.yaml", False, [("set", ("synthesize", "pair_rate_hz"), Digits(5001))]),
    ("nondegenerate_bandwidth_contrast.yaml", False, [("set", ("grid", "points"), 10**30)]),
    ("car_plausibility.yaml", False,
     [("set", ("bin_width_ps",), 50.0), ("set", ("window_ns",), 5.8),
      ("set", ("synthesize",), {"duration_s": 1.0e300, "pair_rate_hz": 1000.0})]),
    ("gamma_gaussian.yaml", False, [("set", ("wavelength_nm",), 1.0e-300)]),
    ("gamma_gaussian.yaml", False,
     [("drop", ("wavelength_nm",), None), ("add", ("wavelength_thz",), 1.0e300)]),
    ("gamma_gaussian.yaml", False, [("add", ("n0",), 1.0e300)]),
    ("degenerate_bandwidth_contrast.yaml", False, [("set", ("pump", "power_w"), 1e300)]),
    ("degenerate_bandwidth_contrast.yaml", False, [("set", ("waveguides", 0, "label"), 10**400)]),
    ("gamma_gaussian.yaml", False, [("set", ("mode_field_csv",), 10**400)]),
]


def test_unmutated_base_configs_run(tmp_path):
    for name in COMMANDS:
        assert run_mutated(tmp_path, (name, True, [])) == 0


@pytest.mark.parametrize("case", KNOWN_CASES)
def test_known_bad_input_exits_2_or_4(tmp_path, case):
    assert run_mutated(tmp_path, case) in (2, 4)


def _seeded(test):
    for case in KNOWN_CASES:
        test = example(case=case)(test)
    return test


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@_seeded
@given(case=mutations())
def test_mutated_config_exits_with_a_documented_code(tmp_path_factory, case):
    assert run_mutated(tmp_path_factory.mktemp("fuzz"), case) in (0, 2, 3, 4)
