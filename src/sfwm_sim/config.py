"""Run-configuration parsing for the CLI.

Configs are single YAML documents.  Every physical quantity carries its unit
in the key name (``wavelength_nm``, ``power_mw``, ``beta2_ps2_per_km``...)
and is converted to strict SI here, at the boundary; unknown keys are
rejected with the full field path so typos cannot silently change a run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from math import inf, isfinite, pi
from pathlib import Path

import yaml

from .circuit import (
    CircuitGraph,
    CircuitSetup,
    CouplerNode,
    Edge,
    GraphError,
    PhaseShifterNode,
    PortNode,
    SegmentNode,
    SplitterNode,
    propagate_pump,
)
from .coincidence import RateModel, draw_rates, histogram_bins
from .dispersion import (
    DispersionModel,
    PumpConfig,
    angular_frequency_from_wavelength,
    wavelength_from_angular_frequency,
)
from .engine import SpectralGrid, WaveguideSpec, detuning_band_to_omega
from .errors import ConfigError, DomainError, SfwmError, TopologyError
from .modefield import MaterialConstants
from .presets import load_yaml, preset_waveguide

CONFIG_PATH_ENV = "SFWM_SIM_CONFIG_PATH"

_MISSING = object()

NODE_ID = re.compile(r"[A-Za-z0-9_.-]+")


def locate_config(name: str | Path) -> Path:
    """Resolve a config path, falling back to the search-path env var."""
    path = Path(name)
    if path.exists():
        return path
    for directory in os.environ.get(CONFIG_PATH_ENV, "").split(os.pathsep):
        if directory:
            candidate = Path(directory) / path
            if candidate.exists():
                return candidate
    raise ConfigError(f"config file {name!s} not found (searched ${CONFIG_PATH_ENV} too)")


def load_config(path: str | Path) -> dict:
    path = locate_config(path)
    try:
        doc = load_yaml(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    except ValueError as exc:  # e.g. an integer past Python's 4,300-digit conversion limit
        raise ConfigError(f"{path}: cannot load config ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping at top level")
    return doc


def config_hash(doc: dict) -> str:
    """Stable sha256 over the parsed document; embedded in output headers."""
    try:
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    except (TypeError, ValueError) as exc:  # keys of mixed types; an alias inside its anchor
        raise ConfigError(f"config cannot be hashed ({exc})") from None
    return hashlib.sha256(canonical.encode()).hexdigest()


class _Section:
    """A config mapping that tracks consumed keys and reports leftovers."""

    def __init__(self, data: dict, where: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected a mapping")
        self._data = dict(data)
        self._where = where

    def take(self, key: str, default=_MISSING):
        if key in self._data:
            return self._data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self._where}: missing required key {key!r}")
        return default

    def take_section(self, key: str, required: bool = False) -> "_Section | None":
        if key not in self._data and not required:
            return None
        return _Section(self.take(key), f"{self._where}.{key}")

    def has(self, *keys: str) -> bool:
        return any(k in self._data for k in keys)

    def finish(self) -> None:
        if self._data:
            raise ConfigError(
                f"{self._where}: unknown key(s) {sorted(self._data)}; "
                "check spelling and unit suffixes"
            )

    @property
    def where(self) -> str:
        return self._where


# A YAML 1.2 float literal.  PyYAML resolves floats by YAML 1.1, which needs a
# decimal point and a signed exponent, so "8e1" or "5e-18" arrive as strings.
YAML_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")


def _number(value, where: str) -> float:
    if isinstance(value, str) and YAML_FLOAT.fullmatch(value):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if value != value:
        raise ConfigError(f"{where}: expected a number, got NaN")
    if value in (inf, -inf):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        message = "expected a finite number, got an integer too large for a float"
        raise ConfigError(f"{where}: {message}") from None


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _file_name(value, where: str) -> str:
    """A node id or waveguide label: it names output files, so it is held to ``NODE_ID``."""
    name = str(value)
    if not NODE_ID.fullmatch(name):
        raise ConfigError(f"{where}: {name!r} may use only letters, digits, '_', '.' and '-'")
    return name


def _given(sec: _Section, convert, *keys: str) -> dict:
    """The ``keys`` a section gives, converted; an omitted key keeps its class default."""
    return {key: convert(sec.take(key), f"{sec.where}.{key}") for key in keys if sec.has(key)}


@contextmanager
def _naming(where: str, errors: type[SfwmError] = SfwmError):
    """Re-raise an ``errors`` from building a value, same class, with ``where`` in front."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{where}: {exc}") from exc


# The unit suffixes each kind of quantity accepts, each with its SI factor or
# conversion function.
ANGULAR_FREQUENCY_UNITS = {
    "_nm": lambda v: angular_frequency_from_wavelength(v * 1e-9),
    "_thz": lambda v: 2.0 * pi * v * 1e12,
    "_rad_s": 1.0,
}
# A dispersion block's reference frequency: one key per angular-frequency unit.
REFERENCE_UNITS = {
    stem + suffix: ANGULAR_FREQUENCY_UNITS[suffix]
    for stem, suffix in (("lambda_c", "_nm"), ("frequency_c", "_thz"), ("omega_c", "_rad_s"))
}
POWER_UNITS = {"_w": 1.0, "_mw": 1e-3, "_dbm": lambda v: 1e-3 * 10.0 ** (v / 10.0)}
LENGTH_UNITS = {"_m": 1.0, "_mm": 1e-3, "_um": 1e-6}
TIME_UNITS = {"_s": 1.0, "_us": 1e-6, "_ns": 1e-9, "_ps": 1e-12}


def _quantity_key(sec: _Section, stem: str, units: dict) -> str:
    """The one key ``stem + suffix`` a section gives a quantity under."""
    keys = tuple(stem + suffix for suffix in units)
    present = [k for k in keys if sec.has(k)]
    if len(present) != 1:
        raise ConfigError(f"{sec.where}: give exactly one of {keys}")
    return present[0]


def take_quantity(sec: _Section, stem: str, units: dict) -> float:
    """Read one quantity given under exactly one key ``stem + suffix``, converted to SI."""
    key = _quantity_key(sec, stem, units)
    where = f"{sec.where}.{key}"
    value = _number(sec.take(key), where)
    unit = units[key[len(stem) :]]
    try:
        with _naming(where):  # e.g. wavelength_nm: 0
            si = unit(value) if callable(unit) else value * unit
    except OverflowError:  # e.g. 10 ** (power_dbm / 10) past the float range
        si = inf
    if not isfinite(si):  # e.g. wavelength_nm: 1.0e-300 is an infinite frequency
        raise ConfigError(f"{where}: {value!r} is out of range")
    return si


def parse_pump(sec: _Section) -> PumpConfig:
    mode = sec.take("mode", "degenerate")
    if mode == "degenerate":
        omega = take_quantity(sec, "wavelength", ANGULAR_FREQUENCY_UNITS)
        power = take_quantity(sec, "power", POWER_UNITS)
        pump = PumpConfig.degenerate(omega, power)
    elif mode == "non-degenerate":
        omega1 = take_quantity(sec, "wavelength1", ANGULAR_FREQUENCY_UNITS)
        omega2 = take_quantity(sec, "wavelength2", ANGULAR_FREQUENCY_UNITS)
        power1 = take_quantity(sec, "power1", POWER_UNITS)
        power2 = take_quantity(sec, "power2", POWER_UNITS)
        pump = PumpConfig.non_degenerate(omega1, omega2, power1, power2)
    else:
        raise ConfigError(f"{sec.where}.mode: unknown pump mode {mode!r}")
    sec.finish()
    return pump


def parse_dispersion(sec: _Section) -> DispersionModel:
    """Dispersion block: optional reference frequency plus beta2, beta4, ...

    Without a reference key the model is taken at the average of the pump it
    is evaluated with; a stated reference must agree with that average to
    0.1% (checked when the mismatch is evaluated).
    """
    omega_c = take_quantity(sec, "", REFERENCE_UNITS) if sec.has(*REFERENCE_UNITS) else None
    beta = []
    for order in (2, 4, 6, 8):
        units = {
            f"_s{order}_per_m": 1.0,
            f"_ps{order}_per_km": lambda v, n=order: v * 1e-12**n / 1e3,  # (1e-12)^n s^n / 1e3 m
        }
        if not sec.has(*(f"beta{order}{suffix}" for suffix in units)):
            break
        beta.append(take_quantity(sec, f"beta{order}", units))
    if not beta:
        raise ConfigError(f"{sec.where}: needs at least beta2")
    sec.finish()
    return DispersionModel(omega_c, tuple(beta))


def parse_waveguide(sec: _Section) -> WaveguideSpec:
    """A preset ``kind`` starts from the shipped preset and the config overrides
    only the fields it gives; ``kind: custom`` needs gamma and dispersion.
    """
    kind = str(sec.take("kind", "custom"))
    length = take_quantity(sec, "length", LENGTH_UNITS)
    given = _given(sec, _number, "gamma_per_w_m", "attenuation_db_per_cm")
    disp_sec = sec.take_section("dispersion")
    if disp_sec is not None:
        given["dispersion"] = parse_dispersion(disp_sec)
    sec.finish()
    with _naming(sec.where):
        if kind == "custom":
            for key in ("gamma_per_w_m", "dispersion"):
                if key not in given:  # _naming puts sec.where in front
                    raise ConfigError(f"custom waveguide needs {key}")
            return WaveguideSpec("custom", length, **given)
    # A preset raises ConfigError only for an unknown kind, DomainError for a bad value.
    with _naming(sec.where, DomainError), _naming(f"{sec.where}.kind", ConfigError):
        return replace(preset_waveguide(kind, length), **given)


# The largest spectral grid: 8 MB per float64 array.  A CLI run formats a
# few cells per point, so `spectrum --svg` on the shipped four-waveguide
# config peaks at about 650 MB of memory at this size.
MAX_GRID_POINTS = 1 << 20


def grid_points(value, where: str) -> int:
    """The grid size given at config key ``where``: an integer in [2, MAX_GRID_POINTS]."""
    n_points = _integer(value, where)
    if n_points < 2:
        raise ConfigError(f"{where}: a grid needs at least 2 points, got {n_points}")
    if n_points > MAX_GRID_POINTS:
        message = f"a grid may have at most {MAX_GRID_POINTS} points, got {n_points}"
        raise ConfigError(f"{where}: {message}")
    return n_points


def parse_grid(sec: _Section | None, omega_c: float) -> SpectralGrid:
    where = "config.grid.span_thz"
    span_thz = 20.0
    size = {}  # the grid size is SpectralGrid's default unless given
    if sec is not None:
        where = f"{sec.where}.span_thz"
        span_thz = _number(sec.take("span_thz", span_thz), where)
        if sec.has("points"):
            size["n_points"] = grid_points(sec.take("points"), f"{sec.where}.points")
        sec.finish()
    with _naming(f"{where} = {span_thz:g}"):
        return SpectralGrid(omega_c, 2.0 * pi * (span_thz * 1e12) / 2.0, **size)


@dataclass(frozen=True)
class SpectrumRun:
    pump: PumpConfig
    grid: SpectralGrid
    waveguides: tuple[tuple[WaveguideSpec, str], ...]  # (spec, label)


def parse_spectrum_config(doc: dict) -> SpectrumRun:
    top = _Section(doc, "config")
    pump = parse_pump(top.take_section("pump", required=True))
    grid = parse_grid(top.take_section("grid"), pump.omega_c)
    wg_list = top.take("waveguides")
    if not isinstance(wg_list, list) or not wg_list:
        raise ConfigError("config.waveguides: expected a non-empty list")
    waveguides = []
    labels = set()
    for i, item in enumerate(wg_list):
        sec = _Section(item, f"config.waveguides[{i}]")
        label = sec.take("label", None)
        spec = parse_waveguide(sec)
        label = spec.kind if label is None else _file_name(label, f"{sec.where}.label")
        if label in labels:
            raise ConfigError(f"config.waveguides[{i}]: duplicate label {label!r}")
        labels.add(label)
        waveguides.append((spec, label))
    top.finish()
    return SpectrumRun(pump, grid, tuple(waveguides))


def _parse_node(sec: _Section):
    kind = sec.take("kind")
    node_id = _file_name(sec.take("id"), f"{sec.where}.id")
    if kind == "port":
        make = partial(PortNode, node_id, **_given(sec, lambda value, where: value, "direction"))
    elif kind == "splitter":
        make = partial(SplitterNode, node_id, **_given(sec, _number, "ratio"))
    elif kind == "phase_shifter":
        make = partial(PhaseShifterNode, node_id, **_given(sec, _number, "phase_rad"))
    elif kind == "grating_coupler":
        center = take_quantity(sec, "center", ANGULAR_FREQUENCY_UNITS)
        loss = _given(sec, _number, "min_loss_db", "bandwidth_3db_nm")
        if "bandwidth_3db_nm" in loss:
            loss["bandwidth_3db_m"] = loss.pop("bandwidth_3db_nm") * 1e-9
        make = partial(CouplerNode, node_id, wavelength_from_angular_frequency(center), **loss)
    elif kind == "segment":
        spec = parse_waveguide(sec.take_section("waveguide", required=True))
        n_eff = _given(sec, _number, "n_eff")  # a group index other than the waveguide's
        with _naming(f"{sec.where}.n_eff"):
            spec = replace(spec, **n_eff)
        make = partial(SegmentNode, node_id, spec, **_given(sec, _integer, "pair_loss_exponent"))
    else:
        raise ConfigError(f"{sec.where}.kind: unknown node kind {kind!r}")
    with _naming(sec.where):
        node = make()
    sec.finish()
    return node


def parse_circuit_config(doc: dict) -> CircuitSetup:
    """An explicit circuit graph, named ``circuit``, the prefix of its output files.

    Every name the graph is run with, and the selection band, is checked
    against the graph and the grid here, before anything is evaluated.  The
    wiring is checked by walking the pump once with ``propagate_pump``, whose
    GraphError names the faulty ``input_ports`` or unreached ``nodes[i]``.
    """
    top = _Section(doc, "config")
    template_keys = [key for key in ("all_strip", "template") if top.has(key)]
    if template_keys:
        raise ConfigError(
            f"config: unknown key(s) {template_keys}; "
            "a template runs only from --template NAME [--all-strip]"
        )
    pump = parse_pump(top.take_section("pump", required=True))
    grid = parse_grid(top.take_section("grid"), pump.omega_c)
    band = top.take("band_thz")
    if not (isinstance(band, list) and len(band) == 2):
        raise ConfigError("config.band_thz: expected [lo_thz, hi_thz]")
    band_thz = [_number(v, f"config.band_thz[{i}]") for i, v in enumerate(band)]
    band_hz = tuple(v * 1e12 for v in band_thz)
    with _naming("config.band_thz"):
        lo, hi = detuning_band_to_omega(pump.omega_c, band_hz)
        if lo < grid.omega_min or hi > grid.omega_max:
            half_thz = grid.half_span / (2.0 * pi) / 1e12
            raise DomainError(
                f"{band_thz} THz reaches past the grid's detuning span of +-{half_thz:g} THz"
            )

    nodes = []
    for i, item in enumerate(_list(top.take("nodes"), "config.nodes")):
        nodes.append(_parse_node(_Section(item, f"config.nodes[{i}]")))
    edges = []
    for i, item in enumerate(_list(top.take("edges"), "config.edges")):
        sec = _Section(item, f"config.edges[{i}]")
        edges.append(
            Edge(
                src=str(sec.take("from")),
                dst=str(sec.take("to")),
                src_port=_integer(sec.take("from_port", 0), f"{sec.where}.from_port"),
                dst_port=_integer(sec.take("to_port", 0), f"{sec.where}.to_port"),
            )
        )
        sec.finish()
    try:
        graph = CircuitGraph(tuple(nodes), tuple(edges))
        ports = top.take("input_ports")
        listed = isinstance(ports, list) and all(isinstance(port, str) for port in ports)
        if listed and len(ports) in (1, 2):
            ports = ports[0] if len(ports) == 1 else tuple(ports)
        if not isinstance(ports, (str, tuple)):
            message = f"expected a port id or a list of 1-2 ids, got {ports!r}"
            raise ConfigError(f"config.input_ports: {message}")
        propagate_pump(graph, pump, ports)
    except GraphError as exc:
        raise TopologyError(f"config.{exc.field}: {exc}") from exc
    detection = top.take("detection_node", None)
    if detection is not None:
        detection = str(detection)
        with _naming("config.detection_node"):
            graph.node(detection)
    designated = top.take("designated_segments")
    if not isinstance(designated, list) or not designated:
        raise ConfigError("config.designated_segments: expected a non-empty list")
    designated = tuple(str(s) for s in designated)
    for i, segment_id in enumerate(designated):
        with _naming(f"config.designated_segments[{i}]"):
            graph.segment(segment_id)
    top.finish()
    return CircuitSetup(
        name="circuit",
        graph=graph,
        pump=pump,
        input_ports=ports,
        detection_node=detection,
        designated_segments=designated,
        band_detuning_hz=band_hz,
        grid=grid,
    )


@dataclass(frozen=True)
class GammaRun:
    mode_field_csv: Path
    omega: float
    constants: MaterialConstants


def _data_file(value, where: str, config_dir: str | Path) -> Path:
    """A data file named in a config; a relative name is read from ``config_dir``."""
    path = Path(config_dir) / str(value)
    if not os.path.exists(path):  # unlike Path.exists, False for a name too long to look up
        raise ConfigError(f"{where}: file {path} does not exist")
    return path


def parse_gamma_config(doc: dict, config_dir: str | Path = ".") -> GammaRun:
    """``config_dir``: the config file's directory, for a relative ``mode_field_csv``."""
    top = _Section(doc, "config")
    csv_path = _data_file(top.take("mode_field_csv"), "config.mode_field_csv", config_dir)
    omega = take_quantity(top, "wavelength", ANGULAR_FREQUENCY_UNITS)
    given = _given(top, _number, "n0", "n2_m2_per_w")
    top.finish()
    with _naming(top.where):
        return GammaRun(csv_path, omega, MaterialConstants(**given))


@dataclass(frozen=True)
class CarRun:
    bin_width_s: float
    window_s: float
    guard_bins: int
    timestamps_csv: Path | None
    model: RateModel | None  # the rates to synthesise duration_s of timestamps from
    duration_s: float | None


def parse_car_config(doc: dict, config_dir: str | Path = ".") -> CarRun:
    """``config_dir``: the config file's directory, for a relative ``timestamps_csv``."""
    top = _Section(doc, "config")
    bin_where = f"{top.where}.{_quantity_key(top, 'bin_width', TIME_UNITS)}"
    bin_width = take_quantity(top, "bin_width", TIME_UNITS)
    window_where = f"{top.where}.{_quantity_key(top, 'window', TIME_UNITS)}"
    window = take_quantity(top, "window", TIME_UNITS)
    guard = _integer(top.take("guard_bins", 0), "config.guard_bins")
    if guard < 0:
        raise ConfigError(f"config.guard_bins: must be >= 0, got {guard}")
    ts_path = top.take("timestamps_csv", None)
    sec = top.take_section("synthesize")
    if (ts_path is None) == (sec is None):
        raise ConfigError("config: give exactly one of timestamps_csv / synthesize")
    model = duration = None
    if sec is not None:
        duration, pair_rate = (
            _number(sec.take(key), f"{sec.where}.{key}") for key in ("duration_s", "pair_rate_hz")
        )
        rates = _given(
            sec,
            _number,
            "efficiency_signal",
            "efficiency_idler",
            "noise_rate_signal_hz",
            "noise_rate_idler_hz",
            "dark_rate_signal_hz",
            "dark_rate_idler_hz",
        )
        sec.finish()
        with _naming(sec.where):
            model = RateModel(pair_rate_hz=pair_rate, bin_width_s=bin_width, **rates)
        with _naming(f"{sec.where}.duration_s"):
            draw_rates(model, duration)
    path = None if ts_path is None else _data_file(ts_path, "config.timestamps_csv", config_dir)
    top.finish()
    with _naming(f"{bin_where}, {window_where}"):
        histogram_bins(bin_width, window)
    return CarRun(bin_width, window, guard, path, model, duration)
