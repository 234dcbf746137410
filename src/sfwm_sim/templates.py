"""Built-in application circuits: time-bin and path entanglement generation.

Each template is a circuit config shipped as ``data/<name>.yaml``:
``app1_timebin`` (degenerate SFWM behind an unbalanced interferometer) and
``app2_path`` (non-degenerate SFWM in two source interferometers).  A template
run parses and hashes ``template_doc(name, all_strip)``.  The all-strip
rewrite, a valid config too, gives each segment the waveguide ``{kind: strip,
<its length key>: <its value>}``: post-selection cannot then isolate the source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .circuit import CircuitSetup, SegmentContribution, segment_contributions, selection_ratio
from .config import parse_circuit_config
from .engine import band_flux, detuning_band_to_omega
from .errors import ConfigError
from .presets import packaged_yaml

TEMPLATE_NAMES = ("app1_timebin", "app2_path")


@dataclass(frozen=True, eq=False)
class CircuitReport:
    """Evaluated circuit: contributions, their band fluxes, selection ratio, pump bookkeeping."""

    setup: CircuitSetup
    contributions: tuple[SegmentContribution, ...]
    band_omega: tuple[float, float]  # the selection band in rad/s
    band_fluxes: dict[str, float]  # photons/s in the band, per segment id
    ratio: float
    # Spread of pump pulse delays, per designated segment the pump reaches as
    # more than one pulse, in designated order.
    inter_pulse_delays_s: dict[str, float]


def template_doc(name: str, all_strip: bool = False) -> dict:
    """Template ``name``'s packaged document or, with ``all_strip``, a rewritten copy."""
    if name not in TEMPLATE_NAMES:
        raise ConfigError(f"unknown template {name!r}; expected one of {TEMPLATE_NAMES}")
    doc = packaged_yaml(name)
    if all_strip:
        doc = {**doc, "nodes": [_strip(n) if n["kind"] == "segment" else n for n in doc["nodes"]]}
    return doc


def _strip(segment: dict) -> dict:
    length = {k: v for k, v in segment["waveguide"].items() if k.startswith("length_")}
    return {**segment, "waveguide": {"kind": "strip", **length}}


def parse_run(doc: dict, template: str | None, all_strip: bool) -> CircuitSetup:
    """``doc`` parsed, named NAME or NAME_all_strip for a template run, else ``circuit``."""
    setup = parse_circuit_config(doc)
    if template is None:
        return setup
    return replace(setup, name=f"{template}_all_strip" if all_strip else template)


def build_template(name: str, all_strip: bool = False) -> CircuitSetup:
    """A template circuit: ``template_doc(name, all_strip)`` parsed and named."""
    return parse_run(template_doc(name, all_strip), name, all_strip)


def evaluate_circuit(setup: CircuitSetup) -> CircuitReport:
    """Run per-segment spectra (one pump propagation), their band fluxes and the selection ratio."""
    contributions = segment_contributions(
        setup.graph, setup.pump, setup.grid, setup.input_ports, setup.detection_node
    )
    band = detuning_band_to_omega(setup.pump.omega_c, setup.band_detuning_hz)
    fluxes = {c.segment_id: band_flux(c.spectrum, band) for c in contributions}
    ratio = selection_ratio(fluxes, setup.designated_segments)
    spreads = {c.segment_id: c.inter_pulse_delay_s for c in contributions}
    delays = {
        segment_id: spreads[segment_id]
        for segment_id in setup.designated_segments
        if spreads[segment_id] > 0.0
    }
    return CircuitReport(setup, contributions, band, fluxes, ratio, delays)
