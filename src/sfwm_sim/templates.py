"""Built-in application circuits: time-bin and path entanglement generation.

Each template is a circuit config shipped in the package as
``data/<name>.yaml``, which describes its circuit, and is parsed by
``config.parse_circuit_config`` with every check a user's config gets:
``app1_timebin`` (degenerate SFWM behind an unbalanced interferometer) and
``app2_path`` (non-degenerate SFWM in two source interferometers).

``build_template(name, all_strip=True)`` swaps every segment's waveguide for
the strip preset of the same length, keeping the topology and node order: the
comparison case in which post-selection cannot isolate the intended source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .circuit import (
    CircuitGraph,
    CircuitSetup,
    SegmentContribution,
    SegmentNode,
    segment_contributions,
    selection_ratio,
)
from .config import parse_circuit_config
from .engine import band_flux, detuning_band_to_omega
from .errors import ConfigError
from .presets import packaged_yaml, preset_waveguide

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


def build_template(name: str, all_strip: bool = False) -> CircuitSetup:
    """A template circuit; ``all_strip`` swaps each segment's waveguide for the strip preset."""
    if name not in TEMPLATE_NAMES:
        raise ConfigError(f"unknown template {name!r}; expected one of {TEMPLATE_NAMES}")
    setup = parse_circuit_config(packaged_yaml(name))
    if not all_strip:
        return replace(setup, name=name)
    nodes = tuple(
        replace(node, waveguide=preset_waveguide("strip", node.waveguide.length_m))
        if isinstance(node, SegmentNode) else node
        for node in setup.graph.nodes
    )
    graph = CircuitGraph(nodes, setup.graph.edges)
    return replace(setup, name=f"{name}_all_strip", graph=graph)


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
