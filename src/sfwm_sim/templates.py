"""Built-in application circuits: time-bin and path entanglement generation.

``app1_timebin``: a pulsed pump crosses an unbalanced interferometer (two
shallow-ridge arms, path difference 11.5 mm) and then a 5 mm strip waveguide
where degenerate SFWM creates time-bin entangled pairs.  The interferometer
arms are parasitic SFWM sources; selecting photons at 2.5-5 THz detuning
keeps only strip-generated pairs.

``app2_path``: two CW pumps are combined and split into two source
interferometers whose 5 mm strip arms generate pairs by non-degenerate SFWM;
frequency-degenerate pairs (selected at zero detuning, between the pumps at
about +-3.3 THz) are path entangled.  Shallow-ridge distribution waveguides
and two analyzer interferometers are the parasitic sources here.

``build_template(name, all_strip=True)`` swaps every segment's waveguide for
the strip preset of the same length, keeping the topology and node order: the
comparison case in which post-selection cannot isolate the intended source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import pi

from .circuit import (
    CircuitGraph,
    Edge,
    PhaseShifterNode,
    PortNode,
    SegmentContribution,
    SegmentNode,
    SplitterNode,
    propagate_pump,
    segment_contributions,
    selection_ratio,
)
from .dispersion import PumpConfig, angular_frequency_from_wavelength
from .engine import SpectralGrid, band_flux, detuning_band_to_omega
from .errors import ConfigError
from .presets import preset_waveguide

TEMPLATE_NAMES = ("app1_timebin", "app2_path")

# Arm lengths of the app-1 unbalanced interferometer.  The 11.5 mm path
# difference (about 100 ps at n_eff = 2.6) is the design quantity; the short
# arm's absolute length is a layout choice.
APP1_SHORT_ARM_M = 1.0e-3
APP1_LONG_ARM_M = APP1_SHORT_ARM_M + 11.5e-3
APP1_STRIP_M = 5.0e-3
APP1_PUMP_WAVELENGTH_M = 1552.5e-9
APP1_PUMP_PEAK_W = 1.0
APP1_BAND_HZ = (2.5e12, 5.0e12)

APP2_STRIP_M = 5.0e-3
APP2_DISTRIBUTION_M = 7.0e-3
APP2_ANALYZER_ARM_M = 7.0e-3
APP2_PUMP_WAVELENGTHS_M = (1528.0e-9, 1582.0e-9)
APP2_PUMP_POWER_W = 10.0e-3
APP2_BAND_HZ = (-0.05e12, 0.05e12)


@dataclass(frozen=True)
class CircuitSetup:
    """Everything needed to evaluate one circuit: a template or a parsed config."""

    name: str
    graph: CircuitGraph
    pump: PumpConfig
    input_ports: str | tuple[str, str]
    detection_node: str | None
    designated_segments: tuple[str, ...]
    band_detuning_hz: tuple[float, float]
    grid: SpectralGrid
    delay_probe_node: str | None = None


@dataclass(frozen=True, eq=False)
class CircuitReport:
    """Evaluated circuit: contributions, their band fluxes, selection ratio, pump bookkeeping."""

    setup: CircuitSetup
    contributions: tuple[SegmentContribution, ...]
    band_omega: tuple[float, float]  # the selection band in rad/s
    band_fluxes: dict[str, float]  # photons/s in the band, per segment id
    ratio: float
    inter_pulse_delay_s: float


def app1_timebin() -> CircuitSetup:
    """Time-bin entanglement circuit (degenerate SFWM behind a UMZI)."""
    pump = PumpConfig.degenerate(
        angular_frequency_from_wavelength(APP1_PUMP_WAVELENGTH_M), APP1_PUMP_PEAK_W
    )
    nodes = (
        PortNode("pump_in", "input"),
        SplitterNode("umzi_split", 0.5),
        SegmentNode("umzi_long", preset_waveguide("shallow_ridge", APP1_LONG_ARM_M)),
        SegmentNode("umzi_short", preset_waveguide("shallow_ridge", APP1_SHORT_ARM_M)),
        PhaseShifterNode("bin_phase"),
        SplitterNode("umzi_merge", 0.5),
        SegmentNode("source_strip", preset_waveguide("strip", APP1_STRIP_M)),
        PortNode("to_filters", "output"),
    )
    edges = (
        Edge("pump_in", "umzi_split"),
        Edge("umzi_split", "umzi_long", src_port=0),
        Edge("umzi_split", "umzi_short", src_port=1),
        Edge("umzi_long", "bin_phase"),
        Edge("bin_phase", "umzi_merge", dst_port=0),
        Edge("umzi_short", "umzi_merge", dst_port=1),
        Edge("umzi_merge", "source_strip", src_port=0),
        Edge("source_strip", "to_filters"),
    )
    return CircuitSetup(
        name="app1_timebin",
        graph=CircuitGraph(nodes, edges),
        pump=pump,
        input_ports="pump_in",
        detection_node="to_filters",
        designated_segments=("source_strip",),
        band_detuning_hz=APP1_BAND_HZ,
        grid=SpectralGrid.symmetric(pump.omega_c, 2.0 * pi * 6.0e12, 4096),
        delay_probe_node="source_strip",
    )


def app2_path() -> CircuitSetup:
    """Path entanglement circuit (non-degenerate SFWM in two source MZIs)."""
    w1 = angular_frequency_from_wavelength(APP2_PUMP_WAVELENGTHS_M[0])
    w2 = angular_frequency_from_wavelength(APP2_PUMP_WAVELENGTHS_M[1])
    pump = PumpConfig.non_degenerate(w1, w2, APP2_PUMP_POWER_W, APP2_PUMP_POWER_W)

    nodes: list = [
        PortNode("pump1_in", "input"),
        PortNode("pump2_in", "input"),
        SplitterNode("pump_combiner", 0.5),
        PhaseShifterNode("path_phase"),
    ]
    edges: list = [
        Edge("pump1_in", "pump_combiner", dst_port=0),
        Edge("pump2_in", "pump_combiner", dst_port=1),
        Edge("pump_combiner", "path_phase", src_port=1),
    ]
    sources = []
    for mzi, feed in (("a", ("pump_combiner", 0)), ("b", ("path_phase", 0))):
        split, merge = f"mzi_{mzi}_split", f"mzi_{mzi}_merge"
        arm1, arm2 = f"source_{mzi}1", f"source_{mzi}2"
        theta_ps = f"theta_{mzi}"
        nodes += [
            SplitterNode(split, 0.5),
            SegmentNode(arm1, preset_waveguide("strip", APP2_STRIP_M)),
            SegmentNode(arm2, preset_waveguide("strip", APP2_STRIP_M)),
            PhaseShifterNode(theta_ps),
            SplitterNode(merge, 0.5),
        ]
        edges += [
            Edge(feed[0], split, src_port=feed[1]),
            Edge(split, arm1, src_port=0),
            Edge(split, arm2, src_port=1),
            Edge(arm1, merge, dst_port=0),
            Edge(arm2, theta_ps),
            Edge(theta_ps, merge, dst_port=1),
        ]
        sources += [arm1, arm2]

    # Two rails per source MZI; rail k of each MZI meets in analyzer MZI k.
    for rail, (src_a, src_b) in enumerate(
        ((("mzi_a_merge", 0), ("mzi_b_merge", 0)), (("mzi_a_merge", 1), ("mzi_b_merge", 1)))
    ):
        dist_a, dist_b = f"dist_a{rail + 1}", f"dist_b{rail + 1}"
        split, merge = f"analyzer_{rail + 1}_split", f"analyzer_{rail + 1}_merge"
        arm1, arm2 = f"analyzer_{rail + 1}_arm1", f"analyzer_{rail + 1}_arm2"
        rz = f"analyzer_{rail + 1}_rz"
        nodes += [
            SegmentNode(dist_a, preset_waveguide("shallow_ridge", APP2_DISTRIBUTION_M)),
            SegmentNode(dist_b, preset_waveguide("shallow_ridge", APP2_DISTRIBUTION_M)),
            SplitterNode(split, 0.5),
            SegmentNode(arm1, preset_waveguide("shallow_ridge", APP2_ANALYZER_ARM_M)),
            SegmentNode(arm2, preset_waveguide("shallow_ridge", APP2_ANALYZER_ARM_M)),
            PhaseShifterNode(rz),
            SplitterNode(merge, 0.5),
            PortNode(f"detect_{rail + 1}a", "output"),
            PortNode(f"detect_{rail + 1}b", "output"),
        ]
        edges += [
            Edge(src_a[0], dist_a, src_port=src_a[1]),
            Edge(src_b[0], dist_b, src_port=src_b[1]),
            Edge(dist_a, split, dst_port=0),
            Edge(dist_b, split, dst_port=1),
            Edge(split, arm1, src_port=0),
            Edge(split, arm2, src_port=1),
            Edge(arm1, merge, dst_port=0),
            Edge(arm2, rz),
            Edge(rz, merge, dst_port=1),
            Edge(merge, f"detect_{rail + 1}a", src_port=0),
            Edge(merge, f"detect_{rail + 1}b", src_port=1),
        ]

    return CircuitSetup(
        name="app2_path",
        graph=CircuitGraph(tuple(nodes), tuple(edges)),
        pump=pump,
        input_ports=("pump1_in", "pump2_in"),
        # Uniform-power noise budget: compare raw generation fluxes.
        detection_node=None,
        designated_segments=tuple(sources),
        band_detuning_hz=APP2_BAND_HZ,
        grid=SpectralGrid.symmetric(pump.omega_c, 2.0 * pi * 5.0e12, 4096),
        delay_probe_node=None,
    )


def build_template(name: str, all_strip: bool = False) -> CircuitSetup:
    """A template circuit; ``all_strip`` swaps each segment's waveguide for the strip preset."""
    if name not in TEMPLATE_NAMES:
        raise ConfigError(f"unknown template {name!r}; expected one of {TEMPLATE_NAMES}")
    setup = app1_timebin() if name == "app1_timebin" else app2_path()
    if not all_strip:
        return setup
    nodes = tuple(
        replace(node, waveguide=preset_waveguide("strip", node.waveguide.length_m))
        if isinstance(node, SegmentNode) else node
        for node in setup.graph.nodes
    )
    graph = CircuitGraph(nodes, setup.graph.edges)
    return replace(setup, name=f"{setup.name}_all_strip", graph=graph)


def evaluate_circuit(setup: CircuitSetup) -> CircuitReport:
    """Run pump propagation, per-segment spectra, their band fluxes and the selection ratio."""
    propagation = propagate_pump(setup.graph, setup.pump, setup.input_ports)
    contributions = segment_contributions(
        setup.graph,
        setup.pump,
        setup.grid,
        setup.input_ports,
        setup.detection_node,
        propagation=propagation,
    )
    band = detuning_band_to_omega(setup.pump.omega_c, setup.band_detuning_hz)
    fluxes = {c.segment_id: band_flux(c.spectrum, band) for c in contributions}
    ratio = selection_ratio(fluxes, setup.designated_segments)
    delay = (
        propagation.inter_pulse_delay_s(setup.delay_probe_node)
        if setup.delay_probe_node
        else 0.0
    )
    return CircuitReport(setup, contributions, band, fluxes, ratio, delay)
