"""Photonic circuit graphs: pump propagation and per-segment SFWM budgets.

A circuit is a small DAG of grating couplers, 2x2 splitters, phase shifters,
waveguide segments and ports.  Each node kind states, once, what it does to
light: its ``slots`` (input and output counts), a ``transfer(in_slot,
out_slot, omega)`` power fraction and a ``delay_s``.  A splitter with ratio r
passes r straight through (input k to output k) and 1-r across; a grating
coupler passes its transmission T(omega); a segment passes its attenuation
and adds its transit delay; ports and phase shifters pass everything at no
delay.  Light enters an input port from outside through its slot 0.

Both graph walks read only that rule.  ``propagate_pump`` walks forward in
topological order, tracking pump light as a list of pulses per node, each
pulse carrying one power per pump line plus accumulated delay.  Splitting is
incoherent power bookkeeping; pulses arriving at a node with equal delays
merge by adding powers, while pulses separated in time stay distinct, so a
segment behind an unbalanced interferometer sees two delayed pulses at the
per-pulse peak power rather than their sum.  ``photon_transmission`` sums
backward from the detection node: the transmission from a node's input slot
is the transfer-weighted sum over its output slots.

Each waveguide segment then contributes an SFWM biphoton spectrum evaluated
at its local peak pump powers, scaled by the power transmission from the
segment to the designated detection port (summed over paths).  Whether that
transmission hits the pair flux once (one shared loss element) or squared
(both photons traverse it independently) is declared per segment via
``pair_loss_exponent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .dispersion import C_VACUUM, PumpConfig, wavelength_from_angular_frequency
from .engine import (
    BiphotonSpectrum,
    SpectralGrid,
    WaveguideSpec,
    biphoton_spectrum,
)
from .errors import ConfigError, DomainError, TopologyError, UsageError

# Pulses closer in time than this are treated as overlapping and their powers
# add; CW light always merges, interferometer time bins never do.
PULSE_MERGE_TOL_S = 1e-13


class _Lossless:
    """One input, one output, no loss and no delay; node kinds override what differs."""

    slots = (1, 1)  # (inputs, outputs)
    delay_s = 0.0

    def transfer(self, in_slot: int, out_slot: int, omega: float) -> float:
        """Power fraction from ``in_slot`` to ``out_slot`` at angular frequency ``omega``."""
        return 1.0


@dataclass(frozen=True)
class PortNode(_Lossless):
    id: str
    direction: str = "input"  # "input" | "output"

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise ConfigError(f"port {self.id!r}: bad direction {self.direction!r}")

    @property
    def slots(self) -> tuple[int, int]:
        return (0, 1) if self.direction == "input" else (1, 0)


@dataclass(frozen=True)
class SplitterNode(_Lossless):
    """Lossless 2x2 power splitter; ratio = input-0 fraction sent to output 0."""

    id: str
    ratio: float = 0.5

    slots = (2, 2)

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"splitter {self.id!r}: ratio must be in [0, 1]")

    def transfer(self, in_slot: int, out_slot: int, omega: float) -> float:
        return self.ratio if in_slot == out_slot else 1.0 - self.ratio


@dataclass(frozen=True)
class PhaseShifterNode(_Lossless):
    """Phase shifter; pump propagation is incoherent, so it passes power unchanged."""

    id: str
    phase_rad: float = 0.0


@dataclass(frozen=True)
class CouplerNode(_Lossless):
    """Grating coupler with a quadratic-in-dB loss profile about its center."""

    id: str
    center_wavelength_m: float
    min_loss_db: float = 4.5
    bandwidth_3db_m: float = 50e-9

    def __post_init__(self) -> None:
        if not self.center_wavelength_m > 0.0:
            raise ConfigError(f"coupler {self.id!r}: center wavelength must be > 0")
        if self.min_loss_db < 0.0 or not self.bandwidth_3db_m > 0.0:
            raise ConfigError(f"coupler {self.id!r}: bad loss parameters")

    def loss_db(self, wavelength_m: float) -> float:
        detune = (wavelength_m - self.center_wavelength_m) / (0.5 * self.bandwidth_3db_m)
        return self.min_loss_db + 3.0 * detune * detune

    def transfer(self, in_slot: int, out_slot: int, omega: float) -> float:
        return 10.0 ** (-self.loss_db(wavelength_from_angular_frequency(omega)) / 10.0)


@dataclass(frozen=True)
class SegmentNode(_Lossless):
    """A waveguide segment: the only SFWM source in the graph."""

    id: str
    waveguide: WaveguideSpec
    pair_loss_exponent: int = 1

    def __post_init__(self) -> None:
        if self.pair_loss_exponent not in (1, 2):
            raise ConfigError(f"segment {self.id!r}: pair_loss_exponent must be 1 or 2")

    @property
    def delay_s(self) -> float:
        return self.waveguide.n_eff * self.waveguide.length_m / C_VACUUM

    def transfer(self, in_slot: int, out_slot: int, omega: float) -> float:
        return 10.0 ** (-self.waveguide.loss_db / 10.0)


Node = PortNode | SplitterNode | PhaseShifterNode | CouplerNode | SegmentNode


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    src_port: int = 0
    dst_port: int = 0


class GraphError(ConfigError):
    """A fault in one node or edge of a CircuitGraph.

    ``field`` names it as a circuit config does, after ``config.``: for
    example ``nodes[1].id`` or ``edges[2].to_port``.
    """

    def __init__(self, message: str, field: str) -> None:
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class CircuitGraph:
    """Validated DAG of photonic nodes."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        by_id: dict[str, Node] = {}
        for i, node in enumerate(self.nodes):
            if node.id in by_id:
                raise GraphError(f"duplicate node id {node.id!r}", f"nodes[{i}].id")
            by_id[node.id] = node
        # One edge per slot: a slot wired to two edges would copy its light
        # down both, creating power.  The edge leaving each output slot is
        # kept for outgoing().
        out_edges: dict[tuple[str, int], Edge] = {}
        taken_inputs: set[tuple[str, int]] = set()
        for i, edge in enumerate(self.edges):
            for end, key in ((edge.src, "from"), (edge.dst, "to")):
                if end not in by_id:
                    raise GraphError(f"edge references unknown node {end!r}", f"edges[{i}].{key}")
            out_slot, in_slot = (edge.src, edge.src_port), (edge.dst, edge.dst_port)
            if not 0 <= edge.src_port < by_id[edge.src].slots[1]:
                message = f"{edge.src!r} has no output slot {edge.src_port}"
                raise GraphError(message, f"edges[{i}].from_port")
            if not 0 <= edge.dst_port < by_id[edge.dst].slots[0]:
                message = f"{edge.dst!r} has no input slot {edge.dst_port}"
                raise GraphError(message, f"edges[{i}].to_port")
            if out_slot in out_edges:
                message = f"output slot {out_slot} feeds more than one edge"
                raise GraphError(message, f"edges[{i}].from_port")
            if in_slot in taken_inputs:
                message = f"input slot {in_slot} is fed by more than one edge"
                raise GraphError(message, f"edges[{i}].to_port")
            out_edges[out_slot] = edge
            taken_inputs.add(in_slot)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_out_edges", out_edges)
        object.__setattr__(self, "_topo_order", self._topological_order())

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ConfigError(f"unknown node {node_id!r}") from None

    def input_port(self, node_id: str) -> PortNode:
        node = self.node(node_id)
        if not (isinstance(node, PortNode) and node.direction == "input"):
            raise ConfigError(f"{node_id!r} is not an input port")
        return node

    def segment(self, node_id: str) -> SegmentNode:
        node = self.node(node_id)
        if not isinstance(node, SegmentNode):
            raise UsageError(f"{node_id!r} is not a segment")
        return node

    def segments(self) -> tuple[SegmentNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, SegmentNode))

    def outgoing(self, node_id: str, src_port: int) -> Edge | None:
        """The edge leaving output slot ``src_port`` of ``node_id``, if one is wired."""
        return self._out_edges.get((node_id, src_port))

    def _topological_order(self) -> tuple[str, ...]:
        indeg = {n.id: 0 for n in self.nodes}
        for edge in self._out_edges.values():
            indeg[edge.dst] += 1
        ready = [nid for nid, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for out_slot in range(self._by_id[nid].slots[1]):
                edge = self.outgoing(nid, out_slot)
                if edge is not None:
                    indeg[edge.dst] -= 1
                    if indeg[edge.dst] == 0:
                        ready.append(edge.dst)
        if len(order) != len(self.nodes):
            # What the walk left is each cycle and everything downstream of
            # one; peeling the nodes that feed nothing left leaves the cycles.
            left = {nid for nid, d in indeg.items() if d > 0}
            edges = [e for e in self._out_edges.values() if e.src in left and e.dst in left]
            while (feeding := {e.src for e in edges if e.dst in left}) != left:
                left = feeding
            raise TopologyError(f"circuit graph is cyclic around {sorted(left)}")
        return tuple(order)


@dataclass(frozen=True)
class CircuitSetup:
    """Everything needed to evaluate one circuit, as ``parse_circuit_config`` reads it."""

    name: str
    graph: CircuitGraph
    pump: PumpConfig
    input_ports: str | tuple[str, str]
    detection_node: str | None
    designated_segments: tuple[str, ...]
    band_detuning_hz: tuple[float, float]
    grid: SpectralGrid


@dataclass(frozen=True)
class Pulse:
    """One pump pulse: per-line powers (W) plus accumulated delay."""

    powers_w: tuple[float, ...]
    delay_s: float = 0.0


def _merge_pulses(pulses: list[Pulse]) -> tuple[Pulse, ...]:
    merged: list[Pulse] = []
    for pulse in sorted(pulses, key=lambda p: p.delay_s):
        if merged and abs(pulse.delay_s - merged[-1].delay_s) <= PULSE_MERGE_TOL_S:
            prev = merged[-1]
            powers = tuple(a + b for a, b in zip(prev.powers_w, pulse.powers_w))
            merged[-1] = Pulse(powers, prev.delay_s)
        else:
            merged.append(pulse)
    return tuple(merged)


@dataclass(frozen=True)
class PumpPropagation:
    """Pump pulse lists per node input, plus pump line frequencies."""

    pulses_at: dict[str, tuple[Pulse, ...]]
    line_omegas: tuple[float, ...]

    def pulses(self, node_id: str) -> tuple[Pulse, ...]:
        return self.pulses_at.get(node_id, ())

    def peak_powers_w(self, node_id: str) -> tuple[float, ...]:
        """Per-line peak (maximum single-pulse) power at a node."""
        pulses = self.pulses(node_id)
        if not pulses:
            return tuple(0.0 for _ in self.line_omegas)
        return tuple(
            max(p.powers_w[i] for p in pulses) for i in range(len(self.line_omegas))
        )

    def inter_pulse_delay_s(self, node_id: str) -> float:
        """Spread between earliest and latest pulse at a node (0 if single)."""
        pulses = self.pulses(node_id)  # sorted by delay (see _merge_pulses)
        return pulses[-1].delay_s - pulses[0].delay_s if pulses else 0.0


def propagate_pump(
    circuit: CircuitGraph,
    pump: PumpConfig,
    input_ports: str | tuple[str, str],
) -> PumpPropagation:
    """Propagate pump power and delay from the input ports through the DAG.

    ``input_ports`` names one input port (both lines, or the single degenerate
    line) or a pair (one port per pump line).  Every segment must end up with
    at least one pulse, otherwise the circuit is considered mis-wired.
    """
    if pump.mode == "degenerate":
        line_omegas = (pump.omega_p1,)
        line_powers = (pump.power_w,)
    else:
        line_omegas = (pump.omega_p1, pump.omega_p2)
        line_powers = (pump.power1_w, pump.power2_w)
    ports = (input_ports,) * len(line_omegas) if isinstance(input_ports, str) else tuple(input_ports)
    if len(ports) != len(line_omegas):
        raise ConfigError(
            f"{pump.mode} pump has {len(line_omegas)} line(s) but "
            f"{len(ports)} input port(s) were given"
        )

    # The merged pulses pending at each node, by input slot; an input port's
    # slot 0 is where the pump enters from outside, both lines at once when
    # they share a port.  Each other slot is fed by one edge, so it holds one
    # output slot's list, merged once where it left.
    entering: dict[str, list[Pulse]] = {}
    for line, port_id in enumerate(ports):
        circuit.input_port(port_id)
        powers = tuple(line_powers[i] if i == line else 0.0 for i in range(len(line_omegas)))
        entering.setdefault(port_id, []).append(Pulse(powers))
    pending = {port_id: {0: _merge_pulses(pulses)} for port_id, pulses in entering.items()}

    arrived: dict[str, tuple[Pulse, ...]] = {}
    for node_id in circuit._topo_order:
        node = circuit.node(node_id)
        inputs = sorted(pending.get(node_id, {}).items())
        arrived[node_id] = _merge_pulses([p for _, pulses in inputs for p in pulses])
        for out_slot in range(node.slots[1]):
            edge = circuit.outgoing(node_id, out_slot)
            if edge is None:
                continue
            out = []
            for in_slot, pulses in inputs:
                factors = [node.transfer(in_slot, out_slot, w) for w in line_omegas]
                out += [
                    Pulse(
                        tuple(pw * f for pw, f in zip(p.powers_w, factors)),
                        p.delay_s + node.delay_s,
                    )
                    for p in pulses
                ]
            pending.setdefault(edge.dst, {})[edge.dst_port] = _merge_pulses(out)

    for segment in circuit.segments():
        if not arrived.get(segment.id):
            raise TopologyError(f"segment {segment.id!r} receives no pump (disconnected)")
    return PumpPropagation(arrived, line_omegas)


def photon_transmission(
    circuit: CircuitGraph, from_segment: str, detection_node: str, omega: float
) -> float:
    """Power transmission for one photon from a segment's output to a port.

    Sums, over every path, the product of the node transfers at ``omega``
    (splitter ratios, coupler transmission, transit attenuation of
    intermediate segments).  0 when unreachable.
    """
    circuit.segment(from_segment)
    circuit.node(detection_node)
    cache: dict[tuple[str, int], float] = {}

    def from_output(node_id: str, out_slot: int) -> float:
        edge = circuit.outgoing(node_id, out_slot)
        return 0.0 if edge is None else entering(edge.dst, edge.dst_port)

    def entering(node_id: str, in_slot: int) -> float:
        if node_id == detection_node:
            return 1.0
        key = (node_id, in_slot)
        if key not in cache:
            node = circuit.node(node_id)
            value = 0.0
            for out_slot in range(node.slots[1]):
                value += node.transfer(in_slot, out_slot, omega) * from_output(node_id, out_slot)
            cache[key] = value
        return cache[key]

    return from_output(from_segment, 0)


@dataclass(frozen=True, eq=False)
class SegmentContribution:
    """One segment's biphoton flux toward the detectors."""

    segment_id: str
    pump_powers_w: tuple[float, ...]
    transmission: float
    spectrum: BiphotonSpectrum  # already scaled by transmission**pair_loss_exponent
    inter_pulse_delay_s: float  # its pump pulses' spread: 0 for one, > PULSE_MERGE_TOL_S for more


def segment_contributions(
    circuit: CircuitGraph,
    pump: PumpConfig,
    grid: SpectralGrid,
    input_ports: str | tuple[str, str],
    detection_node: str | None = None,
) -> tuple[SegmentContribution, ...]:
    """Per-segment SFWM spectra at local pump powers, scaled toward detection.

    The pump is propagated once, here, and each distinct (waveguide, local
    pump) pair's spectrum is evaluated once.  With ``detection_node=None``
    raw generation spectra are compared (transmission 1 for every segment).
    """
    propagation = propagate_pump(circuit, pump, input_ports)
    # Keyed on repr, which writes each float in round-trip form: two keys are
    # equal only when every float in them is equal bit for bit (0.0 and -0.0
    # differ; both dataclasses reject NaN).
    spectra: dict[str, BiphotonSpectrum] = {}
    contributions = []
    for segment in circuit.segments():
        powers = propagation.peak_powers_w(segment.id)
        local_pump = pump.with_powers(*powers)
        key = repr((segment.waveguide, local_pump))
        spectrum = spectra.get(key)
        if spectrum is None:
            spectrum = spectra[key] = biphoton_spectrum(segment.waveguide, local_pump, grid)
        if detection_node is None:
            transmission = 1.0
        else:
            transmission = photon_transmission(
                circuit, segment.id, detection_node, grid.center
            )
        scaled = spectrum.scaled(transmission**segment.pair_loss_exponent)
        spread = propagation.inter_pulse_delay_s(segment.id)
        contributions.append(
            SegmentContribution(segment.id, powers, transmission, scaled, spread)
        )
    return tuple(contributions)


def selection_ratio(band_fluxes: dict[str, float], designated_segments) -> float:
    """Designated-to-rest ratio of the band fluxes per segment id; +inf when only the rest is 0."""
    if not band_fluxes:
        raise UsageError("selection_ratio needs at least one band flux")
    designated = set(designated_segments)
    if not designated:
        raise UsageError("designated segment set must be non-empty")
    missing = designated - band_fluxes.keys()
    if missing:
        raise UsageError(f"designated segments {sorted(missing)} have no band flux")
    num = sum(flux for seg, flux in band_fluxes.items() if seg in designated)
    den = sum(flux for seg, flux in band_fluxes.items() if seg not in designated)
    if den == 0.0:
        if num == 0.0:
            raise DomainError("no segment delivers flux in the selection band")
        return inf
    return num / den
