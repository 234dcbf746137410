import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfwm_sim import circuit
from sfwm_sim import (
    CircuitGraph,
    ConfigError,
    CouplerNode,
    DispersionModel,
    DomainError,
    Edge,
    PhaseShifterNode,
    PortNode,
    PumpConfig,
    SegmentNode,
    SpectralGrid,
    SplitterNode,
    TopologyError,
    UsageError,
    WaveguideSpec,
    angular_frequency_from_wavelength,
    band_flux,
    build_template,
    evaluate_circuit,
    photon_transmission,
    propagate_pump,
    segment_contributions,
    selection_ratio,
)
from sfwm_sim.presets import preset_waveguide

OMEGA_P = angular_frequency_from_wavelength(1552.5e-9)


def seg(seg_id, length=5e-3, gamma=223.3, beta2=-3e-26, n_eff=2.6, attenuation=0.0):
    spec = WaveguideSpec(
        "custom", length, gamma, DispersionModel(OMEGA_P, (beta2, 0.0)), attenuation, n_eff
    )
    return SegmentNode(seg_id, waveguide=spec)


def identity_circuit():
    return CircuitGraph(
        (PortNode("in", "input"), seg("wg"), PortNode("out", "output")),
        (Edge("in", "wg"), Edge("wg", "out")),
    )


@st.composite
def random_dags(draw, lossless=False, lengths=st.floats(1e-4, 2e-2)):
    """One input port, 1-6 random inner nodes, and an output port on every open slot.

    Each inner node takes 1 or 2 of the open output slots so far as inputs,
    so every node is reachable from the input and every output slot feeds
    exactly one edge.  Segment lengths are drawn from ``lengths``.
    """
    kinds = ["splitter", "segment", "phase"] + ([] if lossless else ["coupler"])
    nodes, edges, open_slots = [PortNode("in", "input")], [], [("in", 0)]
    for k in range(draw(st.integers(1, 6))):
        node_id, kind = f"n{k}", draw(st.sampled_from(kinds))
        if kind == "splitter":
            # Ratios stay clear of subnormal products; 0 and 1 are kept.
            ratio = draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1.0 - 1e-6))
            node = SplitterNode(node_id, ratio)
        elif kind == "segment":
            loss = 0.0 if lossless else draw(st.floats(0.0, 10.0))
            node = seg(node_id, length=draw(lengths), attenuation=loss)
        elif kind == "coupler":
            node = CouplerNode(
                node_id,
                draw(st.floats(1500e-9, 1600e-9)),
                min_loss_db=draw(st.floats(0.0, 6.0)),
                bandwidth_3db_m=draw(st.floats(20e-9, 80e-9)),
            )
        else:
            node = PhaseShifterNode(node_id, draw(st.floats(0.0, 2.0 * math.pi)))
        n_in = 2 if kind == "splitter" else 1
        n_fed = draw(st.integers(1, min(n_in, len(open_slots))))
        in_slots = draw(st.permutations(range(n_in)))[:n_fed]
        for in_slot in in_slots:
            src, src_port = open_slots.pop(draw(st.integers(0, len(open_slots) - 1)))
            edges.append(Edge(src, node_id, src_port=src_port, dst_port=in_slot))
        open_slots += [(node_id, out_slot) for out_slot in range(2 if kind == "splitter" else 1)]
        nodes.append(node)
    for j, (src, src_port) in enumerate(open_slots):
        nodes.append(PortNode(f"out{j}", "output"))
        edges.append(Edge(src, f"out{j}", src_port=src_port))
    return CircuitGraph(tuple(nodes), tuple(edges))


def unbalanced_interferometer():
    """A lossy segment feeding both inputs of an unequal splitter, through a coupler."""
    return CircuitGraph(
        (
            PortNode("in", "input"),
            seg("a", attenuation=3.0),
            SplitterNode("s1", 0.3),
            CouplerNode("gc", 1540e-9),
            SplitterNode("s2", 0.2),
            PortNode("out0", "output"),
            PortNode("out1", "output"),
        ),
        (
            Edge("in", "a"),
            Edge("a", "s1"),
            Edge("s1", "s2", src_port=0, dst_port=0),
            Edge("s1", "gc", src_port=1),
            Edge("gc", "s2", dst_port=1),
            Edge("s2", "out0", src_port=0),
            Edge("s2", "out1", src_port=1),
        ),
    )


# Segment lengths whose path delays (n_eff L / c, 8.7 ps per mm) coincide,
# fall within PULSE_MERGE_TOL_S of each other, or sit just outside it.
DELAY_LENGTHS = st.sampled_from([1e-3, 2e-3, 3e-3, 1e-3 + 6e-6, 1e-3 + 11e-6, 1e-3 + 12e-6])


def twice_merged_walk(graph, pump, input_ports):
    """The pump walk that merged each output slot's pulses again at the receiving slot."""
    if pump.mode == "degenerate":
        line_omegas, line_powers = (pump.omega_p1,), (pump.power_w,)
    else:
        line_omegas = (pump.omega_p1, pump.omega_p2)
        line_powers = (pump.power1_w, pump.power2_w)
    ports = (input_ports,) * len(line_omegas) if isinstance(input_ports, str) else input_ports
    pending = {}
    for line, port_id in enumerate(ports):
        powers = tuple(line_powers[i] if i == line else 0.0 for i in range(len(line_omegas)))
        pending.setdefault(port_id, {}).setdefault(0, []).append(circuit.Pulse(powers))
    arrived = {}
    for node_id in graph._topo_order:
        node = graph.node(node_id)
        inputs = [
            (in_slot, circuit._merge_pulses(pulses))
            for in_slot, pulses in sorted(pending.get(node_id, {}).items())
        ]
        arrived[node_id] = circuit._merge_pulses([p for _, pulses in inputs for p in pulses])
        for out_slot in range(node.slots[1]):
            out = []
            for in_slot, pulses in inputs:
                factors = [node.transfer(in_slot, out_slot, w) for w in line_omegas]
                out += [
                    circuit.Pulse(
                        tuple(pw * f for pw, f in zip(p.powers_w, factors)),
                        p.delay_s + node.delay_s,
                    )
                    for p in pulses
                ]
            out = circuit._merge_pulses(out)
            edge = graph.outgoing(node_id, out_slot)
            if edge is not None:
                pending.setdefault(edge.dst, {}).setdefault(edge.dst_port, []).extend(out)
    return arrived


def assert_walk_matches_twice_merged_walk(graph, pump, input_ports):
    # repr writes every float in round-trip form, so equal reprs are equal bits.
    got = propagate_pump(graph, pump, input_ports).pulses_at
    assert repr(got) == repr(twice_merged_walk(graph, pump, input_ports))


def hop_factor(node, in_slot, out_slot, omega):
    """Power fraction of one hop through a node, written out per kind."""
    if isinstance(node, SplitterNode):
        return node.ratio if in_slot == out_slot else 1.0 - node.ratio
    if isinstance(node, CouplerNode):
        wavelength = 2.0 * math.pi * 299792458.0 / omega
        return 10.0 ** (-node.loss_db(wavelength) / 10.0)
    if isinstance(node, SegmentNode):
        wg = node.waveguide
        return 10.0 ** (-wg.attenuation_db_per_cm * wg.length_m * 100.0 / 10.0)
    return 1.0


def enumerated_transmission(graph, from_segment, detection_node, omega):
    """Sum over every path from the segment's output of the product of hop factors."""
    total = 0.0
    stack = [(from_segment, 0, 1.0)]  # (node, output slot, product so far)
    while stack:
        node_id, out_slot, product = stack.pop()
        for edge in graph.edges:
            if (edge.src, edge.src_port) != (node_id, out_slot):
                continue
            if edge.dst == detection_node:
                total += product
                continue
            node = graph.node(edge.dst)
            n_out = 2 if isinstance(node, SplitterNode) else 0 if isinstance(node, PortNode) else 1
            for out in range(n_out):
                stack.append(
                    (edge.dst, out, product * hop_factor(node, edge.dst_port, out, omega))
                )
    return total


def assert_transmission_matches_enumeration(graph, omega):
    for segment in graph.segments():
        for detection in graph.nodes:
            expected = enumerated_transmission(graph, segment.id, detection.id, omega)
            got = photon_transmission(graph, segment.id, detection.id, omega)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestGraphValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            CircuitGraph((PortNode("a"), PortNode("a")), ())

    def test_unknown_edge_target_rejected(self):
        with pytest.raises(ConfigError):
            CircuitGraph((PortNode("a"),), (Edge("a", "ghost"),))

    def test_cyclic_graph_rejected(self):
        # feedback loop through the splitter: s -> a -> b -> s; "out" is only downstream
        with pytest.raises(TopologyError, match=r"cyclic around \['a', 'b', 's'\]$"):
            CircuitGraph(
                (
                    PortNode("in", "input"),
                    SplitterNode("s"),
                    seg("a"),
                    seg("b"),
                    PortNode("out", "output"),
                ),
                (
                    Edge("in", "s", dst_port=0),
                    Edge("s", "a", src_port=0),
                    Edge("a", "b"),
                    Edge("b", "s", dst_port=1),
                    Edge("s", "out", src_port=1),
                ),
            )

    def test_double_fed_input_slot_rejected(self):
        with pytest.raises(ConfigError, match="input slot"):
            CircuitGraph(
                (PortNode("in", "input"), seg("a"), seg("b"), seg("c")),
                (Edge("in", "a"), Edge("a", "c"), Edge("b", "c")),
            )

    def test_fanned_out_output_slot_rejected(self):
        # Copying one slot's light down two edges would put the full input on each.
        with pytest.raises(ConfigError, match=r"output slot \('in', 0\) feeds more than one edge"):
            CircuitGraph(
                (PortNode("in", "input"), seg("a"), seg("b")),
                (Edge("in", "a"), Edge("in", "b")),
            )

    def test_splitter_ratio_validated(self):
        with pytest.raises(ConfigError):
            SplitterNode("s", ratio=1.5)


class TestPropagation:
    def test_identity_circuit_conserves_power(self):
        pump = PumpConfig.degenerate(OMEGA_P, 0.8)
        prop = propagate_pump(identity_circuit(), pump, "in")
        assert prop.peak_powers_w("wg") == (0.8,)
        assert prop.peak_powers_w("out") == (0.8,)

    def test_splitter_conserves_power_for_random_ratios(self):
        rng = np.random.default_rng(5)
        for ratio in rng.uniform(0, 1, 20):
            graph = CircuitGraph(
                (
                    PortNode("in", "input"),
                    SplitterNode("s", ratio=float(ratio)),
                    seg("a"),
                    seg("b"),
                    PortNode("oa", "output"),
                    PortNode("ob", "output"),
                ),
                (
                    Edge("in", "s"),
                    Edge("s", "a", src_port=0),
                    Edge("s", "b", src_port=1),
                    Edge("a", "oa"),
                    Edge("b", "ob"),
                ),
            )
            pump = PumpConfig.degenerate(OMEGA_P, 1.0)
            prop = propagate_pump(graph, pump, "in")
            total = prop.peak_powers_w("a")[0] + prop.peak_powers_w("b")[0]
            assert total == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(graph=random_dags())
    @example(graph=unbalanced_interferometer())
    def test_pump_at_each_node_equals_path_enumeration(self, graph):
        # Summed over its pulses, the pump reaching a node is the input power
        # times the path-enumerated transmission from the input port.
        prop = propagate_pump(graph, PumpConfig.degenerate(OMEGA_P, 2.0), "in")
        for node in graph.nodes[1:]:
            expected = 2.0 * enumerated_transmission(graph, "in", node.id, OMEGA_P)
            got = sum(p.powers_w[0] for p in prop.pulses(node.id))
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(graph=random_dags(lossless=True), power=st.floats(1e-3, 10.0))
    def test_lossless_network_conserves_power(self, graph, power):
        prop = propagate_pump(graph, PumpConfig.degenerate(OMEGA_P, power), "in")
        sinks = [n.id for n in graph.nodes if n.id.startswith("out")]
        total = sum(p.powers_w[0] for sink in sinks for p in prop.pulses(sink))
        assert total == pytest.approx(power, rel=1e-12)

    def test_app1_powers_and_delay(self):
        setup = build_template("app1_timebin")
        prop = propagate_pump(setup.graph, setup.pump, setup.input_ports)
        assert prop.peak_powers_w("umzi_long") == pytest.approx((0.5,), rel=1e-12)
        assert prop.peak_powers_w("umzi_short") == pytest.approx((0.5,), rel=1e-12)
        assert prop.peak_powers_w("source_strip") == pytest.approx((0.25,), rel=1e-12)
        # two pulses separated by n_eff * dL / c = 99.7 ps
        delay = prop.inter_pulse_delay_s("source_strip")
        assert delay * 1e12 == pytest.approx(99.7, abs=0.5)
        # Each contribution carries the spread of the one walk it was built from.
        contributions = segment_contributions(
            setup.graph, setup.pump, setup.grid, setup.input_ports, setup.detection_node
        )
        assert [c.segment_id for c in contributions] == ["umzi_long", "umzi_short", "source_strip"]
        for contrib in contributions:
            assert contrib.inter_pulse_delay_s == prop.inter_pulse_delay_s(contrib.segment_id)

    def test_equal_delay_paths_merge_into_one_pulse(self):
        # Balanced split/merge: the two equal-delay contributions fuse into a
        # single pulse carrying half the input power per output (incoherent
        # 50:50 bookkeeping; the other half exits the second output).
        graph = CircuitGraph(
            (
                PortNode("in", "input"),
                SplitterNode("s1"),
                seg("a", length=1e-3),
                seg("b", length=1e-3),
                SplitterNode("s2"),
                seg("after"),
                PortNode("out", "output"),
            ),
            (
                Edge("in", "s1"),
                Edge("s1", "a", src_port=0),
                Edge("s1", "b", src_port=1),
                Edge("a", "s2", dst_port=0),
                Edge("b", "s2", dst_port=1),
                Edge("s2", "after", src_port=0),
                Edge("after", "out"),
            ),
        )
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        prop = propagate_pump(graph, pump, "in")
        pulses = prop.pulses("after")
        assert len(pulses) == 1
        assert pulses[0].powers_w[0] == pytest.approx(0.5, rel=1e-12)

    def test_disconnected_segment_rejected(self):
        graph = CircuitGraph(
            (PortNode("in", "input"), seg("wg"), seg("orphan"), PortNode("out", "output")),
            (Edge("in", "wg"), Edge("wg", "out")),
        )
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        with pytest.raises(TopologyError):
            propagate_pump(graph, pump, "in")

    def test_coupler_loss_at_center_and_band_edge(self):
        coupler = CouplerNode("gc", 1552.5e-9, min_loss_db=4.5, bandwidth_3db_m=50e-9)
        assert coupler.loss_db(1552.5e-9) == pytest.approx(4.5)
        assert coupler.loss_db(1552.5e-9 + 25e-9) == pytest.approx(7.5)
        assert coupler.loss_db(1552.5e-9 - 25e-9) == pytest.approx(7.5)
        graph = CircuitGraph(
            (PortNode("in", "input"), coupler, seg("wg"), PortNode("out", "output")),
            (Edge("in", "gc"), Edge("gc", "wg"), Edge("wg", "out")),
        )
        prop = propagate_pump(graph, PumpConfig.degenerate(OMEGA_P, 1.0), "in")
        assert prop.peak_powers_w("wg")[0] == pytest.approx(10 ** (-0.45), rel=1e-9)

    @pytest.mark.parametrize("name", ["app1_timebin", "app2_path"])
    @pytest.mark.parametrize("all_strip", [False, True])
    def test_shipped_circuits_walk_as_with_a_second_merge(self, name, all_strip):
        setup = build_template(name, all_strip)
        assert_walk_matches_twice_merged_walk(setup.graph, setup.pump, setup.input_ports)
        shared = setup.input_ports if isinstance(setup.input_ports, str) else setup.input_ports[0]
        assert_walk_matches_twice_merged_walk(setup.graph, setup.pump, shared)

    @settings(max_examples=150, deadline=None)
    @given(
        graph=random_dags(lossless=True, lengths=DELAY_LENGTHS) | random_dags(),
        powers=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
        degenerate=st.booleans(),
    )
    @example(graph=unbalanced_interferometer(), powers=(1.0, 2.0), degenerate=False)
    def test_random_graphs_walk_as_with_a_second_merge(self, graph, powers, degenerate):
        if degenerate:
            pump = PumpConfig.degenerate(OMEGA_P, powers[0])
        else:
            pump = PumpConfig.non_degenerate(OMEGA_P * 1.01, OMEGA_P * 0.99, *powers)
        assert_walk_matches_twice_merged_walk(graph, pump, "in")

    def test_two_line_pump_uses_separate_ports(self):
        graph = CircuitGraph(
            (
                PortNode("in1", "input"),
                PortNode("in2", "input"),
                SplitterNode("s"),
                seg("a"),
                seg("b"),
                PortNode("oa", "output"),
                PortNode("ob", "output"),
            ),
            (
                Edge("in1", "s", dst_port=0),
                Edge("in2", "s", dst_port=1),
                Edge("s", "a", src_port=0),
                Edge("s", "b", src_port=1),
                Edge("a", "oa"),
                Edge("b", "ob"),
            ),
        )
        pump = PumpConfig.non_degenerate(OMEGA_P * 1.01, OMEGA_P * 0.99, 0.01, 0.02)
        prop = propagate_pump(graph, pump, ("in1", "in2"))
        np.testing.assert_allclose(prop.peak_powers_w("a"), (0.005, 0.01), rtol=1e-12)
        np.testing.assert_allclose(prop.peak_powers_w("b"), (0.005, 0.01), rtol=1e-12)


class TestContributions:
    def test_app1_transmissions(self):
        setup = build_template("app1_timebin")
        by_id = {c.segment_id: c for c in evaluate_circuit(setup).contributions}
        assert by_id["source_strip"].transmission == pytest.approx(1.0)
        assert by_id["umzi_long"].transmission == pytest.approx(0.5)
        assert by_id["umzi_short"].transmission == pytest.approx(0.5)
        assert_transmission_matches_enumeration(setup.graph, setup.grid.center)

    @settings(max_examples=150, deadline=None)
    @given(graph=random_dags(), omega=st.floats(0.97 * OMEGA_P, 1.03 * OMEGA_P))
    @example(graph=unbalanced_interferometer(), omega=OMEGA_P)
    def test_transmission_equals_path_enumeration(self, graph, omega):
        assert_transmission_matches_enumeration(graph, omega)

    def test_transmission_scales_band_flux_linearly(self):
        report = evaluate_circuit(build_template("app1_timebin"))
        for contrib in report.contributions:
            doubled = contrib.spectrum.scaled(2.0)
            assert band_flux(doubled, report.band_omega) == pytest.approx(
                2.0 * report.band_fluxes[contrib.segment_id], rel=1e-12
            )

    def test_zero_power_pump_zero_contributions(self):
        setup = build_template("app1_timebin")
        pump = PumpConfig.degenerate(setup.pump.omega_p1, 0.0)
        contributions = segment_contributions(
            setup.graph, pump, setup.grid, setup.input_ports, setup.detection_node
        )
        for contrib in contributions:
            assert np.all(contrib.spectrum.flux_density == 0.0)

    def test_selection_ratio_infinite_without_noise_segments(self):
        graph = identity_circuit()
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 6e12, 256)
        (wg,) = segment_contributions(graph, pump, grid, "in", "out")
        band = (OMEGA_P + 2 * math.pi * 2.5e12, OMEGA_P + 2 * math.pi * 5e12)
        assert selection_ratio({"wg": band_flux(wg.spectrum, band)}, ["wg"]) == math.inf

    def test_selection_ratio_without_any_band_flux_is_a_domain_error(self):
        with pytest.raises(DomainError, match="no segment delivers flux in the selection band"):
            selection_ratio({"source": 0.0, "noise": 0.0}, ["source"])

    def test_selection_ratio_input_validation(self):
        with pytest.raises(UsageError):
            selection_ratio({}, ["x"])
        with pytest.raises(UsageError):
            selection_ratio({"wg": 1.0}, [])
        with pytest.raises(UsageError):
            selection_ratio({"wg": 1.0}, ["missing"])

    def test_selection_ratio_sums_fluxes_in_segment_order(self):
        fluxes = {"a": 0.1, "noise1": 0.2, "b": 0.2, "noise2": 0.7}
        assert selection_ratio(fluxes, ["b", "a"]) == (0.1 + 0.2) / (0.2 + 0.7)

    def test_photon_transmission_requires_segment(self):
        graph = identity_circuit()
        with pytest.raises(UsageError):
            photon_transmission(graph, "in", "out", OMEGA_P)


class TestTemplates:
    def test_app1_ratio_exceeds_ten(self):
        report = evaluate_circuit(build_template("app1_timebin"))
        assert report.ratio >= 10.0

    @pytest.mark.parametrize("name", ["app1_timebin", "app2_path"])
    def test_one_pump_walk_per_evaluation(self, name):
        setup = build_template(name)
        with mock.patch.object(circuit, "propagate_pump", wraps=circuit.propagate_pump) as walk:
            evaluate_circuit(setup)
        assert walk.call_count == 1

    @pytest.mark.parametrize("all_strip", [False, True])
    def test_app2_evaluates_one_spectrum_per_distinct_segment(self, all_strip):
        setup = build_template("app2_path", all_strip)
        spectrum = circuit.biphoton_spectrum
        with mock.patch.object(circuit, "biphoton_spectrum", wraps=spectrum) as evaluate:
            report = evaluate_circuit(setup)
        assert evaluate.call_count == 2
        prop = propagate_pump(setup.graph, setup.pump, setup.input_ports)
        segments = setup.graph.segments()
        assert [c.segment_id for c in report.contributions] == [s.id for s in segments]
        for contrib, segment in zip(report.contributions, segments):
            local = setup.pump.with_powers(*prop.peak_powers_w(segment.id))
            alone = spectrum(segment.waveguide, local, setup.grid).scaled(
                contrib.transmission**segment.pair_loss_exponent
            )
            np.testing.assert_array_equal(
                contrib.spectrum.flux_density.view(np.int64), alone.flux_density.view(np.int64)
            )

    def test_spectra_differing_only_in_a_zero_sign_are_evaluated_apart(self):
        twin, signed = seg("twin"), seg("signed")
        signed_spec = WaveguideSpec(
            "custom", 5e-3, 223.3, DispersionModel(OMEGA_P, (-3e-26, -0.0)), 0.0, 2.6
        )
        assert signed_spec == twin.waveguide  # equal under ==, not bit for bit
        graph = CircuitGraph(
            (
                PortNode("in", "input"),
                seg("first"),
                twin,
                SegmentNode("signed", signed_spec),
                PortNode("out", "output"),
            ),
            (Edge("in", "first"), Edge("first", "twin"), Edge("twin", "signed"),
             Edge("signed", "out")),
        )
        grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 6e12, 64)
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        spectrum = circuit.biphoton_spectrum
        with mock.patch.object(circuit, "biphoton_spectrum", wraps=spectrum) as evaluate:
            segment_contributions(graph, pump, grid, "in")
        assert evaluate.call_count == 2

    def test_app1_all_strip_fails_selection(self):
        report = evaluate_circuit(build_template("app1_timebin", all_strip=True))
        assert report.ratio <= 2.0

    def test_app2_uniform_powers(self):
        report = evaluate_circuit(build_template("app2_path"))
        for contrib in report.contributions:
            np.testing.assert_allclose(
                contrib.pump_powers_w, (2.5e-3, 2.5e-3), rtol=1e-12
            )

    @pytest.mark.parametrize("name", ["app1_timebin", "app2_path"])
    def test_all_strip_swaps_only_the_waveguides(self, name):
        hybrid, strip = build_template(name), build_template(name, all_strip=True)
        assert strip.name == f"{name}_all_strip"
        assert strip.graph.edges == hybrid.graph.edges
        assert [n.id for n in strip.graph.nodes] == [n.id for n in hybrid.graph.nodes]
        kinds = set()
        for old, new in zip(hybrid.graph.nodes, strip.graph.nodes):
            if isinstance(old, SegmentNode):
                kinds.add(old.waveguide.kind)
                assert new.waveguide == preset_waveguide("strip", old.waveguide.length_m)
                assert new.pair_loss_exponent == old.pair_loss_exponent
            else:
                assert new == old
        assert kinds == {"strip", "shallow_ridge"}
        assert (strip.pump, strip.grid, strip.band_detuning_hz) == (
            hybrid.pump, hybrid.grid, hybrid.band_detuning_hz
        )

    def test_app2_ratio_exceeds_ten(self):
        assert evaluate_circuit(build_template("app2_path")).ratio >= 10.0

    def test_app2_all_strip_fails_selection(self):
        assert evaluate_circuit(build_template("app2_path", all_strip=True)).ratio < 10.0

    def test_template_determinism(self):
        a = evaluate_circuit(build_template("app1_timebin"))
        b = evaluate_circuit(build_template("app1_timebin"))
        assert a.ratio == b.ratio
        for ca, cb in zip(a.contributions, b.contributions):
            np.testing.assert_array_equal(
                ca.spectrum.flux_density, cb.spectrum.flux_density
            )
