"""cli-artifacts: ``cli.main(argv)`` in-process on the shipped configs, one command per op.

A round runs the nine commands below once each, in an order shuffled by the
seed, each into a fresh output directory.  The seed also sets the waist of
the Gaussian mode field that ``gamma`` reads.  Before timing, every command
runs once and its outputs go through every check below; each timed run must
then reproduce those files and that standard output byte for byte, so it
passes the same checks.
"""

from __future__ import annotations

import random
import shutil
import xml.etree.ElementTree as ET
from math import pi
from pathlib import Path

import numpy as np

from harness import Op, OpFailed, file_hashes, invoke, warm_up
from oracles import C_VACUUM, band_integral_hz, omega_from_nm, read_table, require
from reference import python_task

MODE_FIELD_POINTS = 201
Z0_OHM = 376.730313668
N0, N2 = 3.48, 4.5e-18  # silicon defaults of the gamma config
APP1_ARM_DIFFERENCE_M = 11.5e-3
N_EFF = {"shallow_ridge": 2.6, "strip": 2.4}
SELECTION_THRESHOLD = 10.0

# Pump centre (nm, or the two lines of a non-degenerate pump) and selection band (THz).
APP1 = ((1552.5,), (2.5, 5.0))
APP2 = ((1528.0, 1582.0), (-0.05, 0.05))

BAD_EDGE = "{from: bin_phase, to: merge, to_port: 0}"
KNOWN_FAULT = (
    "custom circuit with to_port: zero raises ValueError out of cli.main "
    "instead of exiting 2 with the field named"
)


def _omega_c(lines_nm: tuple[float, ...]) -> float:
    omegas = [omega_from_nm(w) for w in lines_nm]
    return 0.5 * (omegas[0] + omegas[-1])


class CliArtifacts:
    name = "cli-artifacts"
    reference_task = staticmethod(python_task)

    def describe(self) -> str:
        return (
            f"9 commands per round; gamma reads a {MODE_FIELD_POINTS}x{MODE_FIELD_POINTS} "
            "Gaussian mode field"
        )

    def __init__(self, sim, work: Path, seed: int) -> None:
        self.sim = sim
        self.work = work
        self.rng = random.Random(seed)
        self.counter = 0
        configs = Path.cwd() / "configs"
        self.waist_m = 1.0e-6 * (1.0 + 0.2 * self.rng.uniform(-1.0, 1.0))
        gamma_config = self._write_gamma_inputs()
        bad_config = self._write_bad_port_config(configs / "custom_circuit.yaml")

        # kind: (argv, known fault or None)
        self.kinds = {
            "spectrum_degenerate_svg": (
                ["spectrum", "--config", str(configs / "degenerate_bandwidth_contrast.yaml"), "--svg"],
                None,
            ),
            "spectrum_nondegenerate": (
                ["spectrum", "--config", str(configs / "nondegenerate_bandwidth_contrast.yaml")],
                None,
            ),
            "circuit_app1": (["circuit", "--template", "app1_timebin"], None),
            "circuit_app1_all_strip": (["circuit", "--template", "app1_timebin", "--all-strip"], None),
            "circuit_app2_svg": (["circuit", "--template", "app2_path", "--svg"], None),
            "circuit_app2_all_strip": (["circuit", "--template", "app2_path", "--all-strip"], None),
            "circuit_custom": (["circuit", "--config", str(configs / "custom_circuit.yaml")], None),
            "gamma_verify_scale": (["gamma", "--config", str(gamma_config), "--verify-scale"], None),
            "circuit_custom_bad_port": (["circuit", "--config", str(bad_config)], KNOWN_FAULT),
        }
        self.reference = self._reference_arrays(configs)
        # The first run of each command, once checked, is the byte-for-byte reference.
        self.verified: dict[str, tuple[dict[str, str], str]] = {}
        warm_up([self._op(kind) for kind in self.kinds])

    # -- inputs -----------------------------------------------------------

    def _write_gamma_inputs(self) -> Path:
        w = self.waist_m
        coords = np.linspace(-5.0 * w, 5.0 * w, MODE_FIELD_POINTS)
        g1 = np.exp(-(coords**2) / (2.0 * w * w))
        e = 1.0e7 * np.outer(g1, g1).ravel()
        core = (np.abs(coords)[:, None] <= 4.0 * w) & (np.abs(coords)[None, :] <= 4.0 * w)
        xs, ys = np.meshgrid(coords, coords, indexing="ij")
        zero = np.zeros_like(e)
        table = np.column_stack(
            [xs.ravel(), ys.ravel(), e, zero, zero, zero, zero, zero,
             zero, zero, e / Z0_OHM, zero, zero, zero, core.ravel().astype(float)]
        )
        path = self.work / f"gaussian_{MODE_FIELD_POINTS}.csv"
        header = "x_m,y_m,ex_re,ex_im,ey_re,ey_im,ez_re,ez_im,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,in_core"
        np.savetxt(path, table, fmt=["%.17g"] * 14 + ["%d"], delimiter=",", header=header, comments="")
        config = self.work / "gamma_gaussian_201.yaml"
        config.write_text(f"mode_field_csv: {path}\nwavelength_nm: 1552.5\n")
        omega = omega_from_nm(1552.5)
        self.gamma_analytic = omega * N2 * N0**2 / (2.0 * pi * C_VACUUM * w * w)
        # Full-precision quadrature check of the file, once: the CLI prints 4 decimals.
        modefield = self.sim.modefield
        report = modefield.gamma_report(
            modefield.read_mode_field_csv(path), omega, modefield.MaterialConstants()
        )
        rel = abs(report["gamma_per_w_m"] / self.gamma_analytic - 1.0)
        require(rel < 1e-10, f"gamma_report off the analytic Gaussian value by {rel:.2e}")
        return config

    def _write_bad_port_config(self, shipped: Path) -> Path:
        text = shipped.read_text()
        require(BAD_EDGE in text, f"{shipped.name}: edge {BAD_EDGE} not found")
        path = self.work / "custom_circuit_bad_port.yaml"
        path.write_text(text.replace(BAD_EDGE, BAD_EDGE.replace("to_port: 0", "to_port: zero")))
        return path

    def _reference_arrays(self, configs: Path) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
        """Per command: spectra and mismatches computed through the library API, by file name."""
        s = self.sim
        ref: dict[str, dict] = {}
        for kind, name in (
            ("spectrum_degenerate_svg", "degenerate_bandwidth_contrast.yaml"),
            ("spectrum_nondegenerate", "nondegenerate_bandwidth_contrast.yaml"),
        ):
            run = s.config.parse_spectrum_config(s.config.load_config(configs / name))
            omegas = run.grid.omegas
            files = ref[kind] = {}
            for spec, label in run.waveguides:
                flux = s.engine.biphoton_spectrum(spec, run.pump, run.grid).flux_density
                files[f"{label}_spectrum.csv"] = (omegas, flux)
                files[f"{label}_mismatch.csv"] = (omegas, s.engine.total_mismatch(spec, run.pump, omegas))
        for kind, template, all_strip in (
            ("circuit_app1", "app1_timebin", False),
            ("circuit_app1_all_strip", "app1_timebin", True),
            ("circuit_app2_svg", "app2_path", False),
            ("circuit_app2_all_strip", "app2_path", True),
        ):
            setup = s.templates.build_template(template, all_strip=all_strip)
            ref[kind] = {
                f"{setup.name}_{c.segment_id}_spectrum.csv": (setup.grid.omegas, c.spectrum.flux_density)
                for c in s.templates.evaluate_circuit(setup).contributions
            }
        run = s.config.parse_circuit_config(s.config.load_config(configs / "custom_circuit.yaml"))
        contributions = s.circuit.segment_contributions(
            run.graph, run.pump, run.grid, run.input_ports, run.detection_node
        )
        ref["circuit_custom"] = {
            f"circuit_{c.segment_id}_spectrum.csv": (run.grid.omegas, c.spectrum.flux_density)
            for c in contributions
        }
        return ref

    # -- ops --------------------------------------------------------------

    def round_ops(self) -> list[Op]:
        kinds = list(self.kinds)
        self.rng.shuffle(kinds)
        return [self._op(kind) for kind in kinds]

    def _op(self, kind: str) -> Op:
        argv, known_fault = self.kinds[kind]
        self.counter += 1
        out = self.work / f"op{self.counter}"
        cli = self.sim.cli

        def run():
            return invoke(cli, [*argv, "--out", str(out)])

        def judge(result) -> None:
            try:
                self._judge(kind, out, *result)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Op(kind, run, judge, known_fault)

    def _judge(self, kind: str, out: Path, rc: int, stdout: str, stderr: str) -> None:
        if kind == "circuit_custom_bad_port":
            if rc != 2 or "to_port" not in stderr:
                raise OpFailed(f"exit {rc}, stderr {stderr.strip()!r}")
            return
        if rc != 0:
            raise OpFailed(f"exit {rc}: {stderr.strip()}")
        outputs = (file_hashes(out), stdout.replace(str(out), "<out>"))
        if kind in self.verified:
            require(
                outputs == self.verified[kind],
                f"{kind}: files or output differ from the first run of the same command",
            )
            return

        reference = self.reference.get(kind, {})
        emitted = sorted(p.name for p in out.glob("*.csv") if p.name.endswith(("_spectrum.csv", "_mismatch.csv")))
        require(emitted == sorted(reference), f"{kind}: wrote {emitted}, expected {sorted(reference)}")
        tables = {}
        for name, (omegas, values) in reference.items():
            rows = read_table(out / name)
            require(
                np.array_equal(rows[:, 0], omegas) and np.array_equal(rows[:, 2], values),
                f"{kind}: {name} differs from the API-computed array",
            )
            tables[name] = rows
        if kind.startswith("spectrum"):
            require(len(tables) >= 2, f"{kind}: no spectra written")
            if kind.endswith("_svg"):
                n_series = sum(1 for name in tables if name.endswith("_spectrum.csv"))
                self._check_svg(out / "spectra.svg", n_series)
        elif kind.startswith("circuit"):
            self._check_circuit(kind, out, tables, stdout)
        else:
            self._check_gamma(stdout)
        self.verified[kind] = outputs

    def _check_svg(self, path: Path, n_series: int) -> None:
        root = ET.parse(path).getroot()
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        require(len(lines) == n_series, f"{path.name}: {len(lines)} polylines for {n_series} series")

    def _check_circuit(self, kind: str, out: Path, tables: dict, stdout: str) -> None:
        (summary,) = out.glob("*_summary.csv")
        name = summary.name[: -len("_summary.csv")]
        lines = summary.read_text().splitlines()
        ratio = float(lines[1].split("=", 1)[1])
        require(lines[2].startswith("segment,designated,"), f"{summary.name}: bad header")
        lines_nm, band_thz = APP2 if name.startswith("app2") else APP1
        omega_c = _omega_c(lines_nm)
        lo, hi = (omega_c + 2.0 * pi * f * 1e12 for f in band_thz)
        designated = rest = 0.0
        for row in lines[3:]:
            segment, flag, _, _, flux_cell = row.split(",")
            rows = tables[f"{name}_{segment}_spectrum.csv"]
            flux = band_integral_hz(rows[:, 0], rows[:, 2], lo, hi)
            require(
                abs(float(flux_cell) - flux) <= 1e-9 * abs(flux),
                f"{summary.name}: {segment} band flux {flux_cell} vs {flux!r}",
            )
            if flag == "1":
                designated += flux
            else:
                rest += flux
        require(
            abs(ratio - designated / rest) <= 1e-9 * ratio,
            f"{summary.name}: selection ratio {ratio!r} vs band integral {designated / rest!r}",
        )
        if kind.endswith("all_strip"):
            require(ratio < SELECTION_THRESHOLD, f"{name}: all-strip ratio {ratio:g} >= 10")
        elif kind != "circuit_custom":
            require(ratio >= SELECTION_THRESHOLD, f"{name}: hybrid ratio {ratio:g} < 10")
        if kind.startswith("circuit_app1"):
            n_eff = N_EFF["strip" if kind.endswith("all_strip") else "shallow_ridge"]
            expect_ps = n_eff * APP1_ARM_DIFFERENCE_M / C_VACUUM * 1e12
            (line,) = [l for l in stdout.splitlines() if l.startswith("inter-pulse delay")]
            delay_ps = float(line.split(":")[1].split()[0])
            require(abs(delay_ps - expect_ps) <= 0.0051, f"{name}: delay {delay_ps} ps, expected {expect_ps:.4f}")
        if kind.endswith("_svg"):
            self._check_svg(out / f"{name}_contributions.svg", len(lines) - 3)

    def _check_gamma(self, stdout: str) -> None:
        fields = dict(l.split(":", 1) for l in stdout.splitlines() if ":" in l)
        gamma = float(fields["gamma"].split()[0])
        require(
            abs(gamma - self.gamma_analytic) <= 0.5e-4 + 1e-9 * self.gamma_analytic,
            f"gamma {gamma} vs analytic {self.gamma_analytic:.6f}",
        )
        change = float(fields["scale invariance (fields x3)"].split()[-1])
        require(change < 1e-12, f"gamma scale invariance off by {change:.3e}")
