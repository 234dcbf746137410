"""design-scan: library calls only, one design point per op, nothing emitted.

One op evaluates a strip and a shallow-ridge waveguide at one (pump mode,
length, pump power) point on a 65,536-sample grid: ``total_mismatch``,
``biphoton_spectrum``, ``band_flux`` over the selection band and
``bandwidth_3db_hz``.  A round is every point of the scan once; the seed
jitters lengths and powers by up to 10 % and shuffles the order.

The first evaluation of each point is checked against the independent
computations in ``oracles``; every later evaluation of the same point must
return bit-identical results, so it passes the same checks.
"""

from __future__ import annotations

import hashlib
import random
from math import pi

import numpy as np

from oracles import gain_spectrum, band_integral_hz, omega_from_nm, require
from reference import numpy_task
from harness import Op

GRID_POINTS = 65_536
# Waveguide parameters, the same values as the package's shipped presets.
WAVEGUIDES = {
    "strip": (223.3, (-3.0e-26, 0.0)),
    "shallow_ridge": (93.5, (5.0e-25, 2.0e-48)),
}
LENGTHS_MM = (3.0, 5.0, 8.0, 12.0)
# (mode, pump wavelengths in nm, grid span THz, selection band THz, powers W)
PUMP_MODES = (
    ("degenerate", (1552.5, 1552.5), 80.0, (2.5, 5.0), (0.25, 0.5, 1.0)),
    ("non-degenerate", (1528.0, 1582.0), 16.0, (-0.05, 0.05), (0.005, 0.01, 0.02)),
)
JITTER = 0.10


class DesignScan:
    name = "design-scan"
    reference_task = staticmethod(numpy_task)

    def describe(self) -> str:
        return (
            f"{len(PUMP_MODES)} pump modes x {len(LENGTHS_MM)} lengths x 3 powers = "
            f"{len(PUMP_MODES) * len(LENGTHS_MM) * 3} points per round, {GRID_POINTS} samples"
        )

    def __init__(self, sim, work, seed: int) -> None:
        self.sim = sim
        rng = random.Random(seed)
        self.points = []
        for mode, wavelengths, span_thz, band_thz, powers in PUMP_MODES:
            for length_mm in LENGTHS_MM:
                for power in powers:
                    self.points.append(
                        (
                            mode,
                            wavelengths,
                            span_thz,
                            band_thz,
                            length_mm * 1e-3 * (1.0 + JITTER * rng.uniform(-1.0, 1.0)),
                            power * (1.0 + JITTER * rng.uniform(-1.0, 1.0)),
                        )
                    )
        self.rng = rng
        self.verified: dict[tuple, str] = {}

    def round_ops(self) -> list[Op]:
        order = list(self.points)
        self.rng.shuffle(order)
        return [Op("design_point", self._runner(p), self._judge(p)) for p in order]

    def _pump(self, mode, wavelengths, power):
        d = self.sim.dispersion
        w1, w2 = (d.angular_frequency_from_wavelength(w * 1e-9) for w in wavelengths)
        if mode == "degenerate":
            return d.PumpConfig.degenerate(w1, power)
        return d.PumpConfig.non_degenerate(w1, w2, power, power)

    def _runner(self, point):
        mode, wavelengths, span_thz, band_thz, length_m, power = point
        engine = self.sim.engine
        d = self.sim.dispersion

        def run():
            pump = self._pump(mode, wavelengths, power)
            grid = engine.SpectralGrid.symmetric(pump.omega_c, pi * span_thz * 1e12, GRID_POINTS)
            band = engine.detuning_band_to_omega(pump.omega_c, (band_thz[0] * 1e12, band_thz[1] * 1e12))
            results = {}
            for kind, (gamma, betas) in WAVEGUIDES.items():
                spec = engine.WaveguideSpec(kind, length_m, gamma, d.DispersionModel(pump.omega_c, betas))
                delta_k = engine.total_mismatch(spec, pump, grid.omegas)
                spectrum = engine.biphoton_spectrum(spec, pump, grid)
                results[kind] = (
                    delta_k,
                    spectrum,
                    engine.band_flux(spectrum, band),
                    engine.bandwidth_3db_hz(spectrum),
                )
            return results

        return run

    def _judge(self, point):
        mode, wavelengths, span_thz, band_thz, length_m, power = point
        w1, w2 = (omega_from_nm(w) for w in wavelengths)
        omega_c, omega_d = 0.5 * (w1 + w2), 0.5 * (w1 - w2)
        degenerate = mode == "degenerate"
        where = f"{mode} L={length_m * 1e3:.3f} mm P={power:.4g} W"

        def judge(results) -> None:
            digest = hashlib.sha256()
            for delta_k, spectrum, flux, width in results.values():
                digest.update(delta_k.tobytes() + spectrum.flux_density.tobytes())
                digest.update(repr((flux, width, spectrum.grid)).encode())
            if point in self.verified:
                require(
                    digest.hexdigest() == self.verified[point],
                    f"{where}: results differ from the first evaluation of the same point",
                )
                return
            check(results)
            self.verified[point] = digest.hexdigest()

        def check(results) -> None:
            widths = {}
            for kind, (gamma, betas) in WAVEGUIDES.items():
                delta_k, spectrum, flux, width = results[kind]
                omegas = spectrum.grid.omegas
                require(omegas.size == GRID_POINTS, f"{where} {kind}: grid size {omegas.size}")
                require(np.all(np.isfinite(delta_k)), f"{where} {kind}: non-finite mismatch")
                g = spectrum.flux_density
                expect = gain_spectrum(
                    omegas, omega_c, omega_d, gamma, (power, power), betas, length_m, degenerate
                )
                require(
                    np.allclose(g, expect, rtol=1e-9, atol=1e-9 * float(expect.max())),
                    f"{where} {kind}: spectrum differs from PT|sinh(gL)/g|^2 "
                    f"(max rel {float(np.max(np.abs(g - expect)) / expect.max()):.2e})",
                )
                if degenerate:
                    # A quartic term makes dk = f(dw**4), which numpy's pow does not
                    # evaluate bit-evenly; without one the mirror image is exact.
                    asymmetry = float(np.max(np.abs(g - g[::-1])))
                    allowed = 1e-12 * float(g.max()) if betas[1] else 0.0
                    require(
                        asymmetry <= allowed,
                        f"{where} {kind}: spectrum not mirrored about the centre ({asymmetry:.3e})",
                    )
                lo = omega_c + 2.0 * pi * band_thz[0] * 1e12
                hi = omega_c + 2.0 * pi * band_thz[1] * 1e12
                reference = band_integral_hz(omegas, g, lo, hi)
                require(
                    abs(flux - reference) <= 1e-10 * abs(reference),
                    f"{where} {kind}: band_flux {flux!r} vs trapezoid {reference!r}",
                )
                widths[kind] = width
            if degenerate:
                require(
                    widths["strip"] > widths["shallow_ridge"],
                    f"{where}: strip 3 dB width {widths['strip']:.4g} Hz not above ridge "
                    f"{widths['shallow_ridge']:.4g} Hz",
                )

        return judge
