"""Parametric gain and biphoton flux spectra for SFWM in a single waveguide.

The total phase mismatch is dk = dk_NL + dk_L.  The power-dependent part is

    dk_NL = gamma * (P1 + P2)     (non-degenerate pump)
    dk_NL = 2 * gamma * P         (degenerate pump)

and the parametric gain at signal frequency omega follows from

    G = PT / q^2 * sinh^2(sqrt(q^2) * L)        q^2 > 0
    G = PT * L^2                                q^2 = 0
    G = PT / |q^2| * sin^2(sqrt(|q^2|) * L)     q^2 < 0

with q^2 = PT - (dk/2)^2 and the power term PT = 4 gamma^2 P1 P2
(non-degenerate) or gamma^2 P^2 (degenerate).  The q^2 < 0 branch is the
real-valued analytic continuation of the sinh form; it produces the side
lobes of strongly mismatched spectra and keeps G >= 0 and continuous for all
dk.  Semi-classically the signal/idler photon flux per unit frequency equals
G, so a sampled G(omega) doubles as the biphoton spectrum.

The pump is treated as undepleted.  Attenuation is off by default (spectra
are pure dispersion/gamma/length predictions); when enabled, pump powers are
replaced by their path averages via the effective length
L_eff = (1 - exp(-alpha L))/alpha and the emitted flux pays half the total
propagation loss, photons being generated uniformly along the waveguide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite, log, sinh, sqrt
from typing import Iterable

import numpy as np

from .dispersion import DispersionModel, PumpConfig, linear_mismatch
from .errors import ConfigError, DomainError

WAVEGUIDE_KINDS = ("strip", "shallow_ridge", "custom")


@dataclass(frozen=True)
class WaveguideSpec:
    """A single waveguide: geometry class, length, gamma, dispersion, loss."""

    kind: str
    length_m: float
    gamma_per_w_m: float
    dispersion: DispersionModel
    attenuation_db_per_cm: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WAVEGUIDE_KINDS:
            raise ConfigError(f"unknown waveguide kind {self.kind!r}")
        if not self.length_m > 0.0:
            raise DomainError(f"length_m must be > 0, got {self.length_m!r}")
        if not self.gamma_per_w_m >= 0.0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma_per_w_m!r}")
        if not self.attenuation_db_per_cm >= 0.0:
            raise DomainError(
                f"attenuation must be >= 0 dB/cm, got {self.attenuation_db_per_cm!r}"
            )

    @property
    def attenuation_per_m(self) -> float:
        """Power attenuation coefficient alpha (1/m)."""
        return self.attenuation_db_per_cm * 100.0 * log(10.0) / 10.0

    @property
    def effective_length_m(self) -> float:
        """L_eff = (1 - exp(-alpha L))/alpha; equals L when lossless."""
        alpha = self.attenuation_per_m
        if alpha == 0.0:
            return self.length_m
        return (1.0 - np.exp(-alpha * self.length_m)) / alpha


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform angular-frequency grid of n_points samples over center +- half_span.

    The samples mirror exactly about ``center``: each pair sums to
    2*center in floating point, so even functions of the detuning evaluate
    exactly symmetrically.  ``omegas`` is computed on first use and cached on
    the (frozen) grid; ``replace`` gives a new grid with its own samples.
    """

    center: float
    half_span: float
    n_points: int = 4096

    def __post_init__(self) -> None:
        if not self.half_span > 0.0:
            raise DomainError("half_span must be > 0")
        if not self.center > self.half_span:
            raise DomainError("half_span must be smaller than omega_c")
        if not self.omega_min < self.omega_max:
            raise ConfigError("omega_min must be < omega_max")
        if self.n_points < 2:
            raise ConfigError("grid needs at least 2 points")

    @classmethod
    def symmetric(cls, omega_c: float, half_span: float, n_points: int = 4096) -> "SpectralGrid":
        """Grid of n_points samples covering omega_c +- half_span (rad/s)."""
        return cls(omega_c, half_span, n_points)

    @property
    def omega_min(self) -> float:
        return self.center - self.half_span

    @property
    def omega_max(self) -> float:
        return self.center + self.half_span

    @cached_property
    def omegas(self) -> np.ndarray:
        """The samples (rad/s), built once per grid and read-only."""
        step = (self.omega_max - self.omega_min) / (self.n_points - 1)
        n_upper, odd = divmod(self.n_points, 2)
        offsets = (np.arange(n_upper) + (0.5 if not odd else 1.0)) * step
        upper = self.center + offsets
        # 2c - x is exact for x in [c, 2c) (Sterbenz), so pairs sum to 2c.
        lower = 2.0 * self.center - upper[::-1]
        middle = np.array([self.center]) if odd else np.empty(0)
        samples = np.concatenate([lower, middle, upper])
        samples.flags.writeable = False
        return samples

    def detunings_hz(self, omega_c: float) -> np.ndarray:
        """Ordinary-frequency detuning (omega - omega_c)/2pi in Hz."""
        return (self.omegas - omega_c) / (2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class BiphotonSpectrum:
    """Sampled signal/idler flux density (photons s^-1 Hz^-1) on a grid."""

    grid: SpectralGrid
    flux_density: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self) -> None:
        flux = np.asarray(self.flux_density, dtype=float)
        if flux.shape != (self.grid.n_points,):
            raise ConfigError(
                f"flux_density shape {flux.shape} does not match grid ({self.grid.n_points},)"
            )
        if np.any(flux < 0.0) or not np.all(np.isfinite(flux)):
            raise DomainError("flux_density must be finite and >= 0 everywhere")
        object.__setattr__(self, "flux_density", flux)

    def scaled(self, factor: float) -> "BiphotonSpectrum":
        """Spectrum multiplied by a non-negative transmission factor."""
        if not factor >= 0.0:
            raise DomainError(f"scale factor must be >= 0, got {factor!r}")
        return BiphotonSpectrum(self.grid, self.flux_density * factor, self.label)


def nonlinear_mismatch(gamma_per_w_m: float, pump: PumpConfig) -> float:
    """Pump-power phase mismatch dk_NL (rad/m)."""
    if not gamma_per_w_m >= 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma_per_w_m!r}")
    # A degenerate pump stores P in both fields: gamma*(P + P) == 2*gamma*P exactly.
    return gamma_per_w_m * (pump.power1_w + pump.power2_w)


def _power_term(gamma: float, pump: PumpConfig) -> float:
    # Squared peak gain rate (rad^2/m^2): 4 g^2 P1 P2 or g^2 P^2.
    if pump.mode == "degenerate":
        return (gamma * pump.power_w) ** 2
    return 4.0 * gamma**2 * pump.power1_w * pump.power2_w


def total_mismatch(spec: WaveguideSpec, pump: PumpConfig, omega):
    """dk = dk_NL + dk_L at omega (scalar or ndarray), rad/m."""
    return nonlinear_mismatch(spec.gamma_per_w_m, pump) + linear_mismatch(
        spec.dispersion, omega, pump
    )


def gain_from_mismatch(power_term: float, delta_k, length_m: float):
    """Gain G for a given power term PT and total mismatch dk (rad/m).

    PT is 4 gamma^2 P1 P2 (non-degenerate) or gamma^2 P^2 (degenerate); the
    three q^2 branches of the module docstring are selected per sample.
    """
    if not power_term >= 0.0:
        raise DomainError(f"power term must be >= 0, got {power_term!r}")
    dk = np.asarray(delta_k, dtype=float)
    q2 = power_term - (0.5 * dk) ** 2
    out = np.empty_like(q2)
    pos = q2 > 0.0
    neg = q2 < 0.0
    zero = ~(pos | neg)
    if np.any(pos):
        q = np.sqrt(q2[pos])
        out[pos] = power_term / q2[pos] * np.sinh(q * length_m) ** 2
    if np.any(neg):
        q = np.sqrt(-q2[neg])
        out[neg] = power_term / (-q2[neg]) * np.sin(q * length_m) ** 2
    out[zero] = power_term * length_m**2
    if np.isscalar(delta_k):
        return float(out)
    return out


def _check_peak_gain(spec: WaveguideSpec, pump: PumpConfig, power_term: float, dk) -> None:
    """Raise DomainError if the gain on ``dk`` overflows float64, before any sinh runs.

    G = PT L^2 (sinh(qL)/qL)^2 grows with q, so the sample of smallest |dk|
    (largest q^2) carries the peak gain; it is evaluated here as a scalar.
    """
    q2 = power_term - (0.5 * float(np.min(np.abs(dk), initial=np.inf))) ** 2
    if not q2 > 0.0:
        return
    arg = sqrt(q2) * spec.length_m
    try:
        finite = isfinite(power_term / q2 * sinh(arg) ** 2)
    except OverflowError:  # math.sinh and float ** raise instead of returning inf
        finite = False
    if not finite:
        rate = "gamma*P" if pump.mode == "degenerate" else "2*gamma*sqrt(P1*P2)"
        raise DomainError(
            f"{spec.kind} waveguide of length {spec.length_m * 1e3:g} mm at "
            f"{rate} = {sqrt(power_term):.6g} /m: the peak parametric gain "
            f"sinh^2(q*L) at q*L = {arg:.6g} overflows float64; the undepleted-pump "
            "model holds only for q*L << 1 (gain << 1)"
        )


def parametric_gain(spec: WaveguideSpec, pump: PumpConfig, omega):
    """Dimensionless parametric gain G at omega (scalar or ndarray).

    Always >= 0 and continuous across the q^2 = 0 phase-matching boundary.
    """
    om = np.asarray(omega, dtype=float)
    if np.any(om <= 0.0):
        raise DomainError("omega must be > 0")
    dk = np.asarray(total_mismatch(spec, pump, om), dtype=float)
    power_term = _power_term(spec.gamma_per_w_m, pump)
    _check_peak_gain(spec, pump, power_term, dk)
    gain = gain_from_mismatch(power_term, dk, spec.length_m)
    if np.isscalar(omega):
        return float(gain)
    return np.asarray(gain)


def _attenuated_pump(spec: WaveguideSpec, pump: PumpConfig) -> PumpConfig:
    if spec.attenuation_db_per_cm == 0.0:
        return pump
    path_avg = spec.effective_length_m / spec.length_m
    return pump.with_powers(pump.power1_w * path_avg, pump.power2_w * path_avg)


def biphoton_spectrum(
    spec: WaveguideSpec, pump: PumpConfig, grid: SpectralGrid, label: str | None = None
) -> BiphotonSpectrum:
    """Biphoton flux spectrum: flux density per Hz equals G on the grid.

    With attenuation enabled the pump is path-averaged and the emitted flux
    pays half the propagation loss in dB.
    """
    gain = parametric_gain(spec, _attenuated_pump(spec, pump), grid.omegas)
    if spec.attenuation_db_per_cm > 0.0:
        total_db = spec.attenuation_db_per_cm * spec.length_m * 100.0
        gain = gain * 10.0 ** (-total_db / 20.0)
    return BiphotonSpectrum(grid, gain, spec.kind if label is None else label)


def band_flux(
    spectrum: BiphotonSpectrum, passband: tuple[float, float], transmission: float = 1.0
) -> float:
    """Photon flux (photons/s) through a filter passband.

    Integrates the flux density over angular frequencies [omega_lo, omega_hi]
    in ordinary-frequency measure (dnu = domega/2pi), times a flat linear
    transmission.  Band edges may fall between samples; the sampled spectrum
    is treated as piecewise linear.
    """
    lo, hi = passband
    if not lo < hi:
        raise DomainError(f"empty passband ({lo!r}, {hi!r})")
    if not 0.0 <= transmission <= 1.0:
        raise DomainError(f"transmission must be in [0, 1], got {transmission!r}")
    grid = spectrum.grid
    if lo < grid.omega_min or hi > grid.omega_max:
        raise DomainError(
            f"passband [{lo:.6e}, {hi:.6e}] rad/s outside grid "
            f"[{grid.omega_min:.6e}, {grid.omega_max:.6e}]"
        )
    omegas = grid.omegas
    inside = (omegas > lo) & (omegas < hi)
    xs = np.concatenate(([lo], omegas[inside], [hi]))
    ys = np.concatenate(
        (
            [np.interp(lo, omegas, spectrum.flux_density)],
            spectrum.flux_density[inside],
            [np.interp(hi, omegas, spectrum.flux_density)],
        )
    )
    return transmission * float(np.trapezoid(ys, xs)) / (2.0 * np.pi)


def bandwidth_3db_hz(spectrum: BiphotonSpectrum) -> float:
    """Full width (Hz) of the region where flux stays within 3 dB of its peak.

    Measured between the outermost grid samples with flux >= max/2, so spectra
    wider than the grid saturate at the grid span.
    """
    flux = spectrum.flux_density
    peak = float(flux.max())
    if peak <= 0.0:
        raise DomainError("cannot measure bandwidth of an all-zero spectrum")
    above = np.nonzero(flux >= 0.5 * peak)[0]
    omegas = spectrum.grid.omegas
    return float(omegas[above[-1]] - omegas[above[0]]) / (2.0 * np.pi)


def detuning_band_to_omega(
    omega_c: float, band_hz: Iterable[float]
) -> tuple[float, float]:
    """Map an ordinary-frequency detuning band (Hz) to (omega_lo, omega_hi)."""
    lo_hz, hi_hz = band_hz
    if not lo_hz < hi_hz:
        raise DomainError(f"empty detuning band ({lo_hz!r}, {hi_hz!r})")
    two_pi = 2.0 * np.pi
    return omega_c + two_pi * lo_hz, omega_c + two_pi * hi_hz
