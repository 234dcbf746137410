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
        upper = np.arange(n_upper, dtype=float)
        upper += 0.5 if not odd else 1.0
        upper *= step
        upper += self.center
        samples = np.empty(self.n_points)
        samples[self.n_points - n_upper :] = upper
        # 2c - x is exact for x in [c, 2c) (Sterbenz), so pairs sum to 2c.
        np.subtract(2.0 * self.center, upper[::-1], out=samples[:n_upper])
        if odd:
            samples[n_upper] = self.center
        samples.flags.writeable = False
        return samples

    def detunings_hz(self) -> np.ndarray:
        """Ordinary-frequency detuning (omega - center)/2pi in Hz."""
        return (self.omegas - self.center) / (2.0 * np.pi)


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
    delta_k = linear_mismatch(spec.dispersion, omega, pump)
    delta_k += nonlinear_mismatch(spec.gamma_per_w_m, pump)
    return delta_k


def gain_from_mismatch(power_term: float, delta_k, length_m: float):
    """Gain G for a given power term PT and total mismatch dk (rad/m).

    PT is 4 gamma^2 P1 P2 (non-degenerate) or gamma^2 P^2 (degenerate); the
    three q^2 branches of the module docstring are selected per sample.
    """
    if not power_term >= 0.0:
        raise DomainError(f"power term must be >= 0, got {power_term!r}")
    dk = np.asarray(delta_k, dtype=float)
    q2 = 0.5 * dk.reshape(-1)
    q2 *= q2
    np.subtract(power_term, q2, out=q2)  # q^2 = PT - (dk/2)^2
    pos = q2 > 0.0
    if pos.any():
        out = np.empty_like(q2)
        q2_pos = q2[pos]
        out[pos] = power_term / q2_pos * np.sinh(np.sqrt(q2_pos) * length_m) ** 2
        rest = ~pos
        out[rest] = _oscillating_gain(power_term, q2[rest], length_m)
    else:
        out = _oscillating_gain(power_term, q2, length_m)
    out = out.reshape(dk.shape)
    if np.isscalar(delta_k):
        return float(out)
    return out


def _oscillating_gain(power_term: float, q2: np.ndarray, length_m: float) -> np.ndarray:
    """G where q^2 <= 0: PT/|q^2| sin^2(sqrt(|q^2|) L), and PT L^2 where q^2 == 0.

    Computed in place: ``q2`` is overwritten with G and returned.
    """
    r = np.negative(q2, out=q2)
    zero = r == 0.0
    has_zero = zero.any()
    if has_zero:
        r[zero] = 1.0  # keeps q^2 == 0 out of the divide; overwritten below
    s = np.sqrt(r)
    s *= length_m
    np.sin(s, out=s)
    s *= s
    gain = np.divide(power_term, r, out=r)
    gain *= s
    if has_zero:
        gain[zero] = power_term * length_m**2
    return gain


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
    if not np.all(om > 0.0):
        raise DomainError("omega must be > 0")
    try:  # float ** raises OverflowError; numpy raises FloatingPointError here
        with np.errstate(over="raise", invalid="raise"):
            dk = np.asarray(total_mismatch(spec, pump, om), dtype=float)
            power_term = _power_term(spec.gamma_per_w_m, pump)
            _check_peak_gain(spec, pump, power_term, dk)
            gain = gain_from_mismatch(power_term, dk, spec.length_m)
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(
            f"{spec.kind} waveguide of length {spec.length_m:g} m: "
            f"the phase mismatch or gain overflows float64 ({exc})"
        ) from None
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

    On a grid mirrored about the pump average the signal at omega and the
    idler at 2*omega_c - omega have the same gain bit for bit, so each mirror
    pair is evaluated once: G is computed on the upper half of the samples
    (the centre sample included when n is odd) and reflected.  Any other grid
    is evaluated sample by sample.  With attenuation enabled the pump is
    path-averaged and the emitted flux pays half the propagation loss in dB.
    """
    omegas = grid.omegas
    n = omegas.size
    lossy_pump = _attenuated_pump(spec, pump)
    if grid.center == pump.omega_c:
        upper = parametric_gain(spec, lossy_pump, omegas[n // 2 :])
        gain = np.concatenate([upper[n % 2 :][::-1], upper])
    else:
        gain = parametric_gain(spec, lossy_pump, omegas)
    if spec.attenuation_db_per_cm > 0.0:
        total_db = spec.attenuation_db_per_cm * spec.length_m * 100.0
        gain *= 10.0 ** (-total_db / 20.0)
    return BiphotonSpectrum(grid, gain, spec.kind if label is None else label)


def band_flux(spectrum: BiphotonSpectrum, passband: tuple[float, float]) -> float:
    """Photon flux (photons/s) through a filter passband.

    Integrates the flux density over angular frequencies [omega_lo, omega_hi]
    in ordinary-frequency measure (dnu = domega/2pi).  Band edges may fall
    between samples; the sampled spectrum is treated as piecewise linear.
    Loss goes in through ``BiphotonSpectrum.scaled``.
    """
    lo, hi = passband
    if not lo < hi:
        raise DomainError(f"empty passband ({lo!r}, {hi!r})")
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
    return float(np.trapezoid(ys, xs)) / (2.0 * np.pi)


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
