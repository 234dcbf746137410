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

Equal grids share one read-only sample array, so a scan that builds the
same grid at every point builds its samples once (at most 4 grids, 32 MiB at
config's MAX_GRID_POINTS = 2^20).  On a grid centred on the pump average the
linear mismatch dk_L of the grid's upper half is evaluated once per
dispersion model, pump lines and grid, and shared read-only by every length
and power (at most 4 halves, 16 MiB at MAX_GRID_POINTS); only dk_NL is added
per call.  The kernel allocates little beyond what it returns.  G is formed
in the buffer of the dk it comes from, in one pass: sinh and sin each write
only their own samples of a second buffer.  On a grid mirrored about the
pump average each mirror pair is evaluated once, and ``band_flux`` reads only
the samples of its band.

No kernel here returns inf or NaN where float64 overflows: each raises
DomainError.  The peak gain is checked as a scalar before any sinh runs, and
an overflow anywhere else in the mismatch or the gain is named as well;
``total_mismatch``, ``parametric_gain`` and ``biphoton_spectrum`` name the
waveguide.  Each public call enters one float64 guard around all of its
mismatch and gain work, and formats the waveguide only on a raise.

The pump is treated as undepleted.  Attenuation is off by default (spectra
are pure dispersion/gamma/length predictions); when enabled, pump powers are
replaced by their path averages via the effective length
L_eff = (1 - exp(-alpha L))/alpha and the emitted flux pays half the total
propagation loss, photons being generated uniformly along the waveguide.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import isfinite, log, sinh, sqrt
from numbers import Integral
from typing import Iterable

import numpy as np

from .dispersion import DispersionModel, PumpConfig, linear_mismatch
from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class WaveguideSpec:
    """One waveguide: kind (a preset or "custom"), length, gamma, dispersion, loss, n_eff."""

    kind: str
    length_m: float
    gamma_per_w_m: float
    dispersion: DispersionModel
    attenuation_db_per_cm: float = 0.0
    n_eff: float = 2.5

    def __post_init__(self) -> None:
        from .presets import waveguide_kinds  # presets builds its specs from this module

        if self.kind not in waveguide_kinds():
            raise ConfigError(f"unknown kind {self.kind!r}; the kinds are {waveguide_kinds()}")
        if not self.length_m > 0.0:
            raise DomainError(f"length_m must be > 0, got {self.length_m!r}")
        if not self.gamma_per_w_m >= 0.0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma_per_w_m!r}")
        if not self.attenuation_db_per_cm >= 0.0:
            raise DomainError(
                f"attenuation must be >= 0 dB/cm, got {self.attenuation_db_per_cm!r}"
            )
        if not self.n_eff > 0.0:
            raise ConfigError(f"n_eff must be > 0, got {self.n_eff!r}")

    @property
    def loss_db(self) -> float:
        """Total propagation loss over the length (dB)."""
        return self.attenuation_db_per_cm * self.length_m * 100.0

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
    exactly symmetrically.  ``omegas`` is looked up on first use and cached
    on the (frozen) grid; every equal grid, a ``replace`` copy included,
    returns the same read-only array (see ``_mirrored_samples``).
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
        # Equal grids share samples, so 4096.0 must not pass for 4096.
        if not isinstance(self.n_points, Integral) or isinstance(self.n_points, bool):
            raise ConfigError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise ConfigError("grid needs at least 2 points")

    @classmethod
    def symmetric(cls, omega_c: float, half_span: float, n_points: int) -> "SpectralGrid":
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
        """The samples (rad/s), read-only and shared by every equal grid."""
        return _mirrored_samples(self.center, self.half_span, self.n_points)

    def detunings_hz(self) -> np.ndarray:
        """Ordinary-frequency detuning (omega - center)/2pi in Hz."""
        return (self.omegas - self.center) / (2.0 * np.pi)


# The grid (center, half_span, n_points) of each live array that
# ``_mirrored_samples`` returned, by the array's id.  An entry goes when its
# array does, so this holds no array alive beyond the grid cache and its grids.
_SHARED_GRIDS: dict[int, tuple[float, float, int]] = {}


@lru_cache(maxsize=4)
def _mirrored_samples(center: float, half_span: float, n_points: int) -> np.ndarray:
    """The samples of ``SpectralGrid(center, half_span, n_points)``, memoised.

    The cache holds the 4 most recent grids (a CLI run builds one, a design
    scan alternates between two), so at most 4 x 8 MiB = 32 MiB at config's
    MAX_GRID_POINTS = 2^20.  The array returned is a view of a read-only base,
    so its writeable flag cannot be set again.  It is listed in
    ``_SHARED_GRIDS`` while it lives, so ``total_mismatch`` knows it.
    """
    step = ((center + half_span) - (center - half_span)) / (n_points - 1)
    n_upper, odd = divmod(n_points, 2)
    upper = np.arange(n_upper, dtype=float)
    upper += 0.5 if not odd else 1.0
    upper *= step
    upper += center
    samples = np.empty(n_points)
    samples[n_points - n_upper :] = upper
    # 2c - x is exact for x in [c, 2c) (Sterbenz), so pairs sum to 2c.
    np.subtract(2.0 * center, upper[::-1], out=samples[:n_upper])
    if odd:
        samples[n_upper] = center
    samples.flags.writeable = False
    shared = samples.view()
    _SHARED_GRIDS[id(shared)] = (center, half_span, n_points)
    weakref.finalize(shared, _SHARED_GRIDS.pop, id(shared))
    return shared


@lru_cache(maxsize=4)
def _upper_linear_mismatch(
    model: DispersionModel, lines: tuple[str, float, float], grid: tuple[float, float, int]
) -> np.ndarray:
    """dk_L on the upper half of a grid centred on the pump average, memoised.

    ``lines`` is the pump's (mode, omega_p1, omega_p2) and ``grid`` the grid's
    (center, half_span, n_points); powers are not in the key, as dk_L does not
    depend on them.  Float == is a sound key: ``linear_mismatch`` skips +-0
    beta terms, and every other float in it is > 0.  The upper half is the
    samples from n//2 on, the centre one included when n is odd; mirror pairs
    have bit-equal (omega - omega_c)^2, so it holds every value of the grid.
    The cache holds 4 halves (design-scan evaluates two models on each of two
    grids), at most 4 x 4 MiB = 16 MiB at MAX_GRID_POINTS = 2^20.  A raise is
    never cached: a misaligned model raises ConfigError and an overflow
    FloatingPointError on every call, for the caller to name its waveguide.
    """
    upper = _mirrored_samples(*grid)[grid[2] // 2 :]
    with np.errstate(over="raise", invalid="raise"):
        delta_k = linear_mismatch(model, upper, PumpConfig(*lines, 0.0, 0.0))
    for array in (delta_k, delta_k.base):  # a view's base too, or the flag could be set again
        if array is not None:
            array.flags.writeable = False
    return delta_k


@dataclass(frozen=True, eq=False)
class BiphotonSpectrum:
    """Sampled signal/idler flux density (photons s^-1 Hz^-1) on a grid."""

    grid: SpectralGrid
    flux_density: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        flux = np.asarray(self.flux_density, dtype=float)
        if flux.shape != (self.grid.n_points,):
            raise ConfigError(
                f"flux_density shape {flux.shape} does not match grid ({self.grid.n_points},)"
            )
        # One pass each and no boolean temporary; NaN fails the first test.
        if not (np.minimum.reduce(flux) >= 0.0 and np.maximum.reduce(flux) < np.inf):
            raise DomainError("flux_density must be finite and >= 0 everywhere")
        object.__setattr__(self, "flux_density", flux)

    def scaled(self, factor: float) -> "BiphotonSpectrum":
        """Spectrum multiplied by a non-negative transmission factor."""
        if not factor >= 0.0:
            raise DomainError(f"scale factor must be >= 0, got {factor!r}")
        return BiphotonSpectrum(self.grid, self.flux_density * factor)


def nonlinear_mismatch(gamma_per_w_m: float, pump: PumpConfig) -> float:
    """Pump-power phase mismatch dk_NL (rad/m)."""
    if not gamma_per_w_m >= 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma_per_w_m!r}")
    # A degenerate pump stores P in both fields: gamma*(P + P) == 2*gamma*P exactly.
    delta_k = gamma_per_w_m * (pump.power1_w + pump.power2_w)
    if not isfinite(delta_k):  # float * reaches inf without raising, unlike float **
        raise DomainError(
            f"dk_NL = gamma*(P1 + P2) overflows float64 at gamma = {gamma_per_w_m!r} /(W m)"
        )
    return delta_k


def _power_term(gamma: float, pump: PumpConfig) -> float:
    # Squared peak gain rate (rad^2/m^2): 4 g^2 P1 P2 or g^2 P^2.
    if pump.mode == "degenerate":
        return (gamma * pump.power_w) ** 2
    return 4.0 * gamma**2 * pump.power1_w * pump.power2_w


def _waveguide_prefix(spec: WaveguideSpec | None) -> str:
    # The prefix every float64 fault of a waveguide's mismatch or gain carries.
    return "" if spec is None else f"{spec.kind} waveguide of length {spec.length_m:g} m: "


def _waveguide_nonlinear_mismatch(spec: WaveguideSpec, pump: PumpConfig) -> float:
    """dk_NL of ``spec``; its overflow names the waveguide like ``_Float64Guard``."""
    try:
        return nonlinear_mismatch(spec.gamma_per_w_m, pump)
    except DomainError as exc:
        raise DomainError(f"{_waveguide_prefix(spec)}{exc}") from None


class _Float64Guard:
    """Raise DomainError, naming ``spec`` if given, where the block overflows float64.

    float ** raises OverflowError; numpy raises FloatingPointError in the block.
    Each public kernel call enters one guard; ``_sampled_mismatch``,
    ``_upper_mismatch`` and ``_gain_at`` run inside their caller's.
    """

    __slots__ = ("spec", "errstate")

    def __init__(self, spec: WaveguideSpec | None = None) -> None:
        self.spec = spec
        self.errstate = np.errstate(over="raise", invalid="raise")

    def __enter__(self) -> None:
        self.errstate.__enter__()

    def __exit__(self, kind, exc, traceback) -> None:
        self.errstate.__exit__(kind, exc, traceback)
        if isinstance(exc, (OverflowError, FloatingPointError)):
            prefix = _waveguide_prefix(self.spec)
            message = f"{prefix}the phase mismatch or gain overflows float64 ({exc})"
            raise DomainError(message) from None


def total_mismatch(spec: WaveguideSpec, pump: PumpConfig, omega):
    """dk = dk_NL + dk_L at omega (scalar or ndarray), rad/m.

    Given a grid's own ``omegas`` on a grid centred on the pump average, the
    cached dk_L of the grid's upper half is used and reflected; any other
    omega (a copy, a slice, a scalar) is evaluated sample by sample.  The
    values are the same bit for bit.
    """
    grid = _SHARED_GRIDS.get(id(omega))  # a live id is omega's own
    with _Float64Guard(spec):
        if grid is None or grid[0] != pump.omega_c:
            return _sampled_mismatch(spec, pump, omega)
        n = grid[2]
        delta_k = np.empty(n)
        upper = _upper_mismatch(spec, pump, grid, delta_k[n // 2 :])
    delta_k[: n // 2] = upper[n % 2 :][::-1]
    return delta_k


def _sampled_mismatch(spec: WaveguideSpec, pump: PumpConfig, omega):
    """dk at each sample of omega, in a new buffer (a float for a scalar)."""
    delta_k = linear_mismatch(spec.dispersion, omega, pump)
    delta_k += _waveguide_nonlinear_mismatch(spec, pump)
    return delta_k


def _upper_mismatch(
    spec: WaveguideSpec, pump: PumpConfig, grid: tuple[float, float, int], out: np.ndarray
) -> np.ndarray:
    """dk on the upper half of the grid (center, half_span, n_points), into ``out``.

    The grid is centred on the pump average; dk_L comes from
    ``_upper_linear_mismatch`` and dk_NL is added to it per call.
    """
    lines = (pump.mode, pump.omega_p1, pump.omega_p2)
    linear = _upper_linear_mismatch(spec.dispersion, lines, grid)
    return np.add(linear, _waveguide_nonlinear_mismatch(spec, pump), out=out)


def gain_from_mismatch(power_term: float, delta_k, length_m: float):
    """Gain G for a given power term PT and total mismatch dk (rad/m).

    PT is 4 gamma^2 P1 P2 (non-degenerate) or gamma^2 P^2 (degenerate).  The
    three q^2 branches of the module docstring are one pass over a copy of dk:
    sinh and sin each write only their own samples of one buffer.
    """
    if not power_term >= 0.0:
        raise DomainError(f"power term must be >= 0, got {power_term!r}")
    if not length_m > 0.0:
        raise DomainError(f"length_m must be > 0, got {length_m!r}")
    dk = np.array(delta_k, dtype=float)  # a copy: G is formed in it
    if not np.isfinite(dk).all():
        raise DomainError("delta_k must be finite")
    with _Float64Guard():
        gain = _gain(power_term, dk.reshape(-1), length_m).reshape(dk.shape)
    if np.isscalar(delta_k):
        return float(gain)
    return gain


def _gain(power_term: float, dk: np.ndarray, length_m: float) -> np.ndarray:
    """G from a flat dk in one pass, formed in ``dk``'s buffer and returned.

    G grows with q^2, so the largest q^2 = PT - (dk/2)^2 carries the peak gain;
    if that overflows float64, DomainError is raised before any sinh runs.  One
    buffer holds s = sqrt(|q^2|) L; ``sinh`` writes the samples with q^2 > 0 and
    ``sin`` the rest, then G = PT/|q^2| s^2.  Where q^2 == 0 exactly, the divide
    gets a placeholder and G is PT L^2.
    """
    q2 = dk
    q2 *= 0.5
    q2 *= q2
    np.subtract(power_term, q2, out=q2)  # q^2 = PT - (dk/2)^2
    peak = float(np.maximum.reduce(q2, initial=-np.inf))
    if peak > 0.0:
        arg = sqrt(peak) * length_m
        try:
            finite = isfinite(power_term / peak * sinh(arg) ** 2)
        except OverflowError:  # math.sinh and float ** raise instead of returning inf
            finite = False
        if not finite:
            raise DomainError(
                f"the peak parametric gain sinh^2(q*L) at q*L = {arg:.6g} overflows float64; "
                "the undepleted-pump model holds only for q*L << 1 (gain << 1)"
            )
    grows = q2 > 0.0
    zero = None if q2.all() else q2 == 0.0
    r = np.abs(q2, out=q2)
    if zero is not None:
        r[zero] = 1.0  # keeps q^2 == 0 out of the divide; overwritten below
    s = np.sqrt(r)
    s *= length_m
    np.sinh(s, out=s, where=grows)
    np.sin(s, out=s, where=np.logical_not(grows, out=grows))
    s *= s
    gain = np.divide(power_term, r, out=r)
    gain *= s
    if zero is not None:
        gain[zero] = np.float64(power_term) * length_m**2  # numpy's multiply: overflow raises
    return gain


def parametric_gain(spec: WaveguideSpec, pump: PumpConfig, omega):
    """Dimensionless parametric gain G at omega (scalar or ndarray).

    Always >= 0 and continuous across the q^2 = 0 phase-matching boundary.
    """
    om = np.asarray(omega, dtype=float)
    if not np.all(om > 0.0):
        raise DomainError("omega must be > 0")
    with _Float64Guard(spec):
        gain = _gain_at(spec, pump, _sampled_mismatch(spec, pump, om))
    if np.isscalar(omega):
        return float(gain)
    return gain


def _gain_at(spec: WaveguideSpec, pump: PumpConfig, delta_k: np.ndarray) -> np.ndarray:
    """G from the waveguide's dk, formed in ``delta_k``'s buffer."""
    power_term = _power_term(spec.gamma_per_w_m, pump)
    try:
        return _gain(power_term, delta_k.reshape(-1), spec.length_m).reshape(delta_k.shape)
    except DomainError as exc:  # the peak check: name the waveguide and its gain rate
        rate = "gamma*P" if pump.mode == "degenerate" else "2*gamma*sqrt(P1*P2)"
        where = f"{spec.kind} waveguide of length {spec.length_m * 1e3:g} mm"
        raise DomainError(f"{where} at {rate} = {sqrt(power_term):.6g} /m: {exc}") from None


def _attenuated_pump(spec: WaveguideSpec, pump: PumpConfig) -> PumpConfig:
    if spec.attenuation_db_per_cm == 0.0:
        return pump
    path_avg = spec.effective_length_m / spec.length_m
    return pump.with_powers(pump.power1_w * path_avg, pump.power2_w * path_avg)


def biphoton_spectrum(
    spec: WaveguideSpec, pump: PumpConfig, grid: SpectralGrid
) -> BiphotonSpectrum:
    """Biphoton flux spectrum: flux density per Hz equals G on the grid.

    On a grid mirrored about the pump average the signal at omega and the
    idler at 2*omega_c - omega have the same gain bit for bit, so each mirror
    pair is evaluated once: dk and then G are formed in the upper half of the
    returned array (the centre sample included when n is odd), from the
    grid's cached dk_L, and reflected onto the lower half.  Any other grid is
    evaluated sample by sample.  With attenuation enabled the pump is
    path-averaged and the emitted flux pays half the propagation loss in dB.
    """
    n = grid.n_points
    # The path-averaged pump has the same frequencies, so the same dk_L.
    pumped = _attenuated_pump(spec, pump)
    mirrored = grid.center == pump.omega_c
    with _Float64Guard(spec):
        if mirrored:
            flux = np.empty(n)
            upper = flux[n // 2 :]
            delta_k = _upper_mismatch(spec, pumped, (grid.center, grid.half_span, n), upper)
        else:
            flux = delta_k = _sampled_mismatch(spec, pumped, grid.omegas)
        gain = _gain_at(spec, pumped, delta_k)
    if spec.attenuation_db_per_cm > 0.0:
        gain *= 10.0 ** (-spec.loss_db / 20.0)
    if mirrored:  # the upper half, reflected onto the lower one
        flux[: n // 2] = gain[n % 2 :][::-1]
    return BiphotonSpectrum(grid, flux)


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
    omegas, flux = grid.omegas, spectrum.flux_density
    # The samples inside the band are one slice of the ascending grid.  Each
    # edge is interpolated on the two samples around it, as on the whole grid,
    # so np.interp copies two samples, not the read-only grid.
    first = int(omegas.searchsorted(lo, side="right"))
    stop = int(omegas.searchsorted(hi, side="left"))
    lo_pair, hi_pair = slice(max(first - 1, 0), first + 1), slice(max(stop - 1, 0), stop + 1)
    xs, ys = np.empty(stop - first + 2), np.empty(stop - first + 2)
    xs[0], xs[1:-1], xs[-1] = lo, omegas[first:stop], hi
    ys[0] = np.interp(lo, omegas[lo_pair], flux[lo_pair])
    ys[1:-1] = flux[first:stop]
    ys[-1] = np.interp(hi, omegas[hi_pair], flux[hi_pair])
    # np.trapezoid's own ufunc order: (x[k+1] - x[k]) * (y[k+1] + y[k]) / 2, summed.
    area = ys[1:] + ys[:-1]
    area *= xs[1:] - xs[:-1]
    area /= 2.0
    return float(np.add.reduce(area)) / (2.0 * np.pi)


def bandwidth_3db_hz(spectrum: BiphotonSpectrum) -> float:
    """Full width (Hz) of the region where flux stays within 3 dB of its peak.

    Measured between the outermost grid samples with flux >= max/2, so spectra
    wider than the grid saturate at the grid span.
    """
    flux = spectrum.flux_density
    peak = float(np.maximum.reduce(flux))
    if peak <= 0.0:
        raise DomainError("cannot measure bandwidth of an all-zero spectrum")
    above = flux >= 0.5 * peak
    first, last = int(above.argmax()), len(above) - 1 - int(above[::-1].argmax())
    omegas = spectrum.grid.omegas
    return float(omegas[last] - omegas[first]) / (2.0 * np.pi)


def detuning_band_to_omega(
    omega_c: float, band_hz: Iterable[float]
) -> tuple[float, float]:
    """Map an ordinary-frequency detuning band (Hz) to (omega_lo, omega_hi)."""
    lo_hz, hi_hz = band_hz
    if not lo_hz < hi_hz:
        raise DomainError(f"empty detuning band ({lo_hz!r}, {hi_hz!r}) Hz")
    two_pi = 2.0 * np.pi
    return omega_c + two_pi * lo_hz, omega_c + two_pi * hi_hz
