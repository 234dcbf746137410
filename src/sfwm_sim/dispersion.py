"""Waveguide dispersion model and linear phase mismatch for SFWM.

In spontaneous four-wave mixing two pump photons (frequencies omega_p1,
omega_p2) convert into a signal/idler pair at omega and 2*omega_c - omega,
where omega_c = (omega_p1 + omega_p2)/2.  Expanding the propagation constant
k(omega) about omega_c, all odd-order terms cancel in the mismatch

    dk_L(omega) = k_s + k_i - k_p1 - k_p2

because the four frequencies sit pairwise symmetric about omega_c.  With
beta_2m the (2m)-th derivative of k at omega_c this gives

    dk_L(omega) = 2 * sum_m  beta_2m / (2m)! * [(omega - omega_c)^(2m) - omega_d^(2m)]

with omega_d = (omega_p1 - omega_p2)/2 (zero for a degenerate pump).  The
series is truncated at the model's highest provided order; keeping beta_2 and
beta_4 is the usual choice, and the quartic term matters whenever the pump
average sits close to the zero-dispersion point so that beta_2 is small.

Units are strict SI throughout: omega in rad/s, beta_2m in s^(2m)/m, the
mismatch in rad/m.  Unit conversion from nm / THz / ps^2 km^-1 style inputs
happens at the config boundary, never here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, inf, pi

import numpy as np

from .errors import ConfigError, DomainError

# Speed of light in vacuum, m/s (exact by the SI definition of the metre).
C_VACUUM = 299_792_458.0

# Relative tolerance for "the dispersion model was taken at this pump's
# average frequency".  Larger offsets invalidate the even-order expansion.
REFERENCE_ALIGNMENT_RTOL = 1e-3


def angular_frequency_from_wavelength(lambda_vac: float) -> float:
    """Convert a vacuum wavelength (m) to angular frequency (rad/s)."""
    if not lambda_vac > 0.0:
        raise DomainError(f"wavelength must be > 0 m, got {lambda_vac!r}")
    return 2.0 * pi * C_VACUUM / lambda_vac


def wavelength_from_angular_frequency(omega: float) -> float:
    """Convert an angular frequency (rad/s) to vacuum wavelength (m)."""
    if not omega > 0.0:
        raise DomainError(f"angular frequency must be > 0 rad/s, got {omega!r}")
    return 2.0 * pi * C_VACUUM / omega


@dataclass(frozen=True)
class DispersionModel:
    """Even-order Taylor model of the propagation constant about omega_c.

    Parameters
    ----------
    omega_c : float or None
        Angular frequency (rad/s) at which the coefficients were taken; None
        when they are taken at the average of each pump evaluated with.
    beta_even : tuple of float
        (beta_2, beta_4, ..., beta_2M) in s^(2m)/m, M >= 1.  Signs are free:
        anomalous dispersion has beta_2 < 0, normal beta_2 > 0.
    """

    omega_c: float | None
    beta_even: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.omega_c is not None and not self.omega_c > 0.0:
            raise DomainError(f"omega_c must be > 0, got {self.omega_c!r}")
        beta = tuple(float(b) for b in self.beta_even)
        if len(beta) == 0:
            raise ConfigError("beta_even must contain at least beta_2")
        if not all(-inf < b < inf for b in beta):
            raise ConfigError(f"beta_even must be finite, got {beta!r}")
        object.__setattr__(self, "beta_even", beta)


@dataclass(frozen=True)
class PumpConfig:
    """Degenerate or non-degenerate pump frequencies and powers.

    ``omega_c`` is the pump average (the natural expansion point of the
    dispersion model) and ``omega_d`` the pump half-separation; a degenerate
    pump has omega_d = 0.
    """

    mode: str  # "degenerate" | "non-degenerate"
    omega_p1: float
    omega_p2: float
    power1_w: float
    power2_w: float

    def __post_init__(self) -> None:
        if self.mode not in ("degenerate", "non-degenerate"):
            raise ConfigError(f"unknown pump mode {self.mode!r}")
        for name, w in (("omega_p1", self.omega_p1), ("omega_p2", self.omega_p2)):
            if not w > 0.0:
                raise DomainError(f"{name} must be > 0 rad/s, got {w!r}")
        for name, p in (("power1_w", self.power1_w), ("power2_w", self.power2_w)):
            if not 0.0 <= p < inf:
                raise DomainError(f"{name} must be finite and >= 0 W, got {p!r}")
        if self.mode == "degenerate":
            # Both fields hold the one line, so mode-free formulas serve it too.
            if self.omega_p1 != self.omega_p2:
                raise ConfigError("degenerate pump requires omega_p1 == omega_p2")
            if self.power1_w != self.power2_w:
                raise ConfigError("degenerate pump requires power1_w == power2_w")
        elif self.omega_p1 == self.omega_p2:
            raise ConfigError("non-degenerate pump requires omega_p1 != omega_p2")

    @classmethod
    def degenerate(cls, omega_p: float, power_w: float) -> "PumpConfig":
        """Mono-color pump at omega_p carrying power_w (peak power for pulses)."""
        return cls("degenerate", omega_p, omega_p, power_w, power_w)

    @classmethod
    def non_degenerate(
        cls, omega_p1: float, omega_p2: float, power1_w: float, power2_w: float
    ) -> "PumpConfig":
        """Two-color pump; omega_p1 and omega_p2 must differ."""
        return cls("non-degenerate", omega_p1, omega_p2, power1_w, power2_w)

    @property
    def omega_c(self) -> float:
        """Average pump angular frequency (rad/s)."""
        return 0.5 * (self.omega_p1 + self.omega_p2)

    @property
    def omega_d(self) -> float:
        """Pump half-separation (rad/s); 0 for a degenerate pump."""
        return 0.5 * (self.omega_p1 - self.omega_p2)

    @property
    def power_w(self) -> float:
        """Degenerate pump power (W)."""
        if self.mode != "degenerate":
            raise ConfigError("power_w is only defined for a degenerate pump")
        return self.power1_w

    def with_powers(self, power1_w: float, power2_w: float | None = None) -> "PumpConfig":
        """Same frequencies, new powers (second power ignored when degenerate)."""
        if self.mode == "degenerate":
            return PumpConfig.degenerate(self.omega_p1, power1_w)
        if power2_w is None:
            raise ConfigError("non-degenerate pump needs both powers")
        return PumpConfig.non_degenerate(self.omega_p1, self.omega_p2, power1_w, power2_w)


def linear_mismatch(model: DispersionModel, omega, pump: PumpConfig):
    """Linear phase mismatch dk_L (rad/m) at signal/idler frequency omega.

    Evaluates 2 * sum_m beta_2m/(2m)! * [(omega-omega_c)^(2m) - omega_d^(2m)]
    truncated at the model's highest order.  ``omega`` may be a scalar or an
    ndarray; the result matches its shape.  A model with a stated reference
    must have been taken at the pump's average frequency (relative offset
    <= 0.1%); one without is taken there.  This is the raw series: where it
    overflows float64, numpy warns and the result holds inf or NaN.
    ``engine.total_mismatch`` adds dk_NL and raises DomainError instead.
    """
    ref = model.omega_c
    if ref is not None and abs(ref - pump.omega_c) > REFERENCE_ALIGNMENT_RTOL * pump.omega_c:
        raise ConfigError(
            "dispersion model reference frequency "
            f"{ref:.6e} rad/s is not aligned with the pump average "
            f"{pump.omega_c:.6e} rad/s"
        )
    om = np.asarray(omega, dtype=float)
    dw2 = om.reshape(-1) - pump.omega_c
    dw2 *= dw2
    wd = pump.omega_d
    # (dw^2)^m by repeated products: numpy's array pow is slow for exponents
    # above 2 and not bit-even in dw; products of dw2 are fast and exactly
    # even, so every model is exactly mirror-symmetric on a symmetric grid.
    # The sum starts at +0; a zero beta adds a +-0 term, which leaves it
    # unchanged, so it is skipped, and no power past the last nonzero beta is
    # formed (it could overflow).
    out = np.zeros_like(dw2)
    power = dw2
    last = max((m for m, beta in enumerate(model.beta_even, start=1) if beta != 0.0), default=0)
    for m, beta in enumerate(model.beta_even[:last], start=1):
        if m > 1:
            power = power * dw2
        if beta != 0.0:
            out += (power - wd ** (2 * m)) * (2.0 * beta / factorial(2 * m))
    out = out.reshape(om.shape)
    if np.isscalar(omega):
        return float(out)
    return out
