"""Independent computations the benchmark checks sfwm_sim's outputs against.

Nothing here calls into sfwm_sim: the gain formula, the Taylor series of the
phase mismatch, the quadrature, the CSV reader and the coincidence count are
written out again so that a fault in the package cannot hide in its own check.
"""

from __future__ import annotations

from math import factorial, pi
from pathlib import Path

import numpy as np

C_VACUUM = 299_792_458.0  # m/s, exact in SI


class CheckError(AssertionError):
    """An output of the program differs from its independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def omega_from_nm(wavelength_nm: float) -> float:
    return 2.0 * pi * C_VACUUM / (wavelength_nm * 1e-9)


def gain_spectrum(
    omegas: np.ndarray,
    omega_c: float,
    omega_d: float,
    gamma: float,
    powers_w: tuple[float, float],
    betas: tuple[float, ...],
    length_m: float,
    degenerate: bool,
) -> np.ndarray:
    """G = PT |sinh(g L)/g|^2 with g = sqrt(PT - (dk/2)^2) taken complex."""
    p1, p2 = powers_w
    if degenerate:
        power_term = (gamma * p1) ** 2
        dk_nl = 2.0 * gamma * p1
    else:
        power_term = 4.0 * gamma**2 * p1 * p2
        dk_nl = gamma * (p1 + p2)
    dw2 = (omegas - omega_c) ** 2
    dk = np.full_like(dw2, dk_nl)
    dw_power = np.ones_like(dw2)
    for m, beta in enumerate(betas, start=1):
        dw_power *= dw2
        dk += 2.0 * beta / factorial(2 * m) * (dw_power - omega_d ** (2 * m))
    g = np.sqrt((power_term - (0.5 * dk) ** 2).astype(complex))
    safe = np.where(g == 0, 1.0, g)
    ratio = np.where(g == 0, length_m, np.sinh(safe * length_m) / safe)
    return power_term * np.abs(ratio) ** 2


def band_integral_hz(omegas: np.ndarray, values: np.ndarray, lo: float, hi: float) -> float:
    """Trapezoid of a piecewise-linear sampled function over [lo, hi], per Hz."""
    inside = np.flatnonzero((omegas > lo) & (omegas < hi))
    first, last = inside[0], inside[-1]

    def at(x: float, i: int) -> float:
        # Linear interpolation between samples i and i + 1.
        t = (x - omegas[i]) / (omegas[i + 1] - omegas[i])
        return float(values[i] + t * (values[i + 1] - values[i]))

    xs = np.concatenate(([lo], omegas[inside], [hi]))
    ys = np.concatenate(([at(lo, first - 1)], values[inside], [at(hi, last)]))
    return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))) / (2.0 * pi)


def read_table(path: Path) -> np.ndarray:
    """Float rows of an emitted CSV table, without its comments and header."""
    rows, header = [], None
    with path.open() as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            if header is None:
                header = line
            elif line.strip():
                rows.append([float(cell) for cell in line.split(",")])
    require(header is not None, f"{path.name}: no header")
    return np.array(rows, dtype=float)


def count_coincidences(
    signal: np.ndarray, idler: np.ndarray, bin_width_s: float, window_s: float
) -> np.ndarray:
    """Histogram of idler - signal over [-window/2, window/2), counted per idler event."""
    half = 0.5 * window_s
    n_bins = int(round(window_s / bin_width_s))
    counts = np.zeros(n_bins, dtype=np.int64)
    lo = np.searchsorted(signal, idler - half, side="right")
    hi = np.searchsorted(signal, idler + half, side="right")
    # Coincidences are sparse, so walk the offsets one step at a time.
    step = 0
    while True:
        live = np.flatnonzero(lo + step < hi)
        if live.size == 0:
            return counts
        diffs = idler[live] - signal[lo[live] + step]
        bins = np.floor((diffs + half) / bin_width_s).astype(np.int64)
        keep = (bins >= 0) & (bins < n_bins)
        np.add.at(counts, bins[keep], 1)
        step += 1


def histogram_car(counts: np.ndarray, peak_bins: int = 5) -> tuple[float, float]:
    """CAR of a histogram (peak window mean over the rest) and its Poisson sigma."""
    center = counts.size // 2
    half = peak_bins // 2
    peak = counts[center - half : center + half + 1]
    rest = np.concatenate((counts[: center - half], counts[center + half + 1 :]))
    peak_total, rest_total = int(peak.sum()), int(rest.sum())
    car = (peak_total / peak.size) / (rest_total / rest.size)
    return car, car * (1.0 / peak_total + 1.0 / rest_total) ** 0.5
