"""Effective nonlinear coefficient from sampled waveguide mode fields.

The Kerr coefficient of a guided mode follows from an overlap of the full
vectorial mode profile with the nonlinear core region:

    gamma(omega) = (omega * n2 / c) * n0^2 * I4 / (Z0^2 * |Ip|^2)

    I4 = integral over the core of |E(x,y)|^4            [V^4/m^2]
    Ip = integral over the full cross-section of
         Re{ E(x,y) x H*(x,y) . e_z }                    [W]

Both integrals are evaluated by 2-D trapezoidal quadrature on the ingested
rectilinear grid, which may be non-uniform.  No mode solving happens here:
fields come from a mode-solver export (see ``read_mode_field_csv``), one file
per frequency.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import inf, isfinite
from pathlib import Path

import numpy as np

from .csvio import read_table
from .dispersion import C_VACUUM
from .errors import DataError, DomainError

# Free-space wave impedance sqrt(mu0/eps0), ohm.
Z0_OHM = 376.730313668


@dataclass(frozen=True)
class MaterialConstants:
    """Material constants entering the overlap quadrature.

    The defaults are silicon at 1550 nm: linear index and Kerr index (central
    value of the commonly quoted 3..6e-18 m^2/W band).
    """

    n0: float = 3.48
    n2_m2_per_w: float = 4.5e-18

    def __post_init__(self) -> None:
        for name in ("n0", "n2_m2_per_w"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True, eq=False)
class ModeFieldGrid:
    """Vector mode fields sampled on a rectilinear (x, y) grid.

    ``e_field`` and ``h_field`` hold complex samples shaped (nx, ny, 3) in
    V/m and A/m; ``core_mask`` marks grid points belonging to the nonlinear
    core.  Coordinates must be strictly increasing (spacing may vary).
    """

    x_coords: np.ndarray
    y_coords: np.ndarray
    e_field: np.ndarray
    h_field: np.ndarray
    core_mask: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        x = np.asarray(self.x_coords, dtype=float)
        y = np.asarray(self.y_coords, dtype=float)
        e = np.asarray(self.e_field, dtype=complex)
        h = np.asarray(self.h_field, dtype=complex)
        mask = np.asarray(self.core_mask, dtype=bool)
        if x.ndim != 1 or y.ndim != 1 or x.size < 2 or y.size < 2:
            raise DataError("x_coords and y_coords must be 1-D with >= 2 samples")
        if np.any(x[1:] <= x[:-1]) or np.any(y[1:] <= y[:-1]):  # np.diff may overflow
            raise DataError("grid coordinates must be strictly increasing")
        shape = (x.size, y.size, 3)
        if e.shape != shape or h.shape != shape:
            raise DataError(f"field arrays must have shape {shape}")
        if mask.shape != (x.size, y.size):
            raise DataError(f"core_mask must have shape {(x.size, y.size)}")
        for name, arr in (("x_coords", x), ("y_coords", y), ("e_field", e), ("h_field", h)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "core_mask", mask)

    def poynting_z(self) -> np.ndarray:
        """Re{E x H* . e_z} on the grid (W/m^2)."""
        ex, ey = self.e_field[..., 0], self.e_field[..., 1]
        hx, hy = self.h_field[..., 0], self.h_field[..., 1]
        return np.real(ex * np.conj(hy) - ey * np.conj(hx))


def _trapz2d(values: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.trapezoid(np.trapezoid(values, y, axis=1), x, axis=0))


def effective_gamma(
    grid: ModeFieldGrid, omega: float, constants: MaterialConstants = MaterialConstants()
) -> float:
    """Effective nonlinear coefficient gamma (1/(W m)) at angular frequency omega."""
    report = gamma_report(grid, omega, constants)
    return report["gamma_per_w_m"]


def gamma_report(
    grid: ModeFieldGrid, omega: float, constants: MaterialConstants = MaterialConstants()
) -> dict[str, float]:
    """Gamma plus its quadrature components, for itemized CLI output.

    Returns keys ``gamma_per_w_m``, ``core_quartic_integral`` (V^4/m^2) and
    ``poynting_integral_w`` (W).
    """
    if not omega > 0.0:
        raise DomainError(f"omega must be > 0, got {omega!r}")
    if not np.any(grid.core_mask):
        raise DataError("core_mask selects no grid points (empty core region)")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        e2 = np.sum(np.abs(grid.e_field) ** 2, axis=-1)
        quartic = np.where(grid.core_mask, e2 * e2, 0.0)
        i4 = _trapz2d(quartic, grid.x_coords, grid.y_coords)
        ip = _trapz2d(grid.poynting_z(), grid.x_coords, grid.y_coords)
    for name, integral in (("core |E|^4", i4), ("Poynting", ip)):
        if not isfinite(integral):
            raise DataError(
                f"the {name} integral of the mode fields overflows float64; "
                "rescale the field or coordinate columns"
            )
    if ip <= 0.0:
        raise DataError(
            f"mode carries no power in +z (Poynting integral {ip:.3e} W); "
            "degenerate or mis-oriented mode fields"
        )
    norm = Z0_OHM * Z0_OHM * ip * ip
    if not sys.float_info.min <= norm < inf:  # a subnormal keeps too few digits
        raise DataError(
            f"the squared Poynting integral ({ip:.3e} W)^2 is outside the normal float64 "
            "range; rescale the field or coordinate columns"
        )
    n0, n2 = constants.n0, constants.n2_m2_per_w
    try:
        gamma = (omega * n2 / C_VACUUM) * n0**2 * i4 / norm
    except OverflowError:  # n0 ** 2 past the float range
        gamma = inf
    if not isfinite(gamma):
        raise DomainError(f"gamma overflows float64 at n0 = {n0!r}, n2_m2_per_w = {n2!r}")
    return {
        "gamma_per_w_m": gamma,
        "core_quartic_integral": i4,
        "poynting_integral_w": ip,
    }


MODE_FIELD_COLUMNS = (
    "x_m", "y_m",
    "ex_re", "ex_im", "ey_re", "ey_im", "ez_re", "ez_im",
    "hx_re", "hx_im", "hy_re", "hy_im", "hz_re", "hz_im",
    "in_core",
)


def _grid_axes(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The x and y axes of rows that run over a full grid in row-major order, else None.

    Row-major: x is constant over each run of ``ny`` rows and increases from
    run to run, and y increases within each run, the same in all of them.
    """
    ny = int(np.argmax(xs != xs[0])) or xs.size  # the first row with another x
    x, y = xs[::ny], ys[:ny]
    if x.size * ny != xs.size or np.any(x[1:] <= x[:-1]) or np.any(y[1:] <= y[:-1]):
        return None
    shape = (x.size, ny)
    if not ((xs.reshape(shape) == x[:, None]).all() and (ys.reshape(shape) == y).all()):
        return None
    return x.copy(), y.copy()


def read_mode_field_csv(path: str | Path) -> ModeFieldGrid:
    """Read a mode-field export (one row per grid point, row-major, SI units).

    The file must carry the header ``x_m,y_m,ex_re,...,in_core`` and the rows
    must form a full rectilinear grid; anything else raises DataError.  Rows
    in another order are gathered into row-major order first.  Each field's
    columns are held only until its complex array is built.
    """
    path = Path(path)
    columns = read_table(path, MODE_FIELD_COLUMNS)
    if columns[0].size < 4:
        raise DataError(f"{path}: expected >= 4 complete rows")

    axes = _grid_axes(columns[0], columns[1])
    if axes is None:
        # Sort the rows by (x, y), gathering one column at a time.
        order = np.lexsort((columns[1], columns[0]))
        for k, column in enumerate(columns):
            columns[k] = column[order]
        del column, order
        axes = _grid_axes(columns[0], columns[1])
        if axes is None:
            raise DataError(f"{path}: grid points are not a full rectilinear product")
    x, y = axes
    columns[:2] = None, None

    def field(first: int) -> np.ndarray:
        """The (nx, ny, 3) field of the six columns from ``first``, which it drops."""
        out = np.empty((x.size * y.size, 3), dtype=complex)
        for k in range(3):
            re, im = columns[first + 2 * k : first + 2 * k + 2]
            columns[first + 2 * k : first + 2 * k + 2] = None, None
            np.multiply(im, 1j, out=out[:, k])  # re + 1j * im, without a temporary
            out[:, k] += re
        return out.reshape(x.size, y.size, 3)

    e = field(2)
    h = field(8)
    mask = columns[14].reshape(x.size, y.size) != 0.0
    return ModeFieldGrid(x, y, e, h, mask)
