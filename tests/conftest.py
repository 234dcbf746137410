import numpy as np
import pytest

from sfwm_sim import DispersionModel, ModeFieldGrid, PumpConfig, WaveguideSpec
from sfwm_sim.csvio import write_table
from sfwm_sim.modefield import MODE_FIELD_COLUMNS, Z0_OHM


def gaussian_mode(n_points: int, waist_m: float = 1.0e-6, span_waists: float = 5.0,
                  amplitude_v_per_m: float = 1.0e7) -> ModeFieldGrid:
    """Separable Gaussian test mode: E = (E0 g, 0, 0), H = (0, E0 g / Z0, 0).

    The profile decays to ~e^-12.5 at the grid edge, so trapezoid quadrature
    converges superalgebraically and fine/coarse grids agree far below 1e-6.
    """
    half = span_waists * waist_m
    x = np.linspace(-half, half, n_points)
    y = np.linspace(-half, half, n_points)
    gx = np.exp(-(x**2) / (2.0 * waist_m**2))
    gy = np.exp(-(y**2) / (2.0 * waist_m**2))
    g = np.outer(gx, gy)
    zeros = np.zeros_like(g, dtype=complex)
    e = np.stack([amplitude_v_per_m * g.astype(complex), zeros, zeros], axis=-1)
    h = np.stack([zeros, amplitude_v_per_m * g.astype(complex) / Z0_OHM, zeros], axis=-1)
    # Core edge sits where |E|^4 ~ e^-32: the masked integrand stays smooth,
    # so coarse and fine grids agree far below the 1e-6 oracle tolerance.
    core = (np.abs(x)[:, None] <= 4.0 * waist_m) & (np.abs(y)[None, :] <= 4.0 * waist_m)
    return ModeFieldGrid(x, y, e, h, core)


def write_mode_field_csv(path, grid: ModeFieldGrid) -> None:
    """Write a grid in the mode-field ingestion format (row-major), as a mode solver would."""
    nx, ny = grid.core_mask.shape
    components = [
        part
        for vec in (grid.e_field, grid.h_field)
        for k in range(3)
        for part in (vec[..., k].real.ravel(), vec[..., k].imag.ravel())
    ]
    write_table(
        path,
        MODE_FIELD_COLUMNS,
        (
            np.repeat(grid.x_coords, ny),
            np.tile(grid.y_coords, nx),
            *components,
            grid.core_mask.ravel().astype(int),
        ),
    )


@pytest.fixture
def pump_1552():
    from sfwm_sim import angular_frequency_from_wavelength

    return PumpConfig.degenerate(angular_frequency_from_wavelength(1552.5e-9), 1.0)


@pytest.fixture
def strip_5mm(pump_1552):
    model = DispersionModel(pump_1552.omega_c, (-3.0e-26, 0.0))
    return WaveguideSpec("strip", 5.0e-3, 223.3, model)
