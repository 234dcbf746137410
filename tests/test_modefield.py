import tracemalloc

import numpy as np
import pytest

from sfwm_sim import (
    DataError,
    MaterialConstants,
    ModeFieldGrid,
    angular_frequency_from_wavelength,
    effective_gamma,
    gamma_report,
)
from sfwm_sim.dispersion import C_VACUUM
from sfwm_sim.csvio import read_table, write_table
from sfwm_sim.modefield import MODE_FIELD_COLUMNS, Z0_OHM, read_mode_field_csv

from conftest import gaussian_mode, write_mode_field_csv

OMEGA = angular_frequency_from_wavelength(1552.5e-9)


def oracle_gamma(grid: ModeFieldGrid, omega: float, constants: MaterialConstants) -> float:
    """Cell-summed trapezoid quadrature, coded independently of the package."""

    def integrate(values: np.ndarray) -> float:
        total = 0.0
        x, y = grid.x_coords, grid.y_coords
        for i in range(x.size - 1):
            dx = x[i + 1] - x[i]
            for j in range(y.size - 1):
                dy = y[j + 1] - y[j]
                cell = values[i, j] + values[i + 1, j] + values[i, j + 1] + values[i + 1, j + 1]
                total += 0.25 * cell * dx * dy
        return total

    e2 = np.abs(grid.e_field[..., 0]) ** 2 + np.abs(grid.e_field[..., 1]) ** 2 + np.abs(
        grid.e_field[..., 2]
    ) ** 2
    quartic = np.where(grid.core_mask, e2 * e2, 0.0)
    poynting = np.real(
        grid.e_field[..., 0] * np.conj(grid.h_field[..., 1])
        - grid.e_field[..., 1] * np.conj(grid.h_field[..., 0])
    )
    i4 = integrate(quartic)
    ip = integrate(poynting)
    return (omega * constants.n2_m2_per_w / C_VACUUM) * constants.n0**2 * i4 / (
        Z0_OHM**2 * ip**2
    )


def test_gaussian_fixture_matches_fine_grid_oracle():
    constants = MaterialConstants()
    coarse = gaussian_mode(81)
    fine = gaussian_mode(801)
    got = effective_gamma(coarse, OMEGA, constants)
    want = oracle_gamma(fine, OMEGA, constants)
    assert got == pytest.approx(want, rel=1e-6)


def test_trapezoid_agrees_with_independent_coding_on_same_grid():
    constants = MaterialConstants()
    grid = gaussian_mode(41)
    assert effective_gamma(grid, OMEGA, constants) == pytest.approx(
        oracle_gamma(grid, OMEGA, constants), rel=1e-12
    )


def test_amplitude_scale_invariance():
    grid = gaussian_mode(61)
    scaled = ModeFieldGrid(
        grid.x_coords, grid.y_coords, grid.e_field * 7.5, grid.h_field * 7.5, grid.core_mask
    )
    g1 = effective_gamma(grid, OMEGA)
    g2 = effective_gamma(scaled, OMEGA)
    assert g2 == pytest.approx(g1, rel=1e-12)


def test_frequency_linearity():
    grid = gaussian_mode(61)
    assert effective_gamma(grid, 2.0 * OMEGA) == pytest.approx(
        2.0 * effective_gamma(grid, OMEGA), rel=1e-12
    )


def test_grid_refinement_stability():
    g_coarse = effective_gamma(gaussian_mode(41), OMEGA)
    g_fine = effective_gamma(gaussian_mode(81), OMEGA)
    assert abs(g_fine - g_coarse) / g_fine < 0.01


def test_nonuniform_grid_supported():
    base = gaussian_mode(201)
    # Resample on a stretched coordinate set (denser near the axis).
    u = np.linspace(-1.0, 1.0, 101)
    x = 5.0e-6 * np.sign(u) * u**2
    x = np.unique(x)
    gx = np.exp(-(x**2) / (2.0 * 1.0e-6**2))
    g = np.outer(gx, gx)
    zeros = np.zeros_like(g, dtype=complex)
    e = np.stack([1e7 * g.astype(complex), zeros, zeros], axis=-1)
    h = np.stack([zeros, 1e7 * g.astype(complex) / Z0_OHM, zeros], axis=-1)
    core = (np.abs(x)[:, None] <= 2e-6) & (np.abs(x)[None, :] <= 2e-6)
    grid = ModeFieldGrid(x, x, e, h, core)
    # Same mode, different sampling: values must agree at the percent level.
    assert effective_gamma(grid, OMEGA) == pytest.approx(
        effective_gamma(base, OMEGA), rel=0.02
    )


def test_confined_mode_gives_plausible_silicon_gamma():
    # ~1 um^2-class effective area at full silicon confinement lands gamma in
    # the tens-to-hundreds per (W m); a coarse sanity band, not a benchmark.
    grid = gaussian_mode(81, waist_m=0.4e-6)
    gamma = effective_gamma(grid, OMEGA)
    assert 10.0 < gamma < 2000.0


def test_empty_core_rejected():
    grid = gaussian_mode(21)
    with pytest.raises(DataError):
        effective_gamma(
            ModeFieldGrid(
                grid.x_coords,
                grid.y_coords,
                grid.e_field,
                grid.h_field,
                np.zeros_like(grid.core_mask),
            ),
            OMEGA,
        )


def test_counter_propagating_mode_rejected():
    grid = gaussian_mode(21)
    with pytest.raises(DataError):
        effective_gamma(
            ModeFieldGrid(
                grid.x_coords, grid.y_coords, grid.e_field, -grid.h_field, grid.core_mask
            ),
            OMEGA,
        )


@pytest.mark.parametrize(
    "fields, x_scale, integral",
    [(1e200, 1.0, "core |E|^4"), (1.0, 1e305, "core |E|^4"), (1e-100, 1.0, "squared Poynting")],
    ids=["field-overflow", "coordinate-overflow", "poynting-underflow"],
)
def test_quadrature_out_of_float64_range_names_the_integral(fields, x_scale, integral):
    # Scaled fields or coordinates push a quadrature past float64, which
    # printed a numpy overflow warning and then blamed n0 and n2.
    grid = gaussian_mode(21)
    scaled = ModeFieldGrid(
        grid.x_coords * x_scale,
        grid.y_coords,
        grid.e_field * fields,
        grid.h_field * fields,
        grid.core_mask,
    )
    with pytest.raises(DataError, match=rf"^the {integral} integral .* float64"):
        gamma_report(scaled, OMEGA)


def test_coordinates_spanning_the_float64_range_are_checked_without_overflow():
    # Two finite coordinates whose difference overflows: the order check
    # compares them, and the quadrature names the overflow.
    huge = np.finfo(np.float64).max
    ones = np.ones((2, 2))
    zeros = np.zeros((2, 2))
    e = np.stack([ones, zeros, zeros], axis=-1)
    h = np.stack([zeros, ones / Z0_OHM, zeros], axis=-1)
    grid = ModeFieldGrid(np.array([-huge, huge]), np.array([0.0, 1e-6]), e, h, ones)
    with pytest.raises(DataError, match="overflows float64"):
        gamma_report(grid, OMEGA)


def test_report_components_consistent():
    grid = gaussian_mode(41)
    constants = MaterialConstants()
    report = gamma_report(grid, OMEGA, constants)
    recon = (
        (OMEGA * constants.n2_m2_per_w / C_VACUUM)
        * constants.n0**2
        * report["core_quartic_integral"]
        / (Z0_OHM**2 * report["poynting_integral_w"] ** 2)
    )
    assert report["gamma_per_w_m"] == pytest.approx(recon, rel=1e-12)


class TestCsvRoundTrip:
    def test_round_trip_preserves_gamma(self, tmp_path):
        grid = gaussian_mode(31)
        path = tmp_path / "mode.csv"
        write_mode_field_csv(path, grid)
        back = read_mode_field_csv(path)
        assert effective_gamma(back, OMEGA) == pytest.approx(
            effective_gamma(grid, OMEGA), rel=0, abs=0
        )

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_m,y_m,ex_re\n0,0,1\n")
        with pytest.raises(DataError):
            read_mode_field_csv(path)

    def test_incomplete_grid_rejected(self, tmp_path):
        grid = gaussian_mode(5)
        path = tmp_path / "mode.csv"
        write_mode_field_csv(path, grid)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one grid point
        with pytest.raises(DataError):
            read_mode_field_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        grid = gaussian_mode(5)
        path = tmp_path / "mode.csv"
        write_mode_field_csv(path, grid)
        text = path.read_text().splitlines()
        cells = text[3].split(",")
        cells[2] = "not-a-number"
        text[3] = ",".join(cells)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataError):
            read_mode_field_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cell_rejected_with_line(self, tmp_path, value):
        grid = gaussian_mode(5)
        path = tmp_path / "mode.csv"
        write_mode_field_csv(path, grid)
        text = path.read_text().splitlines()
        cells = text[3].split(",")
        cells[2] = value
        text[3] = ",".join(cells)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataError, match=rf"mode\.csv:4: ex_re cell '{value}' is not finite"):
            read_mode_field_csv(path)

    def test_rows_in_any_order_read_as_the_row_major_grid(self, tmp_path):
        grid = gaussian_mode(7)
        path = tmp_path / "mode.csv"
        write_mode_field_csv(path, grid)
        want = read_mode_field_csv(path)
        columns = read_table(path, MODE_FIELD_COLUMNS)
        order = np.random.default_rng(4).permutation(columns[0].size)
        write_table(path, MODE_FIELD_COLUMNS, [column[order] for column in columns])
        got = read_mode_field_csv(path)
        for name in ("x_coords", "y_coords", "e_field", "h_field", "core_mask"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)

    def test_reading_holds_each_value_about_once(self, tmp_path):
        path = tmp_path / "mode.csv"
        write_mode_field_csv(path, gaussian_mode(201))
        tracemalloc.start()
        try:
            grid = read_mode_field_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = len(MODE_FIELD_COLUMNS) * 8 * grid.core_mask.size
        # The columns as read and one field built from them (1.3 times the
        # columns here), not a stacked and a sorted copy of them (2.6).
        assert peak <= 1.5 * columns, (peak, columns)
