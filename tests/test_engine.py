import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfwm_sim import (
    BiphotonSpectrum,
    ConfigError,
    DispersionModel,
    DomainError,
    PumpConfig,
    SpectralGrid,
    WaveguideSpec,
    angular_frequency_from_wavelength,
    band_flux,
    bandwidth_3db_hz,
    biphoton_spectrum,
    detuning_band_to_omega,
    gain_from_mismatch,
    linear_mismatch,
    nonlinear_mismatch,
    parametric_gain,
    total_mismatch,
)
from sfwm_sim.csvio import SPECTRUM_HEADER, read_table, write_spectrum_csv
from sfwm_sim.presets import preset_waveguide

OMEGA_P = angular_frequency_from_wavelength(1552.5e-9)


def make_spec(beta2, gamma=223.3, length=5e-3, beta4=0.0, omega_c=OMEGA_P, **kw):
    return WaveguideSpec(
        "custom", length, gamma, DispersionModel(omega_c, (beta2, beta4)), **kw
    )


class TestNonlinearMismatch:
    def test_degenerate_paper_gamma(self):
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        assert nonlinear_mismatch(223.3, pump) == pytest.approx(446.6, rel=1e-12)

    def test_non_degenerate_sum_of_powers(self):
        pump = PumpConfig.non_degenerate(OMEGA_P * 1.01, OMEGA_P * 0.99, 0.01, 0.01)
        assert nonlinear_mismatch(223.3, pump) == pytest.approx(4.466, rel=1e-12)

    def test_zero_power(self):
        pump = PumpConfig.degenerate(OMEGA_P, 0.0)
        assert nonlinear_mismatch(223.3, pump) == 0.0

    @pytest.mark.parametrize("kernel", ["nonlinear", "total"])
    def test_past_float64_raises(self, kernel):
        # gamma*(P1 + P2) = 2e310: float * would return inf without a warning.
        pump = PumpConfig.degenerate(OMEGA_P, 1e10)
        message = r"dk_NL = gamma\*\(P1 \+ P2\) overflows float64 at gamma = 1e\+300 /\(W m\)"
        with pytest.raises(DomainError, match=message):
            if kernel == "nonlinear":
                nonlinear_mismatch(1e300, pump)
            else:
                total_mismatch(make_spec(-3e-26, gamma=1e300), pump, np.array([OMEGA_P]))


class TestParametricGain:
    def test_degenerate_perfect_matching(self):
        # beta2 < 0 cancels dk_NL = 2 gamma P at a specific detuning, where
        # q = gamma P and G = sinh^2(gamma P L).
        beta2 = -1.0e-24
        spec = make_spec(beta2)
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        detuning = math.sqrt(2.0 * 223.3 * 1.0 / abs(beta2))
        gain = parametric_gain(spec, pump, OMEGA_P + detuning)
        assert gain == pytest.approx(1.8587534743100014, rel=1e-9)  # sinh^2(1.1165)

    def test_non_degenerate_perfect_matching(self):
        beta2 = -1.0e-24
        pump = PumpConfig.non_degenerate(OMEGA_P + 2e13, OMEGA_P - 2e13, 0.01, 0.01)
        spec = make_spec(beta2, omega_c=pump.omega_c)
        # dk_L = -gamma (P1+P2) at beta2*((dw)^2 - wd^2) = -4.466
        dw = math.sqrt(pump.omega_d**2 + 4.466 / abs(beta2))
        gain = parametric_gain(spec, pump, pump.omega_c + dw)
        # sinh^2(2 gamma sqrt(P1 P2) L) = sinh^2(0.02233)
        assert gain == pytest.approx(4.987117824368123e-4, rel=1e-9)

    def test_zero_pump_power_kills_gain(self):
        pump = PumpConfig.non_degenerate(OMEGA_P + 2e13, OMEGA_P - 2e13, 0.0, 0.01)
        spec = make_spec(1e-24, omega_c=pump.omega_c)
        omegas = pump.omega_c + np.linspace(-3e13, 3e13, 11)
        np.testing.assert_array_equal(parametric_gain(spec, pump, omegas), 0.0)

    def test_non_negative_everywhere(self):
        pump = PumpConfig.degenerate(OMEGA_P, 0.7)
        spec = make_spec(8e-25, beta4=3e-49, gamma=93.5, length=0.015)
        omegas = OMEGA_P + np.linspace(-4e13, 4e13, 4001)
        assert np.all(parametric_gain(spec, pump, omegas) >= 0.0)

    def test_continuity_across_branch_boundary(self):
        # At zero detuning q^2 = 0 exactly (degenerate); approach from both
        # sides via tiny detunings.
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        spec = make_spec(-1e-24)
        g0 = parametric_gain(spec, pump, OMEGA_P)
        expected = (223.3 * 1.0 * spec.length_m) ** 2
        assert g0 == pytest.approx(expected, rel=1e-12)
        for eps in (1e3, 1e5, 1e7):
            up = parametric_gain(spec, pump, OMEGA_P + eps)
            down = parametric_gain(spec, pump, OMEGA_P - eps)
            assert up == pytest.approx(expected, rel=1e-9)
            assert down == pytest.approx(expected, rel=1e-9)

    def test_small_gain_sinc_limit(self):
        # gamma P L = 1e-4; G -> PT L^2 sinc^2(dk L / 2) to 1e-6 relative.
        gamma, power, length = 1e-4, 1.0, 1.0
        spec = make_spec(1e-24, gamma=gamma, length=length)
        pump = PumpConfig.degenerate(OMEGA_P, power)
        omegas = OMEGA_P + np.linspace(1e12, 4e13, 37)
        gain = parametric_gain(spec, pump, omegas)
        dk = total_mismatch(spec, pump, omegas)
        power_term = (gamma * power) ** 2
        arg = dk * length / 2.0
        sinc2 = np.where(arg == 0.0, 1.0, np.sin(arg) ** 2 / arg**2)
        np.testing.assert_allclose(gain, power_term * length**2 * sinc2, rtol=1e-6)

    def test_quadratic_pump_scaling_at_zero_detuning(self):
        gamma, length = 1.0, 1e-3  # gamma P L = 1e-3 at P = 1
        spec = make_spec(1e-24, gamma=gamma, length=length)
        g1 = parametric_gain(spec, PumpConfig.degenerate(OMEGA_P, 1.0), OMEGA_P)
        g2 = parametric_gain(spec, PumpConfig.degenerate(OMEGA_P, 2.0), OMEGA_P)
        assert abs(g2 / g1 - 4.0) < 1e-4

    def test_quadratic_pump_scaling_at_matched_detuning(self):
        gamma, length = 1.0, 1e-3
        beta2 = -1e-24
        spec = make_spec(beta2, gamma=gamma, length=length)
        detuning = math.sqrt(2.0 * gamma * 1.0 / abs(beta2))
        omega = OMEGA_P + detuning
        g1 = parametric_gain(spec, PumpConfig.degenerate(OMEGA_P, 1.0), omega)
        g2 = parametric_gain(spec, PumpConfig.degenerate(OMEGA_P, 2.0), omega)
        assert abs(g2 / g1 - 4.0) < 1e-4

    def test_oscillation_bound_in_mismatched_regime(self):
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        spec = make_spec(8e-25, gamma=93.5, length=0.015)
        omegas = OMEGA_P + np.linspace(5e12, 5e13, 2000)
        gain = parametric_gain(spec, pump, omegas)
        bound = (93.5 * 1.0) ** 2 * spec.length_m**2
        assert np.all(gain <= bound * (1 + 1e-12))

    def test_rejects_nonpositive_frequency(self):
        spec = make_spec(1e-24)
        with pytest.raises(DomainError):
            parametric_gain(spec, PumpConfig.degenerate(OMEGA_P, 1.0), -1.0)

    @pytest.mark.parametrize("omega", [math.nan, np.array([OMEGA_P, math.nan])])
    def test_rejects_nan_frequency(self, omega):
        # NaN compares false with everything, so a test for "omega <= 0" lets it through.
        spec = WaveguideSpec("strip", 5e-3, 223.3, DispersionModel(OMEGA_P, (-3e-26, 0.0)))
        with pytest.raises(DomainError, match="omega must be > 0"):
            parametric_gain(spec, PumpConfig.degenerate(OMEGA_P, 0.5), omega)

    @pytest.mark.parametrize(
        "power_term, delta_k, length",
        [
            (563499.0656020459, -1946.4370751808608, 0.018045879125137217),  # sin branch
            (443082.1760248511, 1319.3665014123817, 0.009353257437847911),  # sinh branch
        ],
    )
    def test_scalar_gain_is_the_array_sample(self, power_term, delta_k, length):
        scalar = gain_from_mismatch(power_term, delta_k, length)
        assert scalar == gain_from_mismatch(power_term, np.array([delta_k]), length)[0]


class TestSpectrum:
    def test_even_symmetry_on_symmetric_grid(self):
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        spec = make_spec(-3e-26)
        grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 10e12, 4096)
        flux = biphoton_spectrum(spec, pump, grid).flux_density
        np.testing.assert_allclose(flux, flux[::-1], rtol=1e-12)

    def test_attenuation_reduces_flux_and_preserves_shape(self):
        pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        lossless = make_spec(-3e-26)
        lossy = make_spec(-3e-26, attenuation_db_per_cm=3.0)
        grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 5e12, 512)
        f0 = biphoton_spectrum(lossless, pump, grid).flux_density
        f1 = biphoton_spectrum(lossy, pump, grid).flux_density
        assert np.all(f1 < f0)
        # loss factor alone (flux side) is 10^(-total_db/20)
        total_db = 3.0 * 0.5  # 3 dB/cm * 0.5 cm
        assert np.all(f1 / f0 < 10 ** (-total_db / 20.0) + 1e-12)

    def test_effective_length_limits(self):
        spec = make_spec(1e-24, attenuation_db_per_cm=10.0, length=0.015)
        alpha = spec.attenuation_per_m
        expected = (1.0 - math.exp(-alpha * 0.015)) / alpha
        assert spec.effective_length_m == pytest.approx(expected, rel=1e-12)
        assert make_spec(1e-24).effective_length_m == pytest.approx(5e-3)

    def test_flux_nonnegativity_enforced(self):
        grid = SpectralGrid.symmetric(OMEGA_P, 1e13, 8)
        with pytest.raises(DomainError):
            BiphotonSpectrum(grid, np.full(8, -1.0))


class TestBandFlux:
    def _flat(self, value=2.5, n=1001):
        grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 5e12, n)
        return BiphotonSpectrum(grid, np.full(n, value))

    def test_flat_spectrum_rectangle(self):
        g0 = 2.5
        spectrum = self._flat(g0)
        width_hz = 0.8e12
        band = (OMEGA_P - math.pi * width_hz, OMEGA_P + math.pi * width_hz)
        assert band_flux(spectrum, band) == pytest.approx(g0 * width_hz, rel=1e-9)

    def test_band_outside_grid_rejected(self):
        spectrum = self._flat()
        with pytest.raises(DomainError):
            band_flux(spectrum, (OMEGA_P, OMEGA_P + 1e15))

    def test_oversampled_oracle_agreement(self):
        # Non-degenerate strip spectrum integrated over an ITU-style band.
        pump = PumpConfig.non_degenerate(
            angular_frequency_from_wavelength(1528e-9),
            angular_frequency_from_wavelength(1582e-9),
            0.01,
            0.01,
        )
        spec = make_spec(-3e-26, omega_c=pump.omega_c)
        wc = pump.omega_c
        coarse = biphoton_spectrum(
            spec, pump, SpectralGrid.symmetric(wc, 2 * math.pi * 5e12, 8192)
        )
        fine = biphoton_spectrum(
            spec, pump, SpectralGrid.symmetric(wc, 2 * math.pi * 5e12, 81920)
        )
        lo = angular_frequency_from_wavelength(1553.535e-9)  # C30-ish band
        hi = angular_frequency_from_wavelength(1553.065e-9)
        assert band_flux(coarse, (lo, hi)) == pytest.approx(
            band_flux(fine, (lo, hi)), rel=1e-6
        )


    def test_reads_only_the_band(self):
        # np.interp copies a read-only array it is given (the grid, 512 KiB
        # here); an 82-sample band must cost about what its samples do.
        grid = SpectralGrid.symmetric(OMEGA_P, math.pi * 80e12, 65_536)
        spectrum = BiphotonSpectrum(grid, np.ones(65_536))
        band = detuning_band_to_omega(OMEGA_P, (2.5e12, 2.6e12))
        assert grid.omegas.size == 65_536  # built before tracing starts
        tracemalloc.start()
        try:
            flux = band_flux(spectrum, band)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flux == pytest.approx(0.1e12, rel=1e-9)
        assert peak < 64 * 1024


def test_bandwidth_requires_signal():
    grid = SpectralGrid.symmetric(OMEGA_P, 1e13, 8)
    with pytest.raises(DomainError):
        bandwidth_3db_hz(BiphotonSpectrum(grid, np.zeros(8)))


def _mask_accepts(flux: np.ndarray) -> bool:
    """The earlier flux check, two full boolean passes."""
    return not (np.any(flux < 0.0) or not np.all(np.isfinite(flux)))


def _nonzero_bandwidth_hz(spectrum: BiphotonSpectrum) -> float:
    """The earlier bandwidth, from the indices of every sample above half the peak."""
    flux = spectrum.flux_density
    above = np.nonzero(flux >= 0.5 * float(flux.max()))[0]
    omegas = spectrum.grid.omegas
    return float(omegas[above[-1]] - omegas[above[0]]) / (2.0 * np.pi)


FLUX_CELLS = st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 2.0]))


@settings(max_examples=300, deadline=None)
@given(
    flux=st.integers(2, 40).flatmap(lambda n: arrays(np.float64, n, elements=FLUX_CELLS)),
    poison=st.one_of(st.none(), st.tuples(st.integers(0, 39), st.floats())),
)
@example(flux=np.array([1.0, 1.0]), poison=(0, -0.0))
@example(flux=np.array([1.0, 1.0]), poison=(0, math.nan))
@example(flux=np.array([1.0, 1.0]), poison=(1, math.inf))
@example(flux=np.array([1.0, 1.0]), poison=(0, -math.inf))
@example(flux=np.array([1.0, 1.0]), poison=(1, -5e-324))
def test_flux_check_and_bandwidth_match_the_mask_versions(flux, poison):
    if poison is not None:  # one cell that may be NaN, infinite or negative
        flux[poison[0] % len(flux)] = poison[1]
    grid = SpectralGrid.symmetric(OMEGA_P, 1e13, len(flux))
    try:
        spectrum = BiphotonSpectrum(grid, flux)
    except DomainError:
        assert not _mask_accepts(flux)
        return
    assert _mask_accepts(flux)
    if flux.max() > 0.0:
        assert bandwidth_3db_hz(spectrum).hex() == _nonzero_bandwidth_hz(spectrum).hex()


def test_waveguide_validation():
    model = DispersionModel(OMEGA_P, (1e-24,))
    with pytest.raises(DomainError):
        WaveguideSpec("strip", 0.0, 1.0, model)
    with pytest.raises(DomainError):
        WaveguideSpec("strip", 1.0, -1.0, model)
    with pytest.raises(Exception):
        WaveguideSpec("nonsense", 1.0, 1.0, model)


def test_waveguide_kind_group_index_and_loss():
    model = DispersionModel(OMEGA_P, (1e-24,))
    spec = WaveguideSpec("custom", 0.02, 1.0, model, 2.0)
    assert (spec.n_eff, spec.loss_db) == (2.5, 2.0 * 0.02 * 100.0)
    assert preset_waveguide("shallow_ridge", 0.02).n_eff == 2.6
    with pytest.raises(ConfigError, match=r"^n_eff must be > 0, got 0\.0$"):
        WaveguideSpec("custom", 0.02, 1.0, model, n_eff=0.0)
    # The accepted kinds are 'custom' and the keys of the shipped preset table.
    with pytest.raises(ConfigError, match=r"the kinds are \('custom', 'strip', 'shallow_ridge'\)"):
        WaveguideSpec("shallow-ridge", 0.02, 1.0, model)


BETA2 = st.floats(-1e-24, 1e-24)
BETA4 = st.floats(-1e-47, 1e-47)
BETA6 = st.floats(-1e-70, 1e-70)
HALF_SPAN_THZ = st.floats(0.5, 100.0)
N_POINTS = st.integers(2, 4097)


def _reference_mismatch(betas, omegas, omega_c, omega_d):
    """The even-order series per sample in scalar floats, with a bound on its rounding.

    The bound is 1e-13 of the summed term magnitudes, so cancelling terms
    (near a zero of dk_L) do not make the comparison meaningless.
    """
    values, bounds = [], []
    for omega in omegas.tolist():
        dw = omega - omega_c
        terms = [
            2.0 * b / math.factorial(2 * m) * (dw ** (2 * m) - omega_d ** (2 * m))
            for m, b in enumerate(betas, start=1)
        ]
        values.append(math.fsum(terms))
        bounds.append(
            1e-13
            * sum(
                2.0 * abs(b) / math.factorial(2 * m) * (dw ** (2 * m) + omega_d ** (2 * m))
                for m, b in enumerate(betas, start=1)
            )
        )
    return np.array(values), np.array(bounds)


class TestKernelMirrorAndOracle:
    @settings(max_examples=60, deadline=None)
    @given(BETA2, BETA4, BETA6, HALF_SPAN_THZ, N_POINTS,
           st.floats(0.0, 2.0), st.floats(1e-3, 20e-3), st.sampled_from([0.0, 1e13]))
    @example(5e-25, 2e-48, 0.0, 40.0, 65_536, 0.5, 5e-3, 0.0)  # the shallow-ridge preset
    @example(-3e-26, 0.0, 0.0, 40.0, 65_535, 1.0, 5e-3, 0.0)  # the strip preset
    @example(5e-25, 2e-48, 0.0, 40.0, 65_535, 0.02, 5e-3, 1e13)
    def test_degenerate_spectrum_is_exactly_mirrored(
        self, beta2, beta4, beta6, half_span_thz, n_points, power, length, omega_d
    ):
        # The mismatch CSV is total_mismatch on the full grid, so its column
        # mirrors as exactly as the spectrum, for either pump mode.
        if omega_d == 0.0:
            pump = PumpConfig.degenerate(OMEGA_P, power)
        else:
            pump = PumpConfig.non_degenerate(OMEGA_P + omega_d, OMEGA_P - omega_d, power, power)
        model = DispersionModel(pump.omega_c, (beta2, beta4, beta6))
        grid = SpectralGrid.symmetric(pump.omega_c, 2 * math.pi * half_span_thz * 1e12, n_points)
        dk = linear_mismatch(model, grid.omegas, pump)
        assert dk.tobytes() == dk[::-1].tobytes()
        spec = WaveguideSpec("custom", length, 93.5, model)
        total = total_mismatch(spec, pump, grid.omegas)
        assert total.tobytes() == total[::-1].tobytes()
        flux = biphoton_spectrum(spec, pump, grid).flux_density
        assert flux.tobytes() == flux[::-1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(BETA2, BETA4, BETA6, HALF_SPAN_THZ, st.integers(2, 257),
           st.sampled_from([0.0, 1e13, 5e13, 1.2e14]))
    def test_linear_mismatch_matches_scalar_series(
        self, beta2, beta4, beta6, half_span_thz, n_points, omega_d
    ):
        if omega_d == 0.0:
            pump = PumpConfig.degenerate(OMEGA_P, 1.0)
        else:
            pump = PumpConfig.non_degenerate(OMEGA_P + omega_d, OMEGA_P - omega_d, 0.01, 0.01)
        betas = (beta2, beta4, beta6)
        model = DispersionModel(pump.omega_c, betas)
        grid = SpectralGrid.symmetric(pump.omega_c, 2 * math.pi * half_span_thz * 1e12, n_points)
        got = linear_mismatch(model, grid.omegas, pump)
        want, bound = _reference_mismatch(betas, grid.omegas, pump.omega_c, pump.omega_d)
        assert np.all(np.abs(got - want) <= bound)
        scalar = linear_mismatch(model, float(grid.omegas[-1]), pump)
        assert isinstance(scalar, float) and scalar == got[-1]

    @settings(max_examples=60, deadline=None)
    @given(st.floats(4e14, 3e15), st.floats(1.0, 50.0), st.integers(2, 4097))
    @example(OMEGA_P, 10.0, 4096)
    @example(OMEGA_P, 10.0, 4097)
    def test_symmetric_grid_mirrors_and_round_trips(self, center, half_span_thz, n_points):
        half_span = 2 * math.pi * half_span_thz * 1e12
        grid = SpectralGrid.symmetric(center, half_span, n_points)
        omegas = grid.omegas
        assert omegas.size == n_points
        assert np.all(omegas + omegas[::-1] == 2.0 * center)
        assert (grid.omega_min, grid.omega_max) == (center - half_span, center + half_span)
        pump = PumpConfig.degenerate(center, 1.0)
        spectrum = biphoton_spectrum(make_spec(-3e-26, omega_c=center), pump, grid)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spectrum.csv"
            write_spectrum_csv(path, spectrum, "0" * 64)
            read_omegas, _, read_flux = read_table(path, SPECTRUM_HEADER)
        assert read_omegas.tobytes() == omegas.tobytes()
        assert read_flux.tobytes() == spectrum.flux_density.tobytes()

    @pytest.mark.parametrize(
        "grid",
        [SpectralGrid.symmetric(OMEGA_P, 1e13, 17), SpectralGrid.symmetric(OMEGA_P, 5e12, 16)],
    )
    def test_omegas_built_once_and_read_only(self, grid):
        assert grid.omegas is grid.omegas
        with pytest.raises(ValueError):
            grid.omegas[0] = 1.0
        assert grid == dataclasses.replace(grid)
        assert hash(grid) == hash(dataclasses.replace(grid))
        assert "omegas" not in repr(grid)
        finer = dataclasses.replace(grid, n_points=33)
        assert finer.omegas.size == 33 and finer.omegas is not grid.omegas


class TestMirrorPath:
    """On a grid centred on the pump average each mirror pair is evaluated once;
    the spectrum must still be the sample-by-sample gain, bit for bit."""

    @staticmethod
    def _sample_by_sample(spec, pump, grid):
        # The path-averaged pump and half the propagation loss in dB (module docstring).
        path_avg = spec.effective_length_m / spec.length_m
        lossy = pump.with_powers(pump.power1_w * path_avg, pump.power2_w * path_avg)
        gain = parametric_gain(spec, lossy, grid.omegas)
        if spec.attenuation_db_per_cm > 0.0:
            total_db = spec.attenuation_db_per_cm * spec.length_m * 100.0
            gain = gain * 10.0 ** (-total_db / 20.0)
        return gain

    @settings(max_examples=120, deadline=None)
    @given(
        n_points=N_POINTS,
        omega_d=st.sampled_from([0.0, 1e13, 1.2e14]),
        beta2=BETA2,
        beta4=st.one_of(st.just(0.0), BETA4),
        attenuation=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
        half_span_thz=HALF_SPAN_THZ,
        power=st.floats(0.0, 2.0),
        length=st.floats(1e-3, 20e-3),
        centre_offset=st.sampled_from([0.0, 0.0, 0.0, 2.5e-5, -1e-4]),
    )
    @example(65_536, 0.0, -3e-26, 0.0, 0.0, 40.0, 1.0, 5e-3, 0.0)  # the strip preset
    @example(65_535, 0.0, 5e-25, 2e-48, 0.0, 40.0, 0.5, 5e-3, 0.0)  # the shallow-ridge preset
    @example(2, 1e13, -3e-26, 0.0, 2.0, 8.0, 0.02, 3e-3, 0.0)
    @example(3, 0.0, -3e-26, 1e-48, 2.0, 8.0, 1.0, 3e-3, 0.0)
    @example(4097, 1.2e14, 5e-25, 2e-48, 0.0, 40.0, 0.02, 8e-3, 2.5e-5)
    def test_spectrum_is_the_sample_by_sample_gain(
        self, n_points, omega_d, beta2, beta4, attenuation, half_span_thz, power, length,
        centre_offset,
    ):
        if omega_d == 0.0:
            pump = PumpConfig.degenerate(OMEGA_P, power)
        else:
            pump = PumpConfig.non_degenerate(OMEGA_P + omega_d, OMEGA_P - omega_d, power, power)
        spec = WaveguideSpec(
            "custom", length, 223.3, DispersionModel(pump.omega_c, (beta2, beta4)), attenuation
        )
        centre = pump.omega_c * (1.0 + centre_offset)
        grid = SpectralGrid.symmetric(centre, 2 * math.pi * half_span_thz * 1e12, n_points)
        assert (grid.center == pump.omega_c) == (centre_offset == 0.0)
        flux = biphoton_spectrum(spec, pump, grid).flux_density
        assert flux.tobytes() == self._sample_by_sample(spec, pump, grid).tobytes()


@pytest.mark.filterwarnings("error")
def test_sinh_overflow_named_before_evaluation():
    # 20 W into a 200 mm strip on a +-100 THz grid: q*L peaks at gamma*P*L = 893.
    pump = PumpConfig.degenerate(OMEGA_P, 20.0)
    spec = WaveguideSpec("strip", 0.2, 223.3, DispersionModel(OMEGA_P, (-3e-26, 0.0)))
    grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 100e12, 4096)
    with pytest.raises(DomainError) as info:
        biphoton_spectrum(spec, pump, grid)
    message = str(info.value)
    for part in ("strip", "200 mm", "gamma*P = 4466 /m", "q*L = 893.2", "undepleted-pump"):
        assert part in message


@pytest.mark.filterwarnings("error")
def test_sinh_squared_overflow_named():
    # q*L = 446.6 keeps sinh finite but overflows its square in the gain.
    pump = PumpConfig.non_degenerate(OMEGA_P + 1e13, OMEGA_P - 1e13, 10.0, 10.0)
    spec = WaveguideSpec("shallow_ridge", 0.1, 223.3, DispersionModel(pump.omega_c, (-3e-26,)))
    grid = SpectralGrid.symmetric(pump.omega_c, 2 * math.pi * 100e12, 4096)
    with pytest.raises(DomainError, match=r"shallow_ridge .*2\*gamma\*sqrt\(P1\*P2\) = 4466 /m"):
        parametric_gain(spec, pump, grid.omegas)


def test_largest_finite_gain_still_evaluates():
    pump = PumpConfig.degenerate(OMEGA_P, 20.0)
    spec = WaveguideSpec("strip", 0.079, 223.3, DispersionModel(OMEGA_P, (-3e-26,)))
    grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 100e12, 4096)
    assert np.isfinite(biphoton_spectrum(spec, pump, grid).flux_density.max())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "pump, betas, length_m",
    [
        # gamma*P = 2.2e299 /m: (gamma*P)**2 and (dk/2)**2 each raise OverflowError.
        (PumpConfig.degenerate(OMEGA_P, 1e297), (-3e-26,), 5e-3),
        (PumpConfig.non_degenerate(OMEGA_P * 1.01, OMEGA_P * 0.99, 1e297, 1e-2), (-3e-26,), 5e-3),
        # Normal dispersion keeps q^2 < 0 on an even grid, where dk/2 * L overflows
        # the sin argument: numpy warns and returns NaN.
        (PumpConfig.degenerate(OMEGA_P, 1.0), (1e-24,), 1.7976931348623157e305),
        # beta4 dw^4 overflows in the dispersion series itself: numpy warns.
        (PumpConfig.degenerate(OMEGA_P, 1.0), (1e-24, 1e300), 5e-3),
    ],
    ids=["degenerate-power", "non-degenerate-power", "length", "beta4"],
)
def test_mismatch_past_float64_named(pump, betas, length_m):
    spec = WaveguideSpec("strip", length_m, 223.3, DispersionModel(None, betas))
    grid = SpectralGrid.symmetric(pump.omega_c, 2 * math.pi * 40e12, 64)
    with pytest.raises(DomainError, match="the phase mismatch or gain overflows float64"):
        biphoton_spectrum(spec, pump, grid)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [1.2e15 + 1e100, np.array([1.2e15 + 1e100])], ids=["scalar", "array"])
def test_total_mismatch_past_float64_named(omega):
    # beta6 * dw^6 overflows in the dispersion series: numpy would warn and return NaN.
    pump = PumpConfig.degenerate(1.2e15, 1.0)
    spec = WaveguideSpec("custom", 5e-3, 223.3, DispersionModel(None, (1e-25, -1e-40, 1e-60)))
    with pytest.raises(DomainError) as info:
        total_mismatch(spec, pump, omega)
    assert str(info.value).startswith(
        "custom waveguide of length 0.005 m: the phase mismatch or gain overflows float64 ("
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "power_term, delta_k, length_m, message",
    [
        (1e6, 0.0, 1.0, "the peak parametric gain sinh^2(q*L) at q*L = 1000 overflows float64; "
         "the undepleted-pump model holds only for q*L << 1 (gain << 1)"),
        (100.0, 1e200, 0.01, "the phase mismatch or gain overflows float64 ("),
        (100.0, np.array([5.0, 1e200]), 0.01, "the phase mismatch or gain overflows float64 ("),
        (100.0, 5.0, -0.01, "length_m must be > 0, got -0.01"),
        (100.0, 5.0, 0.0, "length_m must be > 0, got 0.0"),
        (100.0, math.nan, 0.01, "delta_k must be finite"),
        (100.0, np.array([5.0, -math.inf]), 0.01, "delta_k must be finite"),
    ],
    ids=["peak-gain", "mismatch-squared", "mismatch-squared-array", "negative-length",
         "zero-length", "nan-mismatch", "infinite-mismatch"],
)
def test_gain_from_mismatch_out_of_domain_raises(power_term, delta_k, length_m, message):
    with pytest.raises(DomainError) as info:
        gain_from_mismatch(power_term, delta_k, length_m)
    assert str(info.value).startswith(message)


@pytest.mark.filterwarnings("error")
def test_gain_at_exact_phase_matching_past_float64_named():
    # No dispersion and a degenerate pump put q^2 exactly on 0 at the pump, where
    # G = PT L^2 = (gamma P L)^2 overflows though no sinh is evaluated.
    pump = PumpConfig.degenerate(OMEGA_P, 1e76)
    spec = WaveguideSpec("custom", 1e76, 223.3, DispersionModel(None, (0.0,)))
    with pytest.raises(DomainError, match="custom waveguide of length 1e[+]76 m: the phase mismatch"):
        parametric_gain(spec, pump, OMEGA_P)
