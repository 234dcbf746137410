import math

import numpy as np
import pytest

from sfwm_sim import (
    ConfigError,
    DispersionModel,
    DomainError,
    PumpConfig,
    angular_frequency_from_wavelength,
    linear_mismatch,
    wavelength_from_angular_frequency,
)

# 2*pi*c / 1552.5 nm with c = 2.99792458e8 m/s
OMEGA_1552_5 = 1.2133021367528845e15


def test_angular_frequency_at_1552_5nm():
    assert angular_frequency_from_wavelength(1552.5e-9) == pytest.approx(
        OMEGA_1552_5, abs=1e9
    )


def test_pump_average_matches_quoted_average_wavelength():
    # 1528 nm + 1582 nm pumps: the frequency average corresponds to the
    # 1554.5 nm detuning origin (harmonic wavelength mean, 1554.53 nm).
    w1 = angular_frequency_from_wavelength(1528e-9)
    w2 = angular_frequency_from_wavelength(1582e-9)
    pump = PumpConfig.non_degenerate(w1, w2, 0.01, 0.01)
    lam_c = wavelength_from_angular_frequency(pump.omega_c)
    assert lam_c * 1e9 == pytest.approx(1554.5, abs=0.1)


@pytest.mark.parametrize("lam", [1552.5e-9, 1310e-9, 632.8e-9, 2.0e-6])
def test_wavelength_round_trip(lam):
    back = wavelength_from_angular_frequency(angular_frequency_from_wavelength(lam))
    assert back == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1e-6])
def test_nonpositive_wavelength_rejected(bad):
    with pytest.raises(DomainError):
        angular_frequency_from_wavelength(bad)


def _pump_nondeg(power=0.01):
    w1 = angular_frequency_from_wavelength(1528e-9)
    w2 = angular_frequency_from_wavelength(1582e-9)
    return PumpConfig.non_degenerate(w1, w2, power, power)


def rounding_floor(model, pump):
    """First-order bound on |dk_L(omega_p)| from the float rounding of omega_c."""
    delta = np.finfo(float).eps * pump.omega_c
    bound = 0.0
    for m, beta in enumerate(model.beta_even, start=1):
        bound += 2.0 * abs(beta) / math.factorial(2 * m) * 2 * m * pump.omega_d ** (
            2 * m - 1
        )
    return bound * delta


class TestLinearMismatch:
    def test_exact_zero_at_pump_frequencies_dyadic(self):
        # Powers of two make omega_c and omega_d exactly representable, so
        # the cancellation at the pump frequencies is exact.
        wc, wd = 2.0**50, 2.0**44
        pump = PumpConfig.non_degenerate(wc + wd, wc - wd, 0.01, 0.01)
        model = DispersionModel(wc, (1.3e-24, 2.0e-48))
        assert linear_mismatch(model, wc + wd, pump) == 0.0
        assert linear_mismatch(model, wc - wd, pump) == 0.0

    def test_zero_at_pump_frequencies_within_rounding(self):
        pump = _pump_nondeg()
        model = DispersionModel(pump.omega_c, (1.3e-24, 2.0e-48))
        floor = rounding_floor(model, pump)
        for omega in (pump.omega_p1, pump.omega_p2):
            assert abs(linear_mismatch(model, omega, pump)) < 10.0 * floor

    def test_beta2_only_single_term(self):
        pump = PumpConfig.degenerate(OMEGA_1552_5, 1.0)
        model = DispersionModel(pump.omega_c, (1e-24,))
        omega = pump.omega_c + 2 * math.pi * 1e12
        # beta2 * (omega - omega_c)^2 = 1e-24 * (2 pi 1e12)^2
        assert linear_mismatch(model, omega, pump) == pytest.approx(
            39.478417604357425, rel=1e-12
        )

    def test_two_term_model_matches_independent_evaluation(self):
        pump = _pump_nondeg()
        beta2, beta4 = 6.1e-25, -3.3e-49
        model = DispersionModel(pump.omega_c, (beta2, beta4))
        rng = np.random.default_rng(42)
        for detuning in rng.uniform(-3e13, 3e13, size=25):
            omega = pump.omega_c + detuning
            wd = pump.omega_d
            expected = beta2 * (detuning**2 - wd**2) + beta4 / 12.0 * (
                detuning**4 - wd**4
            )
            assert linear_mismatch(model, omega, pump) == pytest.approx(
                expected, rel=1e-12, abs=1e-300
            )

    def test_even_symmetry(self):
        pump = _pump_nondeg()
        model = DispersionModel(pump.omega_c, (-2.4e-25, 8.0e-49))
        rng = np.random.default_rng(3)
        deltas = rng.uniform(1e9, 5e13, size=50)
        up = linear_mismatch(model, pump.omega_c + deltas, pump)
        down = linear_mismatch(model, pump.omega_c - deltas, pump)
        np.testing.assert_allclose(up, down, rtol=1e-12)

    def test_truncation_adds_exactly_one_term(self):
        pump = PumpConfig.degenerate(OMEGA_1552_5, 0.5)
        beta6 = 4.0e-72
        short = DispersionModel(pump.omega_c, (1e-24, 2e-48))
        long = DispersionModel(pump.omega_c, (1e-24, 2e-48, beta6))
        delta = 2.9e13
        omega = pump.omega_c + delta
        term = 2.0 * beta6 / math.factorial(6) * delta**6
        assert linear_mismatch(long, omega, pump) - linear_mismatch(
            short, omega, pump
        ) == pytest.approx(term, rel=1e-12)

    def test_misaligned_reference_rejected(self):
        pump = PumpConfig.degenerate(OMEGA_1552_5, 1.0)
        model = DispersionModel(pump.omega_c * 1.002, (1e-24,))
        with pytest.raises(ConfigError):
            linear_mismatch(model, pump.omega_c, pump)

    def test_vectorized_matches_scalar(self):
        pump = PumpConfig.degenerate(OMEGA_1552_5, 1.0)
        model = DispersionModel(pump.omega_c, (-3e-26, 1e-50))
        omegas = pump.omega_c + np.linspace(-2e13, 2e13, 7)
        vector = linear_mismatch(model, omegas, pump)
        scalars = [linear_mismatch(model, w, pump) for w in omegas]
        np.testing.assert_allclose(vector, scalars, rtol=0, atol=0)


class TestValidation:
    def test_empty_beta_rejected(self):
        with pytest.raises(ConfigError):
            DispersionModel(OMEGA_1552_5, ())

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(DomainError):
            DispersionModel(0.0, (1e-24,))

    def test_degenerate_accessors(self):
        pump = PumpConfig.degenerate(OMEGA_1552_5, 0.25)
        assert pump.omega_c == OMEGA_1552_5
        assert pump.omega_d == 0.0
        assert pump.power_w == 0.25

    def test_degenerate_requires_one_power_in_both_fields(self):
        with pytest.raises(ConfigError, match="power1_w == power2_w"):
            PumpConfig("degenerate", OMEGA_1552_5, OMEGA_1552_5, 0.25, 0.5)

    def test_nondegenerate_requires_distinct_frequencies(self):
        with pytest.raises(ConfigError):
            PumpConfig.non_degenerate(OMEGA_1552_5, OMEGA_1552_5, 0.01, 0.01)

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            PumpConfig.degenerate(OMEGA_1552_5, -0.1)

    def test_infinite_power_rejected(self):
        with pytest.raises(DomainError, match="power2_w must be finite and >= 0 W, got inf"):
            PumpConfig.non_degenerate(OMEGA_1552_5, 1.2e15, 0.01, math.inf)

    def test_power_w_guarded_for_nondegenerate(self):
        with pytest.raises(ConfigError):
            _ = _pump_nondeg().power_w
