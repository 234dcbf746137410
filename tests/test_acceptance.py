"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from sfwm_sim import (
    PumpConfig,
    RateModel,
    SpectralGrid,
    TwoModeState,
    analyzer_coincidence,
    angular_frequency_from_wavelength,
    band_flux,
    bandwidth_3db_hz,
    biphoton_spectrum,
    build_histogram,
    build_template,
    car_from_histogram,
    effective_gamma,
    evaluate_circuit,
    fringe_visibility,
    gain_from_mismatch,
    linear_mismatch,
    mzi_source_state,
    path_entangled_state,
    predict_rates,
    product_rail_state,
    synthesize_timestamps,
    time_bin_state,
)
from sfwm_sim.modefield import MaterialConstants
from sfwm_sim.presets import preset_waveguide

from conftest import gaussian_mode
from test_modefield import oracle_gamma
from test_states import oracle_coincidence

OMEGA_P = angular_frequency_from_wavelength(1552.5e-9)


def _passed(n: int, detail: str) -> None:
    print(f"[criterion {n:2d}] PASS  {detail}")


def oracle_gain_mp(power_term: float, delta_k: float, length: float) -> float:
    """Eq-level gain oracle in 40-digit arithmetic via the complex sinh form."""
    with mpmath.workdps(40):
        pt = mpmath.mpf(power_term)
        q2 = pt - (mpmath.mpf(delta_k) / 2) ** 2
        if q2 == 0:
            return float(pt * mpmath.mpf(length) ** 2)
        q = mpmath.sqrt(mpmath.mpc(q2))
        val = pt * (mpmath.sinh(q * length) / q) ** 2
        return float(mpmath.re(val))


def test_criterion_1_gain_oracle_equivalence():
    rng = np.random.default_rng(2024)
    n_points = 10_000
    start = time.perf_counter()
    worst = 0.0
    for i in range(n_points):
        gamma = rng.uniform(1.0, 400.0)
        length = rng.uniform(1e-4, 0.02)
        if i % 2:  # non-degenerate branch, Eq-11/12 style power term
            p1, p2 = rng.uniform(0.0, 2.0, size=2)
            power_term = 4.0 * gamma**2 * p1 * p2
        else:  # degenerate branch, Eq-16/17 style power term
            p = rng.uniform(0.0, 2.0)
            power_term = (gamma * p) ** 2
        if i % 11 == 0:  # exercise the q^2 ~ 0 boundary region explicitly
            delta_k = 2.0 * math.sqrt(power_term) * (1.0 + rng.uniform(-1e-9, 1e-9))
        else:
            delta_k = rng.uniform(-2e4, 2e4)
        got = gain_from_mismatch(power_term, delta_k, length)
        want = oracle_gain_mp(power_term, delta_k, length)
        scale = max(abs(want), power_term * length**2, 1e-300)
        worst = max(worst, abs(got - want) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _passed(1, f"max rel err {worst:.2e} over {n_points} points in {elapsed:.2f} s")


def test_criterion_2_phase_matching_zeros_and_symmetry():
    # exact zeros with exactly representable pump frequencies
    wc, wd = 2.0**50, 2.0**44
    pump = PumpConfig.non_degenerate(wc + wd, wc - wd, 0.01, 0.01)
    strip = preset_waveguide("strip", 5e-3)
    ridge = preset_waveguide("shallow_ridge", 15e-3)
    zero_max = 0.0
    for wg in (strip, ridge):
        for omega in (wc + wd, wc - wd):
            zero_max = max(zero_max, abs(linear_mismatch(wg.dispersion, omega, pump)))
    assert zero_max == 0.0

    # even symmetry on 4096-point symmetric grids
    sym_worst = 0.0
    for wg in (strip, ridge):
        grid = SpectralGrid.symmetric(wc, 2 * math.pi * 10e12, 4096)
        dk = linear_mismatch(wg.dispersion, grid.omegas, pump)
        with np.errstate(invalid="ignore"):
            rel = np.abs(dk - dk[::-1]) / np.maximum(np.abs(dk), 1e-300)
        sym_worst = max(sym_worst, float(np.nanmax(rel)))
    assert sym_worst <= 1e-12
    _passed(2, f"pump-frequency zeros exact, symmetry rel err {sym_worst:.2e}")


def test_criterion_3_branch_continuity_and_small_gain_limit():
    # continuity across q^2 = 0
    power_term = (223.3 * 0.5) ** 2
    length = 5e-3
    plateau = power_term * length**2
    worst = 0.0
    for eps in (1e-13, 1e-11, 1e-9):  # relative q^2 offsets, shrinking to 0
        for sign in (+1.0, -1.0):
            q2 = sign * eps * power_term
            delta_k = 2.0 * math.sqrt(power_term - q2)
            got = gain_from_mismatch(power_term, delta_k, length)
            worst = max(worst, abs(got - plateau) / plateau)
    assert worst < 1e-9

    # sinc^2 small-gain limit at gamma P L = 1e-4
    gamma, power, length = 1e-2, 1e-2, 1.0
    power_term = (gamma * power) ** 2
    sinc_worst = 0.0
    for dk in np.linspace(0.3, 60.0, 200):
        got = gain_from_mismatch(power_term, dk, length)
        arg = dk * length / 2.0
        want = power_term * length**2 * (math.sin(arg) / arg) ** 2
        sinc_worst = max(sinc_worst, abs(got - want) / want)
    assert sinc_worst <= 1e-6
    _passed(3, f"q^2=0 jump {worst:.2e}, sinc^2 deviation {sinc_worst:.2e}")


def test_criterion_4_bandwidth_contrast_of_default_waveguides():
    pump = PumpConfig.degenerate(OMEGA_P, 1.0)
    grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 40e12, 8192)
    timings = []

    def width(kind: str, length_m: float) -> float:
        spec = preset_waveguide(kind, length_m)
        start = time.perf_counter()
        spectrum = biphoton_spectrum(spec, pump, grid)
        timings.append(time.perf_counter() - start)
        return bandwidth_3db_hz(spectrum)

    strip_bw = width("strip", 5e-3)
    ridge_bw = [width("shallow_ridge", L) for L in (3e-3, 8e-3, 15e-3)]
    assert strip_bw < 80e12  # did not saturate the grid
    for bw in ridge_bw:
        assert strip_bw >= 5.0 * bw
    assert max(ridge_bw) <= 2.0 * min(ridge_bw)
    assert max(timings) < 1.0
    _passed(
        4,
        f"strip {strip_bw / 1e12:.1f} THz vs ridges "
        f"{[round(b / 1e12, 2) for b in ridge_bw]} THz "
        f"(min contrast {strip_bw / max(ridge_bw):.1f}x, ridge spread "
        f"{max(ridge_bw) / min(ridge_bw):.2f}x, max {max(timings) * 1e3:.0f} ms/spectrum)",
    )


def test_criterion_5_app1_selection_ratio():
    hybrid = evaluate_circuit(build_template("app1_timebin"))
    all_strip = evaluate_circuit(build_template("app1_timebin", all_strip=True))
    assert hybrid.ratio >= 10.0
    assert all_strip.ratio <= 2.0
    _passed(5, f"hybrid ratio {hybrid.ratio:.0f}, all-strip ratio {all_strip.ratio:.3f}")


def test_criterion_6_app2_selection_ratio():
    hybrid = evaluate_circuit(build_template("app2_path"))
    all_strip = evaluate_circuit(build_template("app2_path", all_strip=True))
    assert hybrid.ratio >= 10.0
    assert all_strip.ratio < 10.0
    _passed(6, f"hybrid ratio {hybrid.ratio:.0f}, all-strip ratio {all_strip.ratio:.3f}")


def test_criterion_7_quantum_state_suite():
    rng = np.random.default_rng(99)
    norm_worst = 0.0
    for phase in rng.uniform(-2 * math.pi, 2 * math.pi, 1000):
        for state in (time_bin_state(phase), mzi_source_state(phase), path_entangled_state(phase)):
            norm_worst = max(norm_worst, abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0))
    assert norm_worst <= 1e-12

    bunch = max(
        abs(mzi_source_state(math.pi / 2).amplitude("2,0")),
        abs(mzi_source_state(math.pi / 2).amplitude("0,2")),
    )
    assert bunch < 1e-15

    # Fixed analyzer settings for both sweeps; rz_idler = pi/2 keeps the
    # product-state coincidence a nonzero constant.
    settings = (0.0, math.pi / 2, math.pi / 2, math.pi / 2)
    alphas = np.linspace(0.0, 2.0 * math.pi, 65)
    oracle_worst = 0.0
    probs = []
    for alpha in alphas:
        state = path_entangled_state(alpha)
        got = analyzer_coincidence(state, *settings)
        want = oracle_coincidence(state.amplitudes, state.basis, *settings)
        oracle_worst = max(oracle_worst, abs(got - want))
        probs.append(got)
    assert oracle_worst <= 1e-12
    visibility = fringe_visibility(probs)
    assert abs(visibility - 1.0) <= 1e-12

    # The product state carries no inter-rail phase: the same sweep is flat.
    product = product_rail_state([1.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2)])
    flat = [
        analyzer_coincidence(
            TwoModeState(product.basis, product.amplitudes * cmath.exp(2j * a)),
            *settings,
        )
        for a in alphas
    ]
    assert min(flat) > 0.0
    assert fringe_visibility(flat) <= 1e-12
    _passed(
        7,
        f"norm err {norm_worst:.1e}, bunch {bunch:.1e}, "
        f"visibility {visibility:.12f}, oracle dev {oracle_worst:.1e}",
    )


def test_criterion_8_gamma_quadrature():
    constants = MaterialConstants()
    coarse = gaussian_mode(81)
    got = effective_gamma(coarse, OMEGA_P, constants)
    want = oracle_gamma(gaussian_mode(801), OMEGA_P, constants)
    oracle_rel = abs(got - want) / want
    assert oracle_rel <= 1e-6

    from sfwm_sim import ModeFieldGrid

    scaled = ModeFieldGrid(
        coarse.x_coords,
        coarse.y_coords,
        coarse.e_field * 4.2,
        coarse.h_field * 4.2,
        coarse.core_mask,
    )
    scale_rel = abs(effective_gamma(scaled, OMEGA_P, constants) - got) / got
    assert scale_rel <= 1e-12

    lin_rel = abs(effective_gamma(coarse, 2 * OMEGA_P, constants) - 2.0 * got) / (2.0 * got)
    assert lin_rel <= 1e-12
    _passed(
        8,
        f"oracle rel {oracle_rel:.2e}, scale inv {scale_rel:.2e}, "
        f"omega linearity {lin_rel:.2e}",
    )


def _car_sigma(hist, reference_car: float) -> float:
    center = hist.central_bin
    peak_total = int(hist.counts[center - 2 : center + 3].sum())
    acc_total = int(hist.counts.sum()) - peak_total
    return reference_car * math.sqrt(1.0 / max(peak_total, 1) + 1.0 / max(acc_total, 1))


def test_criterion_9_coincidence_pipeline():
    # flat (noise-only) streams: CAR = 1 within 3 sigma
    flat_model = RateModel(
        pair_rate_hz=0.0,
        bin_width_s=100e-9,
        noise_rate_signal_hz=4e4,
        noise_rate_idler_hz=4e4,
    )
    signal, idler = synthesize_timestamps(flat_model, 120.0, seed=31)
    hist = build_histogram(signal, idler, 100e-9, 4100e-9)
    car_flat = car_from_histogram(hist)
    sigma_flat = _car_sigma(hist, 1.0)
    assert abs(car_flat - 1.0) < 3.0 * sigma_flat

    # pair-injected streams close the loop against the rate predictor
    model = RateModel(
        pair_rate_hz=2e3,
        bin_width_s=10e-9,
        efficiency_signal=0.25,
        efficiency_idler=0.25,
        noise_rate_signal_hz=2e4,
        noise_rate_idler_hz=2e4,
    )
    signal, idler = synthesize_timestamps(model, 150.0, seed=32)
    hist = build_histogram(signal, idler, model.bin_width_s, 410e-9)
    car_pairs = car_from_histogram(hist)
    expected = predict_rates(model)["car"]
    sigma = _car_sigma(hist, expected)
    assert abs(car_pairs - expected) < 3.0 * sigma

    # documented plausibility fixture in the style of the measured hybrid
    # source (singles 11.6/15.0 kHz, CAR ~ 30); reported, not gated.
    # Matches configs/car_plausibility.yaml.
    publish = RateModel(
        pair_rate_hz=252.3,
        bin_width_s=100e-12,
        efficiency_signal=0.1,
        efficiency_idler=0.1,
        noise_rate_signal_hz=115_747.7,
        noise_rate_idler_hz=149_747.7,
    )
    out = predict_rates(publish)
    signal, idler = synthesize_timestamps(publish, 600.0, seed=33)
    hist30 = build_histogram(signal, idler, publish.bin_width_s, 12.1e-9)
    car30 = car_from_histogram(hist30)
    _passed(
        9,
        f"flat CAR {car_flat:.3f}+-{sigma_flat:.3f}, closed-loop CAR {car_pairs:.2f} "
        f"vs predicted {expected:.2f} (+-{sigma:.2f}); plausibility fixture: "
        f"singles {out['singles_signal_hz']:.0f}/{out['singles_idler_hz']:.0f} Hz, "
        f"predicted CAR {out['car']:.1f}, simulated CAR {car30:.1f} (not gated)",
    )


def test_criterion_10_umzi_delay():
    report = evaluate_circuit(build_template("app1_timebin"))
    assert list(report.inter_pulse_delays_s) == ["source_strip"]
    delay_ps = report.inter_pulse_delays_s["source_strip"] * 1e12
    assert delay_ps == pytest.approx(99.7, abs=0.5)
    _passed(10, f"inter-pulse delay {delay_ps:.2f} ps (11.5 mm arm difference, n_eff 2.6)")
