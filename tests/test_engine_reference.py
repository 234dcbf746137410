"""The spectral kernel against the versions it replaced.

``gain_from_mismatch`` and ``parametric_gain`` now run the three q^2 branches
in one pass over one buffer (``sin`` and ``sinh`` each write only their own
samples through ``where=``) and take the overflow check from the largest
q^2; ``linear_mismatch`` builds every power before it sums the terms;
``band_flux`` slices the band out of the grid and interpolates each edge on
the two samples around it.  The functions below are the earlier versions,
kept as the reference: every result must equal theirs bit for bit (compared
as int64), and at the overflow limit the same DomainError text must come out.
"""

import math
from math import factorial, isfinite, sinh, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sfwm_sim import (
    BiphotonSpectrum,
    DispersionModel,
    DomainError,
    PumpConfig,
    SpectralGrid,
    WaveguideSpec,
    angular_frequency_from_wavelength,
    band_flux,
    gain_from_mismatch,
    linear_mismatch,
    nonlinear_mismatch,
    parametric_gain,
)
from sfwm_sim.engine import _power_term

OMEGA_P = angular_frequency_from_wavelength(1552.5e-9)

# ---------------------------------------------------------------- reference


def reference_linear_mismatch(model, omega, pump):
    om = np.asarray(omega, dtype=float)
    dw2 = om.reshape(-1) - pump.omega_c
    dw2 *= dw2
    wd = pump.omega_d
    terms = [(m, beta) for m, beta in enumerate(model.beta_even, start=1) if beta != 0.0]
    out = None
    power, order = dw2, 1
    for m, beta in terms:
        for _ in range(order, m):
            power = power * dw2
        order = m
        term = np.subtract(power, wd ** (2 * m), out=power if m == terms[-1][0] else None)
        term *= 2.0 * beta / factorial(2 * m)
        if out is None:
            out = term
            out += 0.0
        else:
            out += term
    if out is None:
        out = np.zeros_like(dw2)
    out = out.reshape(om.shape)
    if np.isscalar(omega):
        return float(out)
    return out


def reference_gain_from_mismatch(power_term, delta_k, length_m):
    if not power_term >= 0.0:
        raise DomainError(f"power term must be >= 0, got {power_term!r}")
    dk = np.asarray(delta_k, dtype=float)
    q2 = 0.5 * dk.reshape(-1)
    q2 *= q2
    np.subtract(power_term, q2, out=q2)
    pos = q2 > 0.0
    if pos.any():
        out = np.empty_like(q2)
        q2_pos = q2[pos]
        out[pos] = power_term / q2_pos * np.sinh(np.sqrt(q2_pos) * length_m) ** 2
        rest = ~pos
        out[rest] = _reference_oscillating_gain(power_term, q2[rest], length_m)
    else:
        out = _reference_oscillating_gain(power_term, q2, length_m)
    out = out.reshape(dk.shape)
    if np.isscalar(delta_k):
        return float(out)
    return out


def _reference_oscillating_gain(power_term, q2, length_m):
    r = np.negative(q2, out=q2)
    zero = r == 0.0
    has_zero = zero.any()
    if has_zero:
        r[zero] = 1.0
    s = np.sqrt(r)
    s *= length_m
    np.sin(s, out=s)
    s *= s
    gain = np.divide(power_term, r, out=r)
    gain *= s
    if has_zero:
        gain[zero] = power_term * length_m**2
    return gain


def reference_check_peak_gain(spec, pump, power_term, dk):
    q2 = power_term - (0.5 * float(np.min(np.abs(dk), initial=np.inf))) ** 2
    if not q2 > 0.0:
        return
    arg = sqrt(q2) * spec.length_m
    try:
        finite = isfinite(power_term / q2 * sinh(arg) ** 2)
    except OverflowError:
        finite = False
    if not finite:
        rate = "gamma*P" if pump.mode == "degenerate" else "2*gamma*sqrt(P1*P2)"
        raise DomainError(
            f"{spec.kind} waveguide of length {spec.length_m * 1e3:g} mm at "
            f"{rate} = {sqrt(power_term):.6g} /m: the peak parametric gain "
            f"sinh^2(q*L) at q*L = {arg:.6g} overflows float64; the undepleted-pump "
            "model holds only for q*L << 1 (gain << 1)"
        )


def reference_parametric_gain(spec, pump, omega):
    om = np.asarray(omega, dtype=float)
    if not np.all(om > 0.0):
        raise DomainError("omega must be > 0")
    try:
        with np.errstate(over="raise", invalid="raise"):
            dk = reference_linear_mismatch(spec.dispersion, om, pump)
            dk += nonlinear_mismatch(spec.gamma_per_w_m, pump)
            dk = np.asarray(dk, dtype=float)
            power_term = _power_term(spec.gamma_per_w_m, pump)
            reference_check_peak_gain(spec, pump, power_term, dk)
            gain = reference_gain_from_mismatch(power_term, dk, spec.length_m)
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(
            f"{spec.kind} waveguide of length {spec.length_m:g} m: "
            f"the phase mismatch or gain overflows float64 ({exc})"
        ) from None
    if np.isscalar(omega):
        return float(gain)
    return np.asarray(gain)


def reference_band_flux(spectrum, passband):
    lo, hi = passband
    grid = spectrum.grid
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


# ---------------------------------------------------------------- comparison


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def assert_same_bits(got, want) -> None:
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def same_outcome(call, reference, *args):
    """Both return the same bits, or both raise DomainError with the same text."""
    try:
        want = reference(*args)
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            call(*args)
        assert str(info.value) == str(exc)
        return
    assert_same_bits(call(*args), want)


# One sample's place against the sinh/sin boundary |dk| = 2 sqrt(PT):
# inside (q^2 > 0), outside (q^2 < 0) or on it (q^2 == 0 exactly).
SAMPLE = st.tuples(
    st.sampled_from(["inside", "outside", "on"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.booleans(),
)


def _mismatch(root_pt: float, samples) -> np.ndarray:
    """dk per sample; PT = root_pt**2, so dk = +-2 root_pt gives q^2 == 0 exactly."""
    edge = 2.0 * root_pt
    dk = []
    for where, fraction, negative in samples:
        value = {"inside": fraction * edge, "outside": edge * (1.0 + 4.0 * fraction) + 1e-3,
                 "on": edge}[where]
        dk.append(-value if negative else value)
    return np.array(dk)


class TestGain:
    @settings(max_examples=300, deadline=None)
    @given(
        root_pt=st.floats(1e-3, 1e4),
        length=st.floats(1e-4, 0.1),
        samples=st.lists(SAMPLE, min_size=1, max_size=200),
    )
    @example(1.0, 0.01, [("on", 0.0, False)])
    @example(1.0, 0.01, [("inside", 0.0, False)] * 3 + [("on", 0.0, True)] * 2)
    def test_gain_from_mismatch_matches_reference(self, root_pt, length, samples):
        # gain_from_mismatch has no overflow check: keep sinh^2(q L) finite.
        assume(root_pt * length < 300.0)
        power_term = root_pt * root_pt
        dk = _mismatch(root_pt, samples)
        before = dk.copy()
        assert_same_bits(
            gain_from_mismatch(power_term, dk, length),
            reference_gain_from_mismatch(power_term, dk, length),
        )
        assert dk.tobytes() == before.tobytes()  # the caller's mismatch is left alone
        assert_same_bits(
            gain_from_mismatch(power_term, dk.reshape(1, -1), length),
            reference_gain_from_mismatch(power_term, dk.reshape(1, -1), length),
        )
        for value in dk[:3].tolist():
            assert_same_bits(
                gain_from_mismatch(power_term, value, length),
                reference_gain_from_mismatch(power_term, value, length),
            )

    @settings(max_examples=100, deadline=None)
    @given(
        n_points=st.integers(2, 2049),
        mode=st.sampled_from(["degenerate", "non-degenerate"]),
        beta2=st.floats(-1e-24, 1e-24),
        beta4=st.one_of(st.just(0.0), st.floats(-1e-47, 1e-47)),
        power=st.floats(0.0, 2.0),
        length=st.floats(1e-3, 20e-3),
        half_span_thz=st.floats(0.5, 100.0),
    )
    @example(65_536, "degenerate", -3e-26, 0.0, 1.0, 5e-3, 40.0)  # the strip preset
    @example(65_535, "degenerate", 5e-25, 2e-48, 0.5, 5e-3, 40.0)  # the shallow-ridge preset
    def test_parametric_gain_matches_reference(
        self, n_points, mode, beta2, beta4, power, length, half_span_thz
    ):
        pump = _pump(mode, power)
        spec = WaveguideSpec(
            "custom", length, 223.3, DispersionModel(pump.omega_c, (beta2, beta4))
        )
        grid = SpectralGrid.symmetric(pump.omega_c, 2 * math.pi * half_span_thz * 1e12, n_points)
        same_outcome(parametric_gain, reference_parametric_gain, spec, pump, grid.omegas)
        upper = grid.omegas[n_points // 2 :]
        same_outcome(parametric_gain, reference_parametric_gain, spec, pump, upper)
        for omega in (float(grid.omegas[0]), float(grid.omegas[-1]), pump.omega_c):
            same_outcome(parametric_gain, reference_parametric_gain, spec, pump, omega)

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["degenerate", "non-degenerate"]),
        length=st.floats(0.07, 0.09),
        n_points=st.integers(2, 4097),
    )
    # 20 W into a strip: q*L = gamma*P*L, so sinh^2 overflows from about 79.5 mm.
    @example("degenerate", 0.079, 4096)
    @example("degenerate", 0.0795, 4096)
    @example("degenerate", 0.08, 4097)
    def test_overflow_limit_matches_reference(self, mode, length, n_points):
        pump = _pump(mode, 20.0, separation=1e13)
        spec = WaveguideSpec("strip", length, 223.3, DispersionModel(pump.omega_c, (-3e-26,)))
        grid = SpectralGrid.symmetric(pump.omega_c, 2 * math.pi * 100e12, n_points)
        same_outcome(parametric_gain, reference_parametric_gain, spec, pump, grid.omegas)
        same_outcome(parametric_gain, reference_parametric_gain, spec, pump, pump.omega_c)


def _pump(mode, power, separation=1.2e14):
    if mode == "degenerate":
        return PumpConfig.degenerate(OMEGA_P, power)
    return PumpConfig.non_degenerate(OMEGA_P + separation, OMEGA_P - separation, power, power)


class TestLinearMismatch:
    @settings(max_examples=200, deadline=None)
    @given(
        n_points=st.integers(2, 4097),
        omega_d=st.sampled_from([0.0, 1e13, 1.2e14]),
        beta2=st.one_of(st.just(0.0), st.floats(-1e-24, 1e-24)),
        beta4=st.one_of(st.just(0.0), st.floats(-1e-47, 1e-47)),
        beta6=st.one_of(st.none(), st.just(0.0), st.floats(-1e-70, 1e-70)),
        half_span_thz=st.floats(0.5, 100.0),
    )
    @example(65_536, 0.0, 5e-25, 2e-48, None, 40.0)  # the shallow-ridge preset
    @example(5, 1e13, 0.0, 0.0, 1e-70, 10.0)  # only beta_6
    @example(5, 0.0, 0.0, 0.0, 0.0, 10.0)  # every beta zero
    def test_matches_reference(self, n_points, omega_d, beta2, beta4, beta6, half_span_thz):
        betas = (beta2, beta4) if beta6 is None else (beta2, beta4, beta6)
        pump = PumpConfig.degenerate(OMEGA_P, 1.0) if omega_d == 0.0 else PumpConfig.non_degenerate(
            OMEGA_P + omega_d, OMEGA_P - omega_d, 1.0, 1.0
        )
        model = DispersionModel(pump.omega_c, betas)
        grid = SpectralGrid.symmetric(pump.omega_c, 2 * math.pi * half_span_thz * 1e12, n_points)
        for omega in (grid.omegas, grid.omegas[n_points // 2 :], grid.omegas.reshape(1, -1)):
            assert_same_bits(
                linear_mismatch(model, omega, pump), reference_linear_mismatch(model, omega, pump)
            )
        for omega in (float(grid.omegas[0]), float(grid.omegas[-1]), pump.omega_c):
            assert_same_bits(
                linear_mismatch(model, omega, pump), reference_linear_mismatch(model, omega, pump)
            )


class TestBandFlux:
    @settings(max_examples=300, deadline=None)
    @given(
        n_points=st.integers(2, 2049),
        seed=st.integers(0, 2**32 - 1),
        edges=st.tuples(
            *[st.one_of(st.sampled_from(["min", "max"]), st.integers(0, 10**6),
                        st.floats(0.0, 1.0)) for _ in range(2)]
        ),
    )
    @example(2, 0, ("min", "max"))
    @example(3, 1, (0, 2))
    @example(4096, 2, (100, 101))
    @example(4097, 3, (0.25, 0.2500001))
    def test_matches_reference(self, n_points, seed, edges):
        grid = SpectralGrid.symmetric(OMEGA_P, 2 * math.pi * 5e12, n_points)
        omegas = grid.omegas
        rng = np.random.default_rng(seed)
        flux = rng.uniform(0.0, 1.0, n_points) * rng.choice([1.0, 0.0, 1e-30], n_points)
        spectrum = BiphotonSpectrum(grid, flux)

        def omega(edge):
            # An edge at the grid's own limits, on a sample, or anywhere in between.
            if edge == "min":
                return grid.omega_min
            if edge == "max":
                return grid.omega_max
            if isinstance(edge, int):
                return float(omegas[edge % n_points])
            return grid.omega_min + edge * (grid.omega_max - grid.omega_min)

        lo, hi = sorted(omega(edge) for edge in edges)
        assume(lo < hi)
        assert_same_bits(band_flux(spectrum, (lo, hi)), reference_band_flux(spectrum, (lo, hi)))
