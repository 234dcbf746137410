"""Every public gain and mismatch kernel either returns finite values or names the fault.

``total_mismatch``, ``gain_from_mismatch``, ``parametric_gain`` and
``biphoton_spectrum`` are driven with betas, gammas, lengths, powers and detunings
whose magnitudes run from 1e-300 to 1e300, on grids of a few samples.  Each
call must return all-finite values or raise ``DomainError``; a RuntimeWarning
that escapes fails the test (see ``filterwarnings`` in pyproject.toml).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfwm_sim import (
    DispersionModel,
    DomainError,
    PumpConfig,
    SpectralGrid,
    WaveguideSpec,
    angular_frequency_from_wavelength,
    biphoton_spectrum,
    gain_from_mismatch,
    parametric_gain,
    total_mismatch,
)
from sfwm_sim.presets import preset_waveguide

OMEGA_P = angular_frequency_from_wavelength(1552.5e-9)


def decades(low, high):
    """Magnitudes spread evenly over the decades 10**low to 10**high."""
    return st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(1.0, 9.99),
        st.integers(low, high - 1),
    )


MAGNITUDE = decades(-300, 300)
SIGNED = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), MAGNITUDE)
VALUE = st.one_of(st.just(0.0), SIGNED)


@st.composite
def waveguides(draw):
    length = draw(MAGNITUDE)
    kind = draw(st.sampled_from(["strip", "shallow_ridge", "custom"]))
    if kind != "custom":
        return preset_waveguide(kind, length)
    betas = draw(st.lists(VALUE, min_size=1, max_size=4))
    gamma = draw(st.one_of(st.just(0.0), MAGNITUDE))
    return WaveguideSpec("custom", length, gamma, DispersionModel(None, tuple(betas)))


@st.composite
def pumps(draw):
    power = draw(st.one_of(st.just(0.0), MAGNITUDE))
    if draw(st.booleans()):
        return PumpConfig.degenerate(OMEGA_P, power)
    # A half-separation below the pump frequency keeps both lines positive.
    half = OMEGA_P * draw(st.floats(1e-6, 0.5))
    return PumpConfig.non_degenerate(OMEGA_P + half, OMEGA_P - half, power, draw(MAGNITUDE))


def finite_or_named(kernel, *args):
    try:
        result = kernel(*args)
    except DomainError:
        return
    assert np.isfinite(result).all(), (kernel.__name__, result)


PROPERTY = settings(max_examples=300, deadline=None)


@PROPERTY
@given(spec=waveguides(), pump=pumps(), detunings=st.lists(VALUE, min_size=1, max_size=6))
# A beta6 term past float64 at a detuning of 1e100 rad/s.
@example(
    WaveguideSpec("custom", 5e-3, 223.3, DispersionModel(None, (1e-25, -1e-40, 1e-60))),
    PumpConfig.degenerate(1.2e15, 1.0),
    [1e100],
)
def test_total_mismatch(spec, pump, detunings):
    omegas = pump.omega_c + np.array(detunings)
    finite_or_named(total_mismatch, spec, pump, omegas)
    finite_or_named(total_mismatch, spec, pump, float(omegas[0]))


@PROPERTY
@given(spec=waveguides(), pump=pumps(), detunings=st.lists(VALUE, min_size=1, max_size=6))
def test_parametric_gain(spec, pump, detunings):
    omegas = pump.omega_c + np.array(detunings)
    finite_or_named(parametric_gain, spec, pump, omegas)
    finite_or_named(parametric_gain, spec, pump, float(omegas[0]))


@PROPERTY
@given(
    power_term=st.one_of(st.just(0.0), MAGNITUDE),
    delta_k=st.lists(VALUE, min_size=1, max_size=6),
    length=MAGNITUDE,
)
@example(1e6, [0.0], 1.0)  # q*L = 1000: sinh^2 overflows at the peak
@example(100.0, [1e200], 0.01)  # (dk/2)^2 overflows
def test_gain_from_mismatch(power_term, delta_k, length):
    finite_or_named(gain_from_mismatch, power_term, np.array(delta_k), length)
    finite_or_named(gain_from_mismatch, power_term, delta_k[0], length)
    # dk = +-2 sqrt(PT) puts q^2 exactly on 0, where G = PT L^2.
    edge = 2.0 * math.sqrt(power_term)
    finite_or_named(gain_from_mismatch, power_term, np.array([edge, -edge]), length)


@PROPERTY
@given(
    spec=waveguides(),
    pump=pumps(),
    # Smaller half spans round away on the centre, so the grid would be empty.
    span_fraction=decades(-12, 0),
    n_points=st.integers(2, 9),
    mirrored=st.booleans(),
)
def test_biphoton_spectrum(spec, pump, span_fraction, n_points, mirrored):
    center = pump.omega_c if mirrored else pump.omega_c * (1.0 + 1e-4)
    grid = SpectralGrid(center, center * span_fraction, n_points)
    try:
        flux = biphoton_spectrum(spec, pump, grid).flux_density
    except DomainError:
        return
    assert np.isfinite(flux).all()
