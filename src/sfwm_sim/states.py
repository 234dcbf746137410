"""Two-mode biphoton states of the entanglement-generation circuits.

Three closed-form states appear in the two application circuits:

* time-bin state after an unbalanced interferometer feeding a nonlinear
  waveguide: (|0,0> + e^{2i alpha} |1,1>)/sqrt(2) over front/rear time bins;
* the source-interferometer output, a superposition of the bunch component
  (|2,0>, |0,2>) and the anti-bunch component |1,1>, steered by the internal
  phase theta; at theta = pi/2 only |1,1> survives;
* the two-rail path-entangled state (|A1,A2> + e^{2i alpha} |B1,B2>)/sqrt(2).

The analyzer applies independent qubit rotations to the signal and idler
rails and returns coincidence probabilities.  Rotation conventions (fixed
here and relied on by the tests):

    Rz(phi) = diag(e^{-i phi/2}, e^{+i phi/2})
    Ry(chi) = [[cos(chi/2), -sin(chi/2)], [sin(chi/2), cos(chi/2)]]

applied as Ry(chi) @ Rz(phi) (Rz first).  Detector index 0 of each analyzer
projects onto the rotated A rail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, sin, sqrt

import numpy as np

from .errors import DomainError, UsageError

NORM_TOL = 1e-12

TIME_BIN_BASIS = ("0,0", "1,1")
MZI_SOURCE_BASIS = ("2,0", "1,1", "0,2")
PATH_BASIS = ("A1A2", "B1B2")
RAIL_BASIS = ("A1A2", "A1B2", "B1A2", "B1B2")


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Complex amplitudes over a declared ket basis, normalized to 1."""

    basis: tuple[str, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != len(self.basis):
            raise UsageError(
                f"need one amplitude per ket: {len(self.basis)} kets, shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state norm^2 = {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, ket: str) -> complex:
        try:
            return complex(self.amplitudes[self.basis.index(ket)])
        except ValueError:
            return 0.0

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def time_bin_state(alpha: float) -> TwoModeState:
    """(|0,0> + e^{2i alpha} |1,1>)/sqrt(2) over front/rear time bins."""
    inv = 1.0 / sqrt(2.0)
    return TwoModeState(TIME_BIN_BASIS, np.array([inv, inv * np.exp(2j * alpha)]))


def mzi_source_state(theta: float) -> TwoModeState:
    """Post-interference source state over {|2,0>, |1,1>, |0,2>}.

    Bunch part (1 + e^{2i theta})/(2 sqrt 2) * (-|2,0> + |0,2>), anti-bunch
    part i (1 - e^{2i theta})/2 * |1,1>.  theta = pi/2 leaves pure |1,1>.
    """
    bunch = (1.0 + np.exp(2j * theta)) / (2.0 * sqrt(2.0))
    anti = 1j * (1.0 - np.exp(2j * theta)) / 2.0
    return TwoModeState(MZI_SOURCE_BASIS, np.array([-bunch, anti, bunch]))


def path_entangled_state(alpha: float) -> TwoModeState:
    """(|A1,A2> + e^{2i alpha} |B1,B2>)/sqrt(2); both sources at theta = pi/2."""
    inv = 1.0 / sqrt(2.0)
    return TwoModeState(PATH_BASIS, np.array([inv, inv * np.exp(2j * alpha)]))


def product_rail_state(signal_amps, idler_amps) -> TwoModeState:
    """Tensor product of per-photon rail amplitudes (A, B); for comparisons."""
    s = np.asarray(signal_amps, dtype=complex)
    i = np.asarray(idler_amps, dtype=complex)
    if s.shape != (2,) or i.shape != (2,):
        raise UsageError("signal and idler amplitudes must each have shape (2,)")
    s = s / np.linalg.norm(s)
    i = i / np.linalg.norm(i)
    return TwoModeState(RAIL_BASIS, np.kron(s, i))


def rotation_z(phi: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * phi), 0.0], [0.0, np.exp(0.5j * phi)]])


def rotation_y(chi: float) -> np.ndarray:
    h = 0.5 * chi
    return np.array([[cos(h), -sin(h)], [sin(h), cos(h)]])


def _rail_vector(state: TwoModeState) -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    for ket, amp in zip(state.basis, state.amplitudes):
        try:
            vec[RAIL_BASIS.index(ket)] = amp
        except ValueError:
            raise UsageError(
                f"ket {ket!r} is not a two-rail ket; expected subset of {RAIL_BASIS}"
            ) from None
    return vec


def analyzer_coincidence(
    state: TwoModeState,
    rz_signal: float,
    ry_signal: float,
    rz_idler: float,
    ry_idler: float,
    detector_pair: tuple[int, int] = (0, 0),
) -> float:
    """Coincidence probability after per-photon Rz-then-Ry analyzer rotations.

    ``state`` must live on the two-rail basis (e.g. the path-entangled state).
    ``detector_pair`` picks the signal/idler detector (0 = rotated A rail).
    """
    ds, di = detector_pair
    if ds not in (0, 1) or di not in (0, 1):
        raise UsageError(f"detector indices must be 0 or 1, got {detector_pair!r}")
    u_signal = rotation_y(ry_signal) @ rotation_z(rz_signal)
    u_idler = rotation_y(ry_idler) @ rotation_z(rz_idler)
    out = np.kron(u_signal, u_idler) @ _rail_vector(state)
    return float(np.abs(out[2 * ds + di]) ** 2)


def fringe_visibility(probabilities) -> float:
    """(max - min)/(max + min) of a sampled fringe; 0 for an all-zero fringe."""
    probs = np.asarray(probabilities, dtype=float)
    if probs.size == 0:
        raise UsageError("cannot compute visibility of an empty fringe")
    if np.any(probs < 0.0):
        raise DomainError("probabilities must be >= 0")
    hi, lo = float(probs.max()), float(probs.min())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)
