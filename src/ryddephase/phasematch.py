"""Multi-beam wavevector mismatch, spin-wave periods, off-axis zero solutions.

A stored collective excitation carries the signed sum of the driving photon
wavevectors; its spatial period 2pi/|dk| sets how fast thermal motion washes
out the retrieval interference.  Driving the excitation through several
photons opens enough geometric freedom to null the mismatch entirely, at
which point the period diverges and motional dephasing is eliminated.
"""

import math
from dataclasses import dataclass

import numpy as np

#: below this residual (rad/um) a mismatch counts as zero: the corresponding
#: period exceeds 6e9 um, i.e. infinite on any realistic sample scale.
EPS_K = 1e-9

_TWO_PI_NM_TO_UM = 2000.0 * math.pi  # k [rad/um] = this / wavelength [nm]


class PhaseMatchInfeasible(ValueError):
    """No zero-mismatch geometry exists within the search space."""


@dataclass(frozen=True, eq=False)
class Beam:
    """One photon of the excitation ladder.

    sign +1 adds +k (absorbed photon), -1 adds -k (emitted or counter-acting).
    direction must be a unit vector.
    """

    wavelength: float  # nm
    sign: int
    direction: np.ndarray

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        d = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction", d)
        if d.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector (|d| = 1 to 1e-12)")

    @property
    def k(self) -> float:
        """Wavenumber magnitude in rad/um."""
        return _TWO_PI_NM_TO_UM / self.wavelength


@dataclass(frozen=True, eq=False)
class PhaseMatchResult:
    mismatch: np.ndarray  # rad/um
    period: float  # um, math.inf when matched
    coherence_time: float  # us, math.inf when matched


def wavevector_mismatch(beams) -> np.ndarray:
    """Signed sum of beam wavevectors, rad/um."""
    beams = list(beams)
    if not beams:
        raise ValueError("need at least one beam")
    total = np.zeros(3)
    for b in beams:
        total += b.sign * b.k * b.direction
    return total


def spinwave_period(mismatch) -> float:
    """Spatial period 2pi/|dk| of the stored excitation, um (inf when matched)."""
    norm = float(np.linalg.norm(np.asarray(mismatch, dtype=float)))
    if norm <= EPS_K:
        return math.inf
    return 2.0 * math.pi / norm


def motional_coherence_time(period: float, speed: float) -> float:
    """Dephasing time period/(2 pi v) in us, for period in um and speed in m/s.

    1 m/s equals 1 um/us, so no numeric conversion is needed.
    """
    if not speed > 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if period == math.inf:
        return math.inf
    if not period > 0:
        raise ValueError(f"period must be positive, got {period}")
    return period / (2.0 * math.pi * speed)


def evaluate_beams(beams, speed: float) -> PhaseMatchResult:
    mismatch = wavevector_mismatch(beams)
    period = spinwave_period(mismatch)
    return PhaseMatchResult(mismatch, period, motional_coherence_time(period, speed))


def _planar_directions(tilts: np.ndarray) -> np.ndarray:
    """Unit directions in the xz plane, first beam fixed along +z."""
    angles = np.concatenate([[0.0], np.asarray(tilts, dtype=float)])
    return np.stack([np.sin(angles), np.zeros_like(angles), np.cos(angles)], axis=1)


def _mismatch_from_tilts(tilts, ks, signs) -> np.ndarray:
    dirs = _planar_directions(tilts)
    return (signs * ks) @ dirs


def solve_offaxis(wavelengths, signs):
    """Planar beam directions nulling the wavevector mismatch.

    The first beam is fixed along +z; the remaining tilt angles (radians, in
    the forward hemisphere [-pi/2, pi/2]) are found by derivative-free
    minimization of |dk|^2, multi-started from a deterministic set of guesses.
    Returns (directions, tilt_angles, residual) where directions has one unit
    row per beam and tilt_angles includes the leading fixed zero.  Raises
    PhaseMatchInfeasible when the best residual stays above EPS_K, e.g. for
    sign patterns where no cancellation is possible.
    """
    from scipy.optimize import minimize  # here, so that importing the package never loads scipy

    ks = np.array([_TWO_PI_NM_TO_UM / w for w in wavelengths], dtype=float)
    signs = np.asarray(signs, dtype=float)
    if ks.shape != signs.shape:
        raise ValueError("wavelengths and signs must have matching length")
    if len(ks) < 2:
        raise ValueError("need at least two beams")
    nfree = len(ks) - 1
    bounds = [(-0.5 * math.pi, 0.5 * math.pi)] * nfree

    def objective(tilts):
        dk = _mismatch_from_tilts(tilts, ks, signs)
        return float(dk @ dk)

    rng = np.random.Generator(np.random.PCG64(7))  # fixed: every call tries the same guesses
    guesses = [np.zeros(nfree)]
    alternating = np.array([(-1.0) ** i for i in range(nfree)])
    for scale in (0.3, 0.7, 1.2):
        guesses.append(scale * alternating)
        guesses.append(-scale * alternating)
    guesses.extend(rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(8, nfree)))

    best_x, best_val = None, math.inf
    for guess in guesses:
        x = np.asarray(guess, dtype=float)
        # two rounds of Nelder-Mead: restart sharpens terminal convergence
        for _ in range(2):
            res = minimize(
                objective,
                x,
                method="Nelder-Mead",
                bounds=bounds,
                options={"xatol": 1e-14, "fatol": 1e-28, "maxiter": 4000, "maxfev": 8000},
            )
            x = res.x
        val = objective(x)
        if val < best_val:
            best_x, best_val = x, val
        if best_val <= (0.5 * EPS_K) ** 2:
            break

    directions = _planar_directions(best_x)
    # re-verify through the public mismatch path, independent of the objective
    beams = [
        Beam(w, int(s), directions[i]) for i, (w, s) in enumerate(zip(wavelengths, signs))
    ]
    residual = float(np.linalg.norm(wavevector_mismatch(beams)))
    if residual > EPS_K:
        raise PhaseMatchInfeasible(
            f"no zero-mismatch geometry found: best residual {residual:.3e} rad/um "
            f"exceeds tolerance {EPS_K:.1e} (sign pattern may forbid cancellation)"
        )
    angles = np.concatenate([[0.0], best_x])
    return directions, angles, residual
