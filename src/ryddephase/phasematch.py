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
        if not 0 < self.wavelength < math.inf:
            raise ValueError(f"wavelength must be finite and positive, got {self.wavelength}")
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


def _planar_directions(tilts: np.ndarray) -> np.ndarray:
    """Unit directions in the xz plane, first beam fixed along +z."""
    angles = np.concatenate([[0.0], np.asarray(tilts, dtype=float)])
    return np.stack([np.sin(angles), np.zeros_like(angles), np.cos(angles)], axis=1)


def _planar_mismatch(tilts, weights) -> np.ndarray:
    """(dk_x, dk_z) of beams with signed wavenumbers weights at these free tilts."""
    return weights @ _planar_directions(tilts)[:, ::2]


def solve_offaxis(wavelengths, signs):
    """Planar beam directions nulling the wavevector mismatch.

    The first beam is fixed along +z; the other tilts (radians) come from
    Gauss-Newton on dk: minimum-norm least-squares steps clipped to
    [-pi/2, pi/2], at most 60 per guess.  A tilt at +-pi/2 whose step points
    outward is held for that step, and the step is solved on the other
    tilts, so the rate stays quadratic at the bound.  The answer is the
    first of 15 guesses, in a fixed order, whose iteration reaches
    |dk| <= EPS_K/2; it goes on while a step lowers |dk|, to roundoff.
    Returns (directions, tilt_angles, residual): one unit row per beam, and
    the tilts with the leading fixed zero.  Raises ValueError for a
    wavelength that is not finite and positive or a sign other than +-1, and
    PhaseMatchInfeasible, with the smallest final residual, when no guess
    does.
    """
    if len(wavelengths) != len(signs):
        raise ValueError("wavelengths and signs must have matching length")
    beams = [Beam(w, s, (0.0, 0.0, 1.0)) for w, s in zip(wavelengths, signs)]  # validates each beam
    if len(beams) < 2:
        raise ValueError("need at least two beams")
    weights = np.array([b.sign * b.k for b in beams])  # signed wavenumbers, rad/um
    nfree = len(weights) - 1

    rng = np.random.Generator(np.random.PCG64(7))  # fixed: every call tries the same guesses
    alternating = (-1.0) ** np.arange(nfree)
    guesses = [np.zeros(nfree)] + [scale * alternating for scale in (0.3, -0.3, 0.7, -0.7, 1.2, -1.2)]
    guesses.extend(rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(8, nfree)))

    best_x, best_val = None, math.inf
    for x in guesses:
        dk = _planar_mismatch(x, weights)
        val = math.hypot(*dk)
        for _ in range(60):
            jacobian = weights[1:] * np.stack([np.cos(x), -np.sin(x)])
            step = np.linalg.lstsq(jacobian, -dk, rcond=None)[0]
            free = (np.abs(x) < 0.5 * math.pi) | (step * x <= 0.0)
            if not free.all():
                step = np.zeros(nfree)
                step[free] = np.linalg.lstsq(jacobian[:, free], -dk, rcond=None)[0]
            trial = np.clip(x + step, -0.5 * math.pi, 0.5 * math.pi)
            trial_dk = _planar_mismatch(trial, weights)
            if val <= 0.5 * EPS_K and not math.hypot(*trial_dk) < val:
                break  # converged: a further step no longer lowers |dk|
            x, dk, val = trial, trial_dk, math.hypot(*trial_dk)
        if val < best_val:
            best_x, best_val = x, val
        if best_val <= 0.5 * EPS_K:
            break

    directions = _planar_directions(best_x)
    # re-verify through the public mismatch path, independent of the iteration
    beams = [Beam(b.wavelength, b.sign, d) for b, d in zip(beams, directions)]
    residual = float(np.linalg.norm(wavevector_mismatch(beams)))
    if residual > EPS_K:
        raise PhaseMatchInfeasible(
            f"no zero-mismatch geometry found: smallest final residual {residual:.3e} rad/um "
            f"exceeds tolerance {EPS_K:.1e} (sign pattern may forbid cancellation)"
        )
    angles = np.concatenate([[0.0], best_x])
    return directions, angles, residual
