"""Dressing-cycle schedules, the exponential reference, and the two-mode
entanglement figure of merit.

A schedule strings together full 2pi cycles.  Repeating cycles is only
meaningful when every cycle couples the target s-level to a fresh, still
unpopulated p-level: reusing a p-level carries coherence from one cycle into
the next and the per-cycle amplitudes no longer multiply independently.
make_schedule enforces that rule.

The entanglement protocol stores two spin waves, one in (n+1)s dressed
through np_{1/2} with strength C3', one in ns dressed through np_{3/2} with
C3''.  Over a free interval t each pair picks up the phases C3' t / R^3 and
C3'' t / R^3; entangle_trace takes the two strengths, and n only labels the
levels.  The trace runs its position realizations through the same
realization loop as the correlation traces (correlation.run_realizations),
serially or on a process pool.  A realization takes R^3 in the g2 drivers'
round-robin pair order once, and one pairdyn.analytic_pair_amplitudes call
per time writes both modes, C3' and C3'' broadcast against R^3, into real
(2, 2, n, n // 2) Re and Im planes; zero_doubled_slots clears the slots that
count no pair, and each plane's pairwise sum over the pair count gives the
coherences <e^{i phi}> = 2 <A(phi)> - 1.  The order of each sum depends on
the atom count alone, so outputs are byte-identical for any worker count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlation import checked_time_grid, round_robin_cubes, run_realizations, sample_realization, zero_doubled_slots
from .pairdyn import (
    CycleSpec,
    _cycle_segments,
    _transition_indices,
    analytic_cycle_amplitude,
    analytic_pair_amplitudes,
    propagate,
    single_atom_dressing,
)


@dataclass(frozen=True)
class CycleSchedule:
    """Validated ordered cycles sharing one s-level, pairwise-distinct p-levels."""

    cycles: tuple[CycleSpec, ...]

    @property
    def total_time(self) -> float:
        """us, sum of delta_t + 2pi/Omega over cycles."""
        return math.fsum(c.duration for c in self.cycles)

    def __len__(self) -> int:
        return len(self.cycles)


def make_schedule(specs) -> CycleSchedule:
    """Validate cycle specs into a schedule.

    Rejects an empty list, mismatched s-levels, and any repeated dressing
    (n', j) p-level, naming the offending cycle indices.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("schedule needs at least one cycle")
    s0 = specs[0].channel.s_n
    seen: dict[tuple[int, float], int] = {}
    for i, spec in enumerate(specs):
        if spec.channel.s_n != s0:
            raise ValueError(
                f"cycle {i} uses s-level {spec.channel.s_n}s, schedule started with {s0}s; "
                "all cycles must share the target level"
            )
        key = spec.channel.p_key
        if key in seen:
            raise ValueError(
                f"cycles {seen[key]} and {i} reuse the dressing p-level "
                f"(n'={key[0]}, j={key[1]}); every cycle must couple to a fresh "
                "unpopulated p-level"
            )
        seen[key] = i
    return CycleSchedule(specs)


def decay_reference(tau: float, t: float) -> float:
    """Exponential reference e^{-t/tau} plotted against the cycle trace."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return math.exp(-t / tau)


def single_excitation_survival(schedule: CycleSchedule) -> complex:
    """Amplitude for a lone excited atom to return to |s m0> through the schedule.

    Each cycle is a full single-particle 2pi rotation, so the magnitude is 1
    up to the fixed frame phase; this propagates the single-atom dynamics
    numerically rather than asserting it.
    """
    amp = 1.0 + 0.0j
    for cyc in schedule.cycles:
        spec = cyc.microwave
        h1 = single_atom_dressing(cyc.channel, spec).astype(complex)
        u = propagate(_cycle_segments(h1, np.zeros_like(h1), spec.rabi, cyc.delta_t, True))
        i_s, _ = _transition_indices(cyc.channel, spec)
        amp *= complex(u[i_s, i_s])
    return amp


# ---------------------------------------------------------------------------
# two-spin-wave entanglement
# ---------------------------------------------------------------------------


def entangle_fidelity(phi_prime, phi) -> float:
    """Projection fidelity onto the phase-matched two-mode target state.

    With pair coherences m1 = <e^{i phi'}> and m2 = <e^{i phi}> over pairs,
    the cross terms carry weight |m1|^2 + |m2|^2 relative to the two target
    components, giving F = 2 / (2 + |m1|^2 + |m2|^2): 1/2 with no dephasing,
    approaching 1 when both coherences average to zero.  Raises ValueError
    unless both phase sequences are nonempty, of one shape and finite.
    """
    phi_prime = np.asarray(phi_prime, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if phi_prime.size == 0 or phi.size == 0:
        raise ValueError("entangle_fidelity needs a nonempty pair set")
    if phi_prime.shape != phi.shape:
        raise ValueError("phase sequences must cover the same pair set")
    if not (np.isfinite(phi_prime).all() and np.isfinite(phi).all()):
        raise ValueError("entangle_fidelity needs finite phases")
    amplitudes = analytic_cycle_amplitude(np.stack([phi_prime.ravel(), phi.ravel()]))
    return _fidelity_terms(np.stack([amplitudes.real, amplitudes.imag]), phi.size)[0]


def _fidelity_terms(planes: np.ndarray, pairs: int) -> tuple[float, float, float]:
    """F, |m1| and |m2| from the pair coherences <e^{i phi}> = 2 <A(phi)> - 1 over pairs pairs.

    planes holds the cycle amplitudes A = (1 + e^{i phi}) / 2 as
    [Re, Im] x [mode] x slot, 0 in a slot that counts no pair; each sum is
    numpy's pairwise sum of one contiguous plane, in an order fixed by its size.
    """
    (re1, re2), (im1, im2) = (planes.reshape(2, 2, -1).sum(axis=2) / pairs).tolist()
    m1, m2 = abs(complex(2.0 * re1 - 1.0, 2.0 * im1)), abs(complex(2.0 * re2 - 1.0, 2.0 * im2))
    return 2.0 / (2.0 + m1**2 + m2**2), m1, m2


def _entangle_single_realization(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F, |m1| and |m2| of one realization at every grid time, both modes per kernel call."""
    ensemble, c3_prime, c3_second, grid, index = args
    _, positions = sample_realization(ensemble, index)
    cubes = round_robin_cubes(positions)
    c3 = np.array([c3_prime, c3_second])[:, None, None]
    planes = np.empty((2, 2, *cubes.shape))  # [Re, Im] x [C3', C3''] x round-robin slot
    pairs = len(positions) * (len(positions) - 1) // 2
    out = np.empty((3, len(grid)))
    for it, t in enumerate(grid):
        analytic_pair_amplitudes(cubes, c3 * t, planes)
        zero_doubled_slots(planes)
        out[:, it] = _fidelity_terms(planes, pairs)
    return tuple(out)


def entangle_trace(
    ensemble_spec, c3_prime: float, c3_second: float, grid, realizations: int = 100, pool=None
):
    """Fidelity and coherence magnitudes versus interval length.

    Returns (F, |m1|, |m2|) averaged over position realizations, which run
    on the pool when one is given (the result does not depend on it), and
    the realization seeds.  Raises ValueError unless c3_prime and c3_second
    are finite and > 0 and the grid is a nonempty 1-D sequence of finite
    times >= 0.
    """
    for name, c3 in (("c3_prime", c3_prime), ("c3_second", c3_second)):
        if not (math.isfinite(c3) and c3 > 0):
            raise ValueError(f"{name} must be finite and > 0, got {c3}")
    params = (c3_prime, c3_second, checked_time_grid(grid))
    (fs, m1s, m2s), seeds = run_realizations(
        _entangle_single_realization, ensemble_spec, params, realizations, pool
    )
    return fs.mean(axis=0), m1s.mean(axis=0), m2s.mean(axis=0), seeds
