"""Dressing-cycle schedules, the exponential reference, and the two-mode
entanglement figure of merit.

A schedule strings together full 2pi cycles.  Repeating cycles is only
meaningful when every cycle couples the target s-level to a fresh, still
unpopulated p-level: reusing a p-level carries coherence from one cycle into
the next and the per-cycle amplitudes no longer multiply independently.
make_schedule enforces that rule.  A lone excitation comes back through every
cycle (a full 2pi rotation): the tests propagate that with their scalar
reference, which the package does not carry.

The entanglement protocol stores two spin waves, one in (n+1)s dressed
through np_{1/2} with strength C3', one in ns dressed through np_{3/2} with
C3''.  entangle_trace takes the two as cycle specs with no free interval of
their own, and over a free interval t each pair picks up the phases
C3' t / R^3 and C3'' t / R^3.  The trace runs its position realizations
through the one realization task of the correlation traces
(correlation.run_realizations), which calls _entangle_points on each
realization's positions.  That draws each mode's amplitude function from the
same sources as correlation.g2_trace (_cycle_sources) and runs the
grid through their one block loop (correlation.block_points), which owns
the planes.  Per block, each source writes its mode's amplitudes into the
planes, which both modes reuse, and their means give every time's coherence
<e^{i phi}> = 2 <A(phi)> - 1; F is 2 / (2 + |m1|^2 + |m2|^2) of the two
coherences (_fidelity_terms).
"""

import math
from functools import partial

import numpy as np

from .correlation import _cycle_sources, block_points, checked_time_grid, run_realizations
from .pairdyn import CycleSpec


def make_schedule(specs) -> tuple[CycleSpec, ...]:
    """The cycle specs as a tuple, validated as a schedule.

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
    return specs


def decay_reference(tau: float, t: float) -> float:
    """Exponential reference e^{-t/tau} plotted against the cycle trace."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return math.exp(-t / tau)


# ---------------------------------------------------------------------------
# two-spin-wave entanglement
# ---------------------------------------------------------------------------


def _fidelity_terms(means) -> tuple[float, float, float]:
    """F, |m1| and |m2| from the two modes' mean amplitudes (Re <A>, Im <A>).

    The cycle amplitude is A = (1 + e^{i phi}) / 2, so the pair coherence
    is <e^{i phi}> = 2 <A> - 1.
    """
    (re1, im1), (re2, im2) = means
    m1, m2 = abs(complex(2.0 * re1 - 1.0, 2.0 * im1)), abs(complex(2.0 * re2 - 1.0, 2.0 * im2))
    return 2.0 / (2.0 + m1**2 + m2**2), m1, m2


def _entangle_block(sources, planes, times: np.ndarray) -> list:
    """(F, |m1|, |m2|) at each time of a block: each mode writes the planes, then reads their means."""
    means = []
    for source in sources:
        source(times, planes.owned)
        means.append(planes.means().T.tolist())
    return [_fidelity_terms(pair) for pair in zip(*means)]


def _entangle_points(positions: np.ndarray, modes, grid) -> np.ndarray:
    """F, |m1| and |m2| of one realization at every grid time, shape (3, T)."""
    sources = list(_cycle_sources(positions, modes, "analytic"))
    return block_points(len(positions), grid, partial(_entangle_block, sources))


def entangle_trace(ensemble_spec, modes, grid, realizations: int = 100, pool=None):
    """Fidelity and coherence magnitudes versus interval length.

    modes are the two stored spin waves' cycle specs, the (n+1)s - np_1/2
    one first; each grid time is their free interval.  Returns (F, |m1|,
    |m2|) averaged over position realizations, which run on the pool when
    one is given (the result does not depend on it), and the realization
    seeds.  Raises ValueError unless there are exactly two modes and the
    grid is a nonempty 1-D sequence of finite times >= 0.
    """
    modes = tuple(modes)
    if len(modes) != 2:
        raise ValueError(f"entangle_trace needs exactly two modes, got {len(modes)}")
    params = (modes, checked_time_grid(grid))
    (fs, m1s, m2s), seeds = run_realizations(_entangle_points, ensemble_spec, params, realizations, pool)
    return fs.mean(axis=0), m1s.mean(axis=0), m2s.mean(axis=0), seeds
