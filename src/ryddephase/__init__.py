"""Dephasing of microwave-dressed Rydberg pair excitations.

Simulates the survival of multiply excited collective states through Ramsey
style dressing cycles in a frozen atomic ensemble, assembles the second-order
correlation of the retrieved collective mode from per-pair amplitudes, scores
a two-mode entanglement protocol, and solves multi-photon phase-matching
geometries.
"""

__version__ = "0.1.0"

from .atomdata import (
    InteractionModel,
    Level,
    MicrowaveSpec,
    RydbergChannel,
    c3_of,
    clebsch_gordan,
    coupling_weight,
    pair_dimension,
)
from .correlation import (
    G2Point,
    G2Trace,
    brute_force_g2,
    g2_after_cycles,
    g2_from_amplitudes,
    g2_trace,
)
from .ensemble import (
    EnsembleGeometry,
    EnsembleSpec,
    PairGeometry,
    pair_geometry,
    sample_positions,
)
from .pairdyn import (
    CycleSpec,
    NumericsError,
    analytic_cycle_amplitude,
    cycle_amplitude_numeric,
    propagate,
)
from .phasematch import (
    Beam,
    PhaseMatchResult,
    motional_coherence_time,
    solve_offaxis,
    spinwave_period,
    wavevector_mismatch,
)
from .protocol import (
    CycleSchedule,
    decay_reference,
    entangle_fidelity,
    make_schedule,
    single_excitation_survival,
)
