"""Dephasing of microwave-dressed Rydberg pair excitations.

Simulates the survival of multiply excited collective states through Ramsey
style dressing cycles in a frozen atomic ensemble, assembles the second-order
correlation of the retrieved collective mode from per-pair amplitudes, scores
a two-mode entanglement protocol, and solves multi-photon phase-matching
geometries.
"""

import os

# one BLAS thread per process, before numpy loads its BLAS: the small batched
# eigh gains nothing from threads, and pool workers would oversubscribe the
# CPUs; a value the caller set wins (README, --threads)
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .atomdata import (
    InteractionModel,
    MicrowaveSpec,
    RydbergChannel,
    c3_of,
)
from .correlation import (
    G2Point,
    G2Trace,
    exact_g2,
    g2_trace,
)
from .ensemble import (
    EnsembleSpec,
    sample_positions,
)
from .pairdyn import (
    CycleSpec,
    NumericsError,
)
from .phasematch import (
    Beam,
    motional_coherence_time,
    solve_offaxis,
    spinwave_period,
    wavevector_mismatch,
)
from .protocol import (
    decay_reference,
    make_schedule,
)
