"""Atomic level bookkeeping, interaction-strength models, microwave coupling weights.

Unit system used throughout the package: lengths in um, times in us, angular
frequencies in rad/us, hbar = 1.  Interaction strengths C3 then carry
rad/us * um^3 and every accumulated phase C3 * t / R^3 is dimensionless.
"""

import math
from dataclasses import dataclass

ORBITAL_S = "s"
ORBITAL_P = "p"

POLARIZATIONS = ("pi", "sigma_plus", "sigma_minus")
PULSE_MODELS = ("instantaneous", "finite_duration")

_DELTA_M = {"pi": 0.0, "sigma_plus": 1.0, "sigma_minus": -1.0}

# Zeeman sublevel populated by the excitation stage (optical pumping selects
# a single sublevel of the target s-state).  Pulse areas are normalized on
# the transition driven out of this sublevel.
POPULATED_M = 0.5


def _is_half_integer(x: float) -> bool:
    return abs(2.0 * x - round(2.0 * x)) < 1e-9


def delta_m_for(polarization: str) -> float:
    """Magnetic quantum number change driven by a given microwave polarization."""
    try:
        return _DELTA_M[polarization]
    except KeyError:
        raise ValueError(
            f"unknown polarization {polarization!r}, expected one of {POLARIZATIONS}"
        ) from None


@dataclass(frozen=True)
class Level:
    """A fine-structure Rydberg level, optionally pinned to a Zeeman sublevel.

    ``m is None`` denotes the whole (n, l, j) manifold; that form is used in
    channel definitions.  Basis states and coupling weights require concrete m.
    """

    n: int
    l: str
    j: float
    m: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got {self.n}")
        if self.l not in (ORBITAL_S, ORBITAL_P):
            raise ValueError(f"orbital label must be 's' or 'p', got {self.l!r}")
        if not _is_half_integer(self.j) or self.j <= 0:
            raise ValueError(f"j must be a positive half-integer, got {self.j}")
        if self.l == ORBITAL_S and abs(self.j - 0.5) > 1e-9:
            raise ValueError("s levels carry j = 1/2")
        if self.l == ORBITAL_P and not (
            abs(self.j - 0.5) < 1e-9 or abs(self.j - 1.5) < 1e-9
        ):
            raise ValueError("p levels carry j = 1/2 or 3/2")
        if self.m is not None:
            if not _is_half_integer(self.m):
                raise ValueError(f"m must be half-integer, got {self.m}")
            if abs(self.m) > self.j + 1e-9:
                raise ValueError(f"|m| = {abs(self.m)} exceeds j = {self.j}")
            if abs((self.j - self.m) - round(self.j - self.m)) > 1e-9:
                raise ValueError(f"m = {self.m} is not in the j = {self.j} ladder")

    def with_m(self, m: float) -> "Level":
        return Level(self.n, self.l, self.j, m)


@dataclass(frozen=True)
class RydbergChannel:
    """A target s-level plus the single dressing p-level, with its C3 strength.

    The channel fixes the two-atom Hilbert space: each atom spans the two s
    sublevels and the 2j+1 sublevels of the p-level.
    """

    s_level: Level
    p_level: Level
    c3: float  # rad/us * um^3

    def __post_init__(self):
        if self.s_level.l != ORBITAL_S:
            raise ValueError("channel s_level must be an s level")
        if self.p_level.l != ORBITAL_P:
            raise ValueError("channel p_level must be a p level")
        if self.s_level.m is not None or self.p_level.m is not None:
            raise ValueError("channel levels are manifolds: leave m unset")
        if not self.c3 > 0:
            raise ValueError(f"c3 must be positive, got {self.c3}")

    @property
    def p_key(self) -> tuple[int, float]:
        """(n', j) identity of the dressing level, used for schedule validation."""
        return (self.p_level.n, self.p_level.j)


@dataclass(frozen=True)
class InteractionModel:
    """Power-law scaling of the channel strength with principal quantum number.

    c3(n) = reference_c3 * (n / reference_n) ** scaling_exponent
    """

    reference_c3: float
    reference_n: int
    scaling_exponent: float = 4.0

    def __post_init__(self):
        if not self.reference_c3 > 0:
            raise ValueError(f"reference_c3 must be positive, got {self.reference_c3}")
        if self.reference_n < 1:
            raise ValueError(f"reference_n must be >= 1, got {self.reference_n}")


@dataclass(frozen=True)
class MicrowaveSpec:
    """Resonant microwave drive: Rabi frequency, polarization, pulse model."""

    rabi: float  # rad/us
    polarization: str = "pi"
    pulse_model: str = "instantaneous"

    def __post_init__(self):
        if not self.rabi > 0:
            raise ValueError(f"rabi must be positive, got {self.rabi}")
        if self.polarization not in POLARIZATIONS:
            raise ValueError(f"unknown polarization {self.polarization!r}")
        if self.pulse_model not in PULSE_MODELS:
            raise ValueError(f"unknown pulse model {self.pulse_model!r}")

    @property
    def delta_m(self) -> float:
        return _DELTA_M[self.polarization]


def c3_of(n: int, model: InteractionModel) -> float:
    """Channel strength at principal quantum number n under a scaling model."""
    if n < 1:
        raise ValueError(f"principal quantum number must be >= 1, got {n}")
    return model.reference_c3 * (n / model.reference_n) ** model.scaling_exponent


def single_atom_dimension(channel: RydbergChannel) -> int:
    """Sublevel count per atom: two s states plus the 2j+1 p states."""
    return 2 + int(round(2 * channel.p_level.j + 1))


def pair_dimension(channel: RydbergChannel) -> int:
    """Dimension of the two-atom product space, (2 + (2j+1))^2."""
    return single_atom_dimension(channel) ** 2


def _fact2(two_x: int):
    """Factorial of two_x/2; None when two_x is odd or negative (invalid term)."""
    if two_x < 0 or two_x % 2:
        return None
    return math.factorial(two_x // 2)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, j: float, m: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> (Condon-Shortley phases).

    Evaluated from the closed-form factorial sum.  Returns 0.0 whenever a
    selection rule (m1 + m2 = m, triangle condition, |m| <= j) is violated.
    """
    for x in (j1, m1, j2, m2, j, m):
        if not _is_half_integer(x):
            raise ValueError(f"angular momentum arguments must be half-integers, got {x}")
    if abs(m1 + m2 - m) > 1e-9:
        return 0.0
    if abs(m1) > j1 + 1e-9 or abs(m2) > j2 + 1e-9 or abs(m) > j + 1e-9:
        return 0.0
    t1 = int(round(2 * (j1 + j2 - j)))
    t2 = int(round(2 * (j1 - j2 + j)))
    t3 = int(round(2 * (-j1 + j2 + j)))
    if t1 < 0 or t2 < 0 or t3 < 0:
        return 0.0
    norm_parts = [
        _fact2(t1),
        _fact2(t2),
        _fact2(t3),
        _fact2(int(round(2 * (j + m)))),
        _fact2(int(round(2 * (j - m)))),
        _fact2(int(round(2 * (j1 - m1)))),
        _fact2(int(round(2 * (j1 + m1)))),
        _fact2(int(round(2 * (j2 - m2)))),
        _fact2(int(round(2 * (j2 + m2)))),
    ]
    denom = _fact2(int(round(2 * (j1 + j2 + j))) + 2)
    if any(p is None for p in norm_parts) or denom is None:
        return 0.0
    norm = math.sqrt(
        (2 * j + 1) * math.prod(norm_parts) / denom
    )
    total = 0.0
    k_min = max(0.0, j2 - j - m1, j1 - j + m2)
    k_max = min(j1 + j2 - j, j1 - m1, j2 + m2)
    k = int(round(k_min))
    while k <= int(round(k_max)) + 1e-9:
        parts = [
            _fact2(2 * k),
            _fact2(int(round(2 * (j1 + j2 - j))) - 2 * k),
            _fact2(int(round(2 * (j1 - m1))) - 2 * k),
            _fact2(int(round(2 * (j2 + m2))) - 2 * k),
            _fact2(int(round(2 * (j - j2 + m1))) + 2 * k),
            _fact2(int(round(2 * (j - j1 - m2))) + 2 * k),
        ]
        if all(p is not None for p in parts):
            total += (-1) ** k / math.prod(parts)
        k += 1
    return norm * total


def coupling_weight(s: Level, p: Level, polarization: str) -> float:
    """Angular weight of the microwave transition between two Zeeman sublevels.

    Normalized so that the transition driven out of the populated sublevel
    (m = POPULATED_M, shifted by the polarization's delta m) has weight 1;
    pulse areas are defined on that transition.  Polarization-forbidden
    combinations return 0.
    """
    if s.l != ORBITAL_S or p.l != ORBITAL_P:
        raise ValueError("coupling_weight expects an s sublevel and a p sublevel")
    if s.m is None or p.m is None:
        raise ValueError("coupling_weight requires concrete m on both levels")
    dm = delta_m_for(polarization)
    if abs((p.m - s.m) - dm) > 1e-9:
        return 0.0
    reference = clebsch_gordan(0.5, POPULATED_M, 1.0, dm, p.j, POPULATED_M + dm)
    if abs(reference) < 1e-12:
        raise ValueError(
            f"populated transition m={POPULATED_M} -> m={POPULATED_M + dm} is "
            f"forbidden for polarization {polarization!r} and j={p.j}"
        )
    return clebsch_gordan(0.5, s.m, 1.0, dm, p.j, p.m) / reference
