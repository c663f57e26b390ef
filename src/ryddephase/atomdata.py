"""Rydberg channels, interaction-strength models and microwave settings.

A channel holds only what varies, s_n, p_n, p_j and C3; p_level_j is the one
rule for p_j, shared by the channel and the config's C3 table.

Unit system used throughout the package: lengths in um, times in us, angular
frequencies in rad/us, hbar = 1.  Interaction strengths C3 then carry
rad/us * um^3 and every accumulated phase C3 * t / R^3 is dimensionless.
"""

import math
from dataclasses import dataclass

POLARIZATIONS = ("pi", "sigma_plus", "sigma_minus")
PULSE_MODELS = ("instantaneous", "finite_duration")

_DELTA_M = {"pi": 0.0, "sigma_plus": 1.0, "sigma_minus": -1.0}

# Zeeman sublevel populated by the excitation stage (optical pumping selects
# a single sublevel of the target s-state).  Pulse areas are normalized on
# the transition driven out of this sublevel.
POPULATED_M = 0.5


def _is_half_integer(x: float) -> bool:
    return abs(2.0 * x - round(2.0 * x)) < 1e-9


def p_level_j(j: float) -> float:
    """j of a dressing p level, snapped to the half-integer it passed as, so equal levels compare equal."""
    if not _is_half_integer(j) or j <= 0:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    j = round(2.0 * j) / 2.0
    if j not in (0.5, 1.5):
        raise ValueError("p levels carry j = 1/2 or 3/2")
    return j


@dataclass(frozen=True)
class RydbergChannel:
    """A target s_n s_1/2 level dressed through the p_n p_j level, with its C3 strength.

    The channel fixes the two-atom Hilbert space: each atom spans the two s
    sublevels and the 2j+1 sublevels of the p level.  The s level's l and j
    and the p level's l have one value each, so they are not fields.
    """

    s_n: int
    p_n: int
    p_j: float
    c3: float  # rad/us * um^3

    def __post_init__(self):
        for n in (self.s_n, self.p_n):
            if n < 1:
                raise ValueError(f"principal quantum number must be >= 1, got {n}")
        object.__setattr__(self, "p_j", p_level_j(self.p_j))
        if not 0 < self.c3 < math.inf:
            raise ValueError(f"c3 must be positive and finite, got {self.c3}")

    @property
    def p_key(self) -> tuple[int, float]:
        """(n', j) identity of the dressing level, used for schedule validation."""
        return (self.p_n, self.p_j)


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

    rabi: float = 10.0  # rad/us
    polarization: str = "pi"
    pulse_model: str = "instantaneous"

    def __post_init__(self):
        if not 0 < self.rabi < math.inf:
            raise ValueError(f"rabi must be positive and finite, got {self.rabi}")
        if self.polarization not in POLARIZATIONS:
            raise ValueError(f"unknown polarization {self.polarization!r}")
        if self.pulse_model not in PULSE_MODELS:
            raise ValueError(f"unknown pulse model {self.pulse_model!r}")

    @property
    def delta_m(self) -> float:
        return _DELTA_M[self.polarization]


def c3_of(n: int, model: InteractionModel) -> float:
    """Channel strength at principal quantum number n under a scaling model.

    Raises ValueError unless the strength is a positive finite float: a
    large scaling exponent can overflow the power, or underflow it to 0.
    """
    if n < 1:
        raise ValueError(f"principal quantum number must be >= 1, got {n}")
    try:
        c3 = model.reference_c3 * (n / model.reference_n) ** model.scaling_exponent
    except OverflowError:
        c3 = math.inf
    if not 0 < c3 < math.inf:
        raise ValueError(
            f"the scaling model gives C3 = {c3} at n = {n}, outside the float range: "
            f"{model.reference_c3} * ({n} / {model.reference_n}) ** {model.scaling_exponent}"
        )
    return c3


def single_atom_dimension(channel: RydbergChannel) -> int:
    """Sublevel count per atom: two s states plus the 2j+1 p states."""
    return 2 + int(round(2 * channel.p_j + 1))

