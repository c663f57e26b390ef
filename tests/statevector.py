"""Reference correlator on the explicit truncated state vector, for tests.

The package computes the exact finite-N g2 in closed form
(correlation.exact_g2); this module builds the state instead, with atom
positions and a retrieval wavevector k0, so the tests check that identity
against an independent evaluation.
"""

import math

import numpy as np

DEFAULT_RETRIEVAL_K = np.array([0.0, 0.0, 7.902])  # rad/um, a typical optical k

TRUNCATED_AMPLITUDES = (1.0 / math.sqrt(math.e), 1.0 / math.sqrt(math.e), 1.0 / math.sqrt(2.0 * math.e))


def brute_force_g2(positions: np.ndarray, condensed, k0=None) -> float:
    """Exact correlator on the explicit truncated state.

    Builds the state vector over {vacuum, single excitations, excited pairs}
    with collective-mode phase factors, applies the collective lowering
    operator as a sparse map, and evaluates <S+ S+ S S> / <S+ S>^2 directly.
    No large-N approximation is made.  The build is O(N^2).
    """
    n = len(positions)
    pair_amp = np.asarray(condensed)
    assert pair_amp.shape == (n * (n - 1) // 2,), pair_amp.shape
    k0 = DEFAULT_RETRIEVAL_K if k0 is None else np.asarray(k0, dtype=float)
    c0, c1, c2 = TRUNCATED_AMPLITUDES

    phase = np.exp(1j * positions @ k0)  # e^{i k0 . r_mu}
    mu, nu = np.triu_indices(n, 1)
    npairs = len(mu)

    # state vector: [vacuum, singles (N), pairs (npairs)]
    psi_vac = c0
    psi_single = c1 * phase / math.sqrt(n)
    psi_pair = c2 * phase[mu] * phase[nu] * pair_amp / math.sqrt(npairs)

    # S maps pairs -> singles and singles -> vacuum, with e^{-i k0 . r} factors
    s_single = np.zeros(n, dtype=complex)  # singles component of S|psi>
    np.add.at(s_single, nu, psi_pair * np.conj(phase[mu]))
    np.add.at(s_single, mu, psi_pair * np.conj(phase[nu]))
    s_single /= math.sqrt(n)
    s_vac = np.sum(psi_single * np.conj(phase)) / math.sqrt(n)

    norm_s = abs(s_vac) ** 2 + float(np.sum(np.abs(s_single) ** 2))

    ss_vac = np.sum(s_single * np.conj(phase)) / math.sqrt(n)
    norm_ss = abs(ss_vac) ** 2

    if norm_s == 0.0:
        return 0.0
    return norm_ss / norm_s**2
