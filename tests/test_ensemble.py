import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist, squareform

from ryddephase.ensemble import (
    EnsembleSpec,
    _close_pairs,
    PackingError,
    round_robin_orientations,
    round_robin_separations,
    sample_positions,
)

from reference import pair_geometry, round_robin_pairs


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(1, 60.0, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(10, -1.0, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(10, 60.0, 0, min_separation=0.0)
    with pytest.raises(ValueError):
        EnsembleSpec(10, 60.0, -5)


def test_two_atoms_contained_and_separated():
    positions = sample_positions(EnsembleSpec(2, 60.0, seed=123))
    assert positions.shape == (2, 3)
    assert np.all(positions >= 0.0) and np.all(positions <= 60.0)
    assert np.linalg.norm(positions[0] - positions[1]) >= 0.1


def test_sampled_positions_are_read_only():
    positions = sample_positions(EnsembleSpec(5, 60.0, seed=4))
    assert not positions.flags.writeable
    with pytest.raises(ValueError):
        positions[0, 0] = 1.0


def test_determinism_bit_identical():
    a = sample_positions(EnsembleSpec(50, 60.0, seed=987654321))
    b = sample_positions(EnsembleSpec(50, 60.0, seed=987654321))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = sample_positions(EnsembleSpec(50, 60.0, seed=1))
    b = sample_positions(EnsembleSpec(50, 60.0, seed=2))
    assert not np.array_equal(a, b)


def test_min_separation_enforced():
    spec = EnsembleSpec(80, 10.0, seed=5, min_separation=1.0)
    positions = sample_positions(spec)
    assert pdist(positions).min() >= 1.0


def test_impossible_packing_raises_diagnostic():
    # 500 atoms with 2 um exclusion cannot fit a 4 um cube
    with pytest.raises(RuntimeError, match="could not place"):
        sample_positions(EnsembleSpec(500, 4.0, seed=5, min_separation=2.0))


def sequential_sample_positions(spec):
    """Rejection one candidate at a time: the stream sample_positions must reproduce."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, eps = spec.n_atoms, spec.min_separation
    points = np.empty((n, 3))
    placed = attempts = 0
    while placed < n:
        if attempts >= 1000 * n:
            raise PackingError(
                f"could not place {n} atoms with min separation {eps} um in a "
                f"{spec.box_side} um cube after {attempts} draws "
                f"({placed} placed); lower the density or min_separation"
            )
        candidate = rng.uniform(0.0, spec.box_side, size=3)
        attempts += 1
        if placed and np.sum((points[:placed] - candidate) ** 2, axis=1).min() < eps * eps:
            continue
        points[placed] = candidate
        placed += 1
    return points


@pytest.mark.parametrize(
    "n, box, min_sep",
    [
        (2, 60.0, 0.1),
        (100, 60.0, 0.1),  # dilute: the first n draws all pass
        (300, 60.0, 0.1),
        (100, 60.0, 3.0),  # some of the first n draws collide with each other
        (200, 20.0, 1.5),  # dense: many blocks, many rejections
        (30, 3.0, 1.0),  # barely possible
    ],
)
def test_sample_positions_equal_sequential_rejection(n, box, min_sep):
    for seed in (1, 11, 2**63 + 5):
        spec = EnsembleSpec(n, box, seed, min_separation=min_sep)
        assert np.array_equal(sample_positions(spec), sequential_sample_positions(spec))


@pytest.mark.parametrize("n, box, min_sep, seed", [(20, 2.0, 1.5, 7), (40, 2.0, 1.0, 3)])
def test_impossible_packing_fails_as_sequential_rejection_does(n, box, min_sep, seed):
    spec = EnsembleSpec(n, box, seed, min_separation=min_sep)
    with pytest.raises(PackingError) as want:
        sequential_sample_positions(spec)
    with pytest.raises(PackingError) as got:
        sample_positions(spec)
    assert str(got.value) == str(want.value)
    assert f"after {1000 * n} draws" in str(got.value)



# ---------------------------------------------------------------------------
# the sorted-window screen against the dense N x N test it replaced
# ---------------------------------------------------------------------------


def dense_too_close(a, b, eps2, rows=512):
    """(len(a), len(b)) mask of point pairs with (dx^2 + dy^2) + dz^2 < eps2, built in blocks of rows."""
    mask = np.empty((len(a), len(b)), dtype=bool)
    for lo in range(0, len(a), rows):
        d2 = np.zeros((len(a[lo : lo + rows]), len(b)))
        for k in range(3):
            d = np.subtract.outer(a[lo : lo + rows, k], b[:, k])
            d *= d
            d2 += d
        mask[lo : lo + rows] = d2 < eps2
    return mask


def dense_sample_positions(spec):
    """The sampler as it screened with dense masks: first n candidates together, then blocks of 256."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, eps = spec.n_atoms, spec.min_separation
    eps2 = eps * eps
    points = np.empty((n, 3))
    placed = attempts = 0
    block = n
    while placed < n:
        if attempts >= 1000 * n:
            raise PackingError("stalled")
        candidates = rng.uniform(0.0, spec.box_side, size=(min(block, 1000 * n - attempts), 3))
        attempts += len(candidates)
        survivors = np.flatnonzero(~dense_too_close(candidates, points[:placed], eps2).any(axis=1))
        close = dense_too_close(candidates[survivors], candidates[survivors], eps2)
        np.fill_diagonal(close, False)
        keep = np.ones(len(survivors), dtype=bool)
        for i in np.flatnonzero(close.any(axis=1)):
            keep[i] = not (close[i, :i] & keep[:i]).any()
        accepted = survivors[keep][: n - placed]
        points[placed : placed + len(accepted)] = candidates[accepted]
        placed += len(accepted)
        block = 256
    return points


def screened(points, eps, others=None):
    """The pairs _close_pairs finds, as a mask of the dense test's shape (symmetric for one set)."""
    i, j = _close_pairs(points, eps, others)
    mask = np.zeros((len(points), len(points if others is None else others)), dtype=bool)
    mask[i, j] = True
    if others is None:
        assert not (i == j).any()
        assert mask.sum() == len(i)  # each pair found once
        mask |= mask.T
    return mask


def assert_screen_matches_dense(points, eps, others=None):
    want = dense_too_close(points, points if others is None else others, eps * eps)
    if others is None:
        np.fill_diagonal(want, False)
    assert np.array_equal(screened(points, eps, others), want)
    return int(want.sum())


@pytest.mark.parametrize(
    "n, box, eps",
    [
        (300, 60.0, 3.0),  # dilute
        (400, 10.0, 1.0),  # dense
        (30, 3.0, 1.0),  # near stalling: the "barely possible" packing
        (1000, 5.0, 0.5),  # most candidates have a close partner
    ],
)
def test_sorted_window_screen_finds_exactly_the_dense_pairs(n, box, eps):
    rng = np.random.Generator(np.random.PCG64(n))
    points = rng.uniform(0.0, box, size=(n, 3))
    block = min(256, n // 3)  # a block of candidates against the points placed before it, and the reverse
    assert assert_screen_matches_dense(points, eps) > 0
    assert assert_screen_matches_dense(points[:block], eps, points[block:]) > 0
    assert assert_screen_matches_dense(points[block:], eps, points[:block]) > 0


@pytest.mark.parametrize("offset", [0.0, 0.3, 17.0, 1.0e3, 1.0e6])
@pytest.mark.parametrize("eps", [0.1, 1.0, 3.7])
def test_sorted_window_screen_at_one_ulp_from_eps(offset, eps):
    # pairs along x (dy = dz = 0) whose dx is the nearest floats around eps, at coordinates of several sizes
    ends = [offset + eps]
    for _ in range(3):
        ends = [np.nextafter(ends[0], -np.inf), *ends, np.nextafter(ends[-1], np.inf)]
    points = np.zeros((1 + len(ends), 3))
    points[:, 0] = [offset, *ends]
    points[:, 1:] = [2.5, -1.0]
    flagged = assert_screen_matches_dense(points[:1], eps, points[1:])
    assert 0 < flagged < len(ends)  # the boundary falls inside the nudged ends
    assert_screen_matches_dense(points[1:], eps, points[:1])
    assert_screen_matches_dense(points, eps)


@pytest.mark.parametrize("n", [60, 300, 1000, 4000])
@pytest.mark.parametrize("density", [1, 27, 343])  # the fig2 density and 3^3, 7^3 times it
def test_sample_positions_equal_the_dense_sampler(n, density):
    box = 60.0 * (n / 300) ** (1 / 3) / round(density ** (1 / 3))
    for seed in (1, 2, 3):
        spec = EnsembleSpec(n, box, seed)
        assert np.array_equal(sample_positions(spec), dense_sample_positions(spec))


@pytest.mark.parametrize("n", [1000, 4000])
def test_sample_positions_memory_is_a_few_times_its_result(n):
    # N x N masks took 1010x and 4004x the (N, 3) result at these sizes
    spec = EnsembleSpec(n, 60.0 * (n / 300) ** (1 / 3), seed=2)
    sample_positions(spec)
    tracemalloc.start()
    try:
        positions = sample_positions(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * positions.nbytes

def test_all_separations_within_bounds():
    spec = EnsembleSpec(100, 60.0, seed=77)
    positions = sample_positions(spec)
    r = pdist(positions)
    assert len(r) == 100 * 99 // 2
    assert r.min() >= spec.min_separation
    assert r.max() <= math.sqrt(3.0) * 60.0


def test_mean_pair_separation_matches_uniform_cube_constant():
    """Empirical mean distance vs an independent plain-uniform estimate.

    The package sampler (with its tiny exclusion radius) and a direct uniform
    sampler must agree on the mean pair distance, about 0.6617 L.
    """
    n, L = 100, 60.0
    means = []
    for seed in range(40):
        positions = sample_positions(EnsembleSpec(n, L, seed=seed))
        means.append(pdist(positions).mean())
    measured = float(np.mean(means))

    rng = np.random.Generator(np.random.PCG64(991199))
    ref = []
    for _ in range(40):
        pts = rng.uniform(0.0, L, size=(n, 3))
        d = pts[:, None, :] - pts[None, :, :]
        r = np.sqrt((d**2).sum(-1))
        ref.append(r[np.triu_indices(n, 1)].mean())
    reference = float(np.mean(ref))

    assert measured == pytest.approx(reference, rel=0.01)
    assert measured == pytest.approx(0.661707 * L, rel=0.01)


def axis_geometry(a, b):
    """(R, polar angle) of the axis a - b: slot (0, 0) of round_robin_orientations over [b, a]."""
    r, theta = round_robin_orientations(np.array([b, a], dtype=float))
    return r[0, 0], theta[0, 0]


def test_pair_geometry_axis_aligned():
    r, theta = axis_geometry((0.0, 0.0, 0.0), (0.0, 0.0, 5.0))
    assert r == pytest.approx(5.0)
    assert theta == pytest.approx(math.pi)  # a - b points along -z
    _, theta = axis_geometry((0.0, 0.0, 5.0), (0.0, 0.0, 0.0))
    assert theta == pytest.approx(0.0)


def test_pair_geometry_345_triangle():
    r, theta = axis_geometry((3.0, 4.0, 0.0), (0.0, 0.0, 0.0))
    assert r == pytest.approx(5.0)
    assert theta == pytest.approx(math.pi / 2)


def test_pair_geometry_rejects_coincident_points():
    with pytest.raises(ValueError):
        axis_geometry((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6))
def test_pair_geometry_swap_symmetry(coords):
    a = np.array(coords[:3])
    b = np.array(coords[3:])
    if np.linalg.norm(a - b) < 1e-6:
        return
    # two atoms fill two slots: (0, 0) along b - a, (1, 0) along a - b
    r, theta = round_robin_orientations(np.array([a, b]))
    assert r[1, 0] == pytest.approx(r[0, 0], rel=1e-12)
    assert theta[1, 0] == pytest.approx(math.pi - theta[0, 0], abs=1e-9)
    # the azimuth, which the package drops as a gauge, turns by pi (the scalar reference keeps it)
    if 1e-6 < theta[0, 0] < math.pi - 1e-6:
        d_phi = (pair_geometry(a, b).azimuth - pair_geometry(b, a).azimuth) % (2.0 * math.pi)
        assert d_phi == pytest.approx(math.pi, abs=1e-6)


def test_round_robin_pairs_name_each_slots_atoms_lower_index_first():
    lo, hi = round_robin_pairs(4)
    # slot (mu, k - 1) is the pair of mu and (mu + k) mod 4; the pairs (0, 2) and (1, 3) have two slots
    assert list(zip(lo.ravel().tolist(), hi.ravel().tolist())) == [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 2), (0, 3), (1, 3),
    ]


@pytest.mark.parametrize("n", [2, 3, 41, 300])
def test_pair_separations_equal_scipy_pdist_bit_for_bit(n):
    # every condensed pair gets a round-robin slot, and its bits are pdist's
    for seed in (0, 1, 11, 2**63 + 5):
        positions = sample_positions(EnsembleSpec(n, 60.0, seed))
        full = np.full((n, n), np.nan)
        full[round_robin_pairs(n)] = round_robin_separations(positions)
        assert full[np.triu_indices(n, 1)].tobytes() == pdist(positions).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 41, 300, 301])
def test_round_robin_separations_are_the_condensed_bits(n):
    for seed in (0, 1, 11, 2**63 + 5):
        positions = sample_positions(EnsembleSpec(n, 60.0, seed))
        got = round_robin_separations(positions)
        assert got.tobytes() == squareform(pdist(positions))[round_robin_pairs(n)].tobytes()


@pytest.mark.parametrize("pair_function, peak_mb", [(round_robin_separations, 10.0), (round_robin_orientations, 28.0)])
def test_round_robin_geometry_memory_is_bounded(pair_function, peak_mb):
    # at N = 1000 one (n, n // 2) float plane is 4.0 MB
    positions = sample_positions(EnsembleSpec(1000, 60.0, seed=4))
    tracemalloc.start()
    try:
        pair_function(positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_mb * 1e6
