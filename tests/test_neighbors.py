import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collapselab.neighbors as neighbors
from collapselab import (
    ConfigError,
    DimensionError,
    DistanceMetric,
    EmptyDatasetError,
    EUCLIDEAN,
    FeatureMap,
    InsufficientPointsError,
    NumericalError,
    PointSet,
    kth_nn_within,
    nn_cross,
)
from collapselab.neighbors import sq_dists


def naive_kth_within(data, k):
    """Quadratic reference: sort (distance, index) pairs per row."""
    n = len(data)
    dists = np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    for i in range(n):
        pairs = []
        for j in range(n):
            if j == i:
                continue
            d = math.sqrt(float(np.sum((data[i] - data[j]) ** 2)))
            pairs.append((d, j))
        pairs.sort()
        dists[i], idx[i] = pairs[k - 1]
    return dists, idx


def naive_cross(queries, refs):
    nq = len(queries)
    dists = np.empty(nq)
    idx = np.empty(nq, dtype=np.int64)
    for i in range(nq):
        pairs = sorted(
            (math.sqrt(float(np.sum((queries[i] - refs[j]) ** 2))), j) for j in range(len(refs))
        )
        dists[i], idx[i] = pairs[0]
    return dists, idx


def brute_sq(queries, refs, k, within):
    """Blocked brute force: every query against every reference row, as
    squared distances and indices.

    This was the neighbor kernel before the cell grid; the grid must give
    the same bits. With `within`, queries is refs and a row skips itself.
    """
    n = len(queries)
    dists = np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    step = max(1, (1 << 22) // max(1, len(refs) * queries.shape[1]))
    for s in range(0, n, step):
        e = min(s + step, n)
        diff = queries[s:e, None, :] - refs[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        if within:
            d2[np.arange(e - s), np.arange(s, e)] = np.inf
        vals = np.partition(d2, k - 1, axis=1)[:, k - 1]
        dists[s:e] = vals
        for r in range(e - s):
            below = int(np.count_nonzero(d2[r] < vals[r]))
            idx[s + r] = np.flatnonzero(d2[r] == vals[r])[k - 1 - below]
    return dists, idx


def brute_kth(queries, refs, k, within):
    """brute_sq with euclidean distances."""
    dists, idx = brute_sq(queries, refs, k, within)
    return np.sqrt(dists), idx


class TestKthWithin:
    def test_hand_values_line(self):
        ps = PointSet([[0.0], [1.0], [3.0]])
        res = kth_nn_within(ps, k=1)
        assert np.array_equal(res.distances, [1.0, 1.0, 2.0])
        assert np.array_equal(res.indices, [1, 0, 1])

    def test_tie_break_prefers_lowest_index(self):
        ps = PointSet([[0.0], [1.0], [-1.0], [2.0]])
        res = kth_nn_within(ps, k=1)
        assert res.distances[0] == 1.0
        assert res.indices[0] == 1
        res2 = kth_nn_within(ps, k=2)
        assert res2.distances[0] == 1.0
        assert res2.indices[0] == 2
        res3 = kth_nn_within(ps, k=3)
        assert res3.distances[0] == 2.0
        assert res3.indices[0] == 3

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(12):
            n = int(rng.integers(5, 120))
            d = int(rng.choice([1, 2, 5]))
            data = rng.standard_normal((n, d)) * rng.uniform(0.1, 50.0)
            ps = PointSet(data)
            for k in (1, 2, min(5, n - 1)):
                res = kth_nn_within(ps, k=k)
                ref_d, ref_i = naive_kth_within(data, k)
                np.testing.assert_allclose(res.distances, ref_d, rtol=1e-12, atol=0.0)
                assert np.array_equal(res.indices, ref_i)

    def test_matches_naive_on_tied_lattice(self):
        # integer grid: every interior point has four equidistant neighbors
        g = np.arange(6.0)
        data = np.array([[x, y] for x in g for y in g])
        ps = PointSet(data)
        for k in (1, 2, 3, 4):
            res = kth_nn_within(ps, k=k)
            ref_d, ref_i = naive_kth_within(data, k)
            assert np.array_equal(res.distances, ref_d)
            assert np.array_equal(res.indices, ref_i)

    def test_distances_monotone_in_k(self):
        rng = np.random.default_rng(23)
        ps = PointSet(rng.standard_normal((40, 3)))
        prev = None
        for k in range(1, 6):
            cur = kth_nn_within(ps, k=k).distances
            if prev is not None:
                assert np.all(cur >= prev)
            prev = cur

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(29)
        data = rng.standard_normal((60, 2))
        perm = rng.permutation(60)
        res = kth_nn_within(PointSet(data), k=1)
        res_p = kth_nn_within(PointSet(data[perm]), k=1)
        np.testing.assert_allclose(res_p.distances, res.distances[perm], rtol=1e-12)
        inv = np.empty(60, dtype=np.int64)
        inv[perm] = np.arange(60)
        assert np.array_equal(res_p.indices, inv[res.indices[perm]])

    def test_duplicate_rows_give_zero(self):
        ps = PointSet([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        res = kth_nn_within(ps, k=1)
        assert res.distances[0] == 0.0
        assert res.distances[1] == 0.0
        assert res.indices[0] == 1
        assert res.indices[1] == 0

    def test_copy_does_not_pass_an_underflowing_neighbor(self):
        # (1e-170)**2 underflows to 0: row 1 ties row 0's copy, row 2, at
        # distance 0 and wins on its lower index.
        res = kth_nn_within(PointSet([[1e-170], [2e-170], [1e-170], [5.0]]), 1)
        assert res.distances[0] == 0.0
        assert res.indices[0] == 1

    def test_errors(self):
        ps = PointSet([[0.0], [1.0]])
        with pytest.raises(ConfigError):
            kth_nn_within(ps, k=0)
        with pytest.raises(InsufficientPointsError):
            kth_nn_within(ps, k=2)

    @pytest.mark.parametrize("k", [(), (0, 1), (2, 1), (1, True), (1, 2.0), [1, 2]])
    def test_rank_tuple_validated(self, k):
        with pytest.raises(ConfigError):
            kth_nn_within(PointSet(np.arange(6.0)[:, None]), k)

    def test_rank_tuple_needs_points_for_its_largest_rank(self):
        with pytest.raises(InsufficientPointsError):
            kth_nn_within(PointSet([[0.0], [1.0], [3.0]]), (1, 3))

    def test_rank_tuple_gives_one_result_per_rank(self):
        ps = PointSet([[0.0], [1.0], [-1.0], [2.0]])
        first, again, third = kth_nn_within(ps, (1, 1, 3))
        assert again is first
        assert np.array_equal(first.indices, kth_nn_within(ps, 1).indices)
        assert np.array_equal(third.distances, [2.0, 2.0, 3.0, 3.0])
        assert np.array_equal(third.indices, [3, 2, 3, 2])


class TestNnCross:
    def test_hand_value(self):
        queries = PointSet([[0.0, 0.0]])
        refs = PointSet([[3.0, 4.0], [6.0, 8.0]])
        res = nn_cross(queries, refs)
        assert res.distances[0] == 5.0
        assert res.indices[0] == 0

    def test_self_match_allowed(self):
        ps = PointSet([[0.0], [1.0], [2.0]])
        res = nn_cross(ps, ps)
        assert np.array_equal(res.distances, [0.0, 0.0, 0.0])
        assert np.array_equal(res.indices, [0, 1, 2])

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            q = rng.standard_normal((int(rng.integers(3, 80)), 3))
            r = rng.standard_normal((int(rng.integers(3, 80)), 3))
            res = nn_cross(PointSet(q), PointSet(r))
            ref_d, ref_i = naive_cross(q, r)
            np.testing.assert_allclose(res.distances, ref_d, rtol=1e-12, atol=0.0)
            assert np.array_equal(res.indices, ref_i)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nn_cross(PointSet([[0.0]]), PointSet([[0.0, 1.0]]))

    def test_empty_sides_rejected(self):
        ps = PointSet([[0.0]])
        empty = PointSet(np.empty((0, 1)))
        with pytest.raises(EmptyDatasetError):
            nn_cross(empty, ps)
        with pytest.raises(EmptyDatasetError):
            nn_cross(ps, empty)


def einsum_sq_dists(a, b):
    """The einsum kernel, which sq_dists must match bit for bit."""
    diff = a[:, None, :] - b
    return np.einsum("ijk,ijk->ij", diff, diff)


def same_bits(got, want):
    """Equal shapes, NaN in the same places, every other value the same
    bits, the sign of zero included."""
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and got[~nan].tobytes() == want[~nan].tobytes()
    )


# Signed zeros, subnormals, squares near the overflow threshold (1e154)
# and past it, the largest finite values, infinities and NaN.
KERNEL_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1.3e154, -9.5e153, 1e308, -1.7e308, math.inf, -math.inf, math.nan
]


@st.composite
def kernel_cases(draw):
    d = draw(st.integers(1, 2))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = st.one_of(st.sampled_from(KERNEL_EDGES), st.floats(-1e3, 1e3), st.floats())

    def block(*shape):
        return np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)

    b = block(rows, cols, d) if draw(st.booleans()) else block(cols, d)
    return block(rows, d), b


class TestSqDistsKernel:
    @given(case=kernel_cases())
    @settings(max_examples=400, deadline=None)
    def test_coordinate_sums_match_einsum(self, case):
        a, b = case
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bits(sq_dists(a, b), einsum_sq_dists(a, b))

    def test_three_dimensions_keep_einsum_order(self):
        # Three terms give different bits in different orders; on CPUs
        # whose einsum does not add left to right, a coordinate-by-coordinate
        # sum at d = 3 differs from einsum in many of these rows.
        rng = np.random.default_rng(71)
        a = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-3, 4, (2000, 3))
        b = rng.standard_normal((1, 3))
        assert same_bits(sq_dists(a, b), einsum_sq_dists(a, b))
        assert same_bits(sq_dists(a, np.repeat(b[None], 2000, axis=0)), einsum_sq_dists(a, b))


def grid_active(data):
    return neighbors._grid(data, data, True)[0] is not None


def grid_datasets():
    """(name, data) for point sets on which the engine builds a grid of at
    least 4 cells per axis."""
    rng = np.random.default_rng(43)
    # lattices put points exactly on cell edges (width 6, 1.25 and 2)
    # and tie every point with several neighbors across those edges
    yield "lattice-1d", np.arange(61.0)[:, None]
    half = np.arange(0.0, 15.5, 0.5)
    yield "lattice-2d", np.array([[a, b] for a in half for b in half])
    ints = np.arange(9.0)
    yield "lattice-3d", np.array([[a, b, c] for a in ints for b in ints for c in ints])
    for d, n in ((1, 300), (2, 700), (3, 800)):
        base = rng.standard_normal((n // 8, d))
        yield f"duplicates-{d}d", base[rng.integers(0, len(base), n)]
    yield "blobs-3d", rng.standard_normal((800, 3)) + rng.choice([-3.0, 3.0], size=(800, 3))
    # sparse tails: many rows' neighbors lie two or more cells away
    for d, n in ((1, 200), (2, 600)):
        yield f"heavy-tails-{d}d", rng.standard_cauchy((n, d))
    yield "collapsed", np.full((600, 2), 1.5)
    # Copies of distinct points that tie each other, as in a memorizing loop:
    # a lattice whose rows repeat, repeated rows with a constant first
    # column, rows that differ only by the sign of a zero, and distinct rows
    # whose squared distance (1e-170)**2 underflows to exactly 0.
    ints = np.arange(12.0)
    lattice = np.array([[a, b] for a in ints for b in ints])
    yield "repeated-lattice", lattice[rng.permutation(np.repeat(np.arange(len(lattice)), 3))]
    column = np.column_stack([np.full(150, 2.5), rng.standard_normal(150)])
    yield "constant-first-column", column[rng.integers(0, 150, 450)]
    signed = np.array([[a, b] for a in np.arange(-6.0, 7.0) for b in np.arange(-6.0, 7.0)])
    flipped = np.where(signed == 0.0, -0.0, signed)
    yield "signed-zero", np.concatenate([signed, flipped, signed])[rng.permutation(3 * len(signed))]
    tiny = np.array([[1e-170 * a, b] for a in range(3) for b in range(40)], dtype=np.float64)
    yield "underflow", tiny[rng.permutation(np.repeat(np.arange(len(tiny)), 4))]
    spread = rng.standard_normal((600, 2))
    spread[7] = [1e6, -1e6]
    spread[400] = [-1e6, 2e6]
    yield "outliers", spread


GRID_DATASETS = list(grid_datasets())


def placed(base, scale, shift):
    """base * scale + shift; a zero shift is not added, so the sign of a zero
    survives."""
    return base * scale + shift if shift else base * scale


@st.composite
def screen_cases(draw):
    """One-cell point sets at d = 4-64 (normal, integer lattice with ties,
    duplicated, or collapsed to a point), scaled over fourteen decades and
    offset up to 1e12, where the screen keeps every column; and queries
    that hit, jitter or miss them."""
    d = draw(st.integers(4, 64))
    n = draw(st.integers(6, 60))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["normal", "lattice", "duplicates", "collapsed"]))
    if layout == "lattice":
        base = rng.integers(-2, 3, (n, d)).astype(np.float64)
    else:
        base = rng.standard_normal((n, d))
    if layout == "duplicates":
        base = base[rng.integers(0, max(1, n // 3), n)]
    elif layout == "collapsed":
        base[:] = base[0]
    queries = np.concatenate([base[rng.integers(0, n, 10)], base[:10] + rng.standard_normal((min(n, 10), d)),
                              3.0 * rng.standard_normal((5, d))])
    scale = 10.0 ** draw(st.integers(-6, 8))
    shift = draw(st.sampled_from([0.0, 1.0, -1e3, 1e6, 1e12]))
    return base * scale + shift, queries * scale + shift, k
@st.composite
def multi_rank_cases(draw):
    """Point sets for a (1, g) search, g 1-5: on the grid path (d 1-3, enough
    points for 4+ cells per axis) or the one-cell screen path (d 1-8), laid
    out normal, heavy-tailed (a row's g-th neighbor may lie cells beyond its
    first), as an integer lattice full of ties, duplicated, or collapsed to
    a point; or with copies of distinct points that tie each other: a
    repeated lattice, repeated rows with a constant first column, zeros of
    either sign, or first coordinates 1e-170 apart whose squared distance
    underflows to 0. Scaled over fourteen decades and offset up to 1e12."""
    path = draw(st.sampled_from(["grid", "screen"]))
    d = draw(st.integers(1, 3 if path == "grid" else 8))
    cells = 6 * 4**d  # the fewest points for which the grid has 4 cells per axis
    n = draw(st.integers(cells + 1, cells + 300) if path == "grid" else st.integers(6, min(60, cells - 1)))
    g = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(
        ["normal", "heavy-tails", "lattice", "duplicates", "collapsed",
         "repeated-lattice", "constant-first-column", "signed-zero", "underflow"]
    ))
    if layout in ("lattice", "repeated-lattice", "signed-zero", "underflow"):
        base = rng.integers(-3, 4, (n, d)).astype(np.float64)
    elif layout == "heavy-tails":
        base = rng.standard_cauchy((n, d))
    else:
        base = rng.standard_normal((n, d))
    if layout == "constant-first-column":
        base[:, 0] = 2.5
    elif layout == "signed-zero":
        base[(base == 0.0) & (rng.random((n, d)) < 0.5)] = -0.0
    elif layout == "underflow":
        base[:, 0] = 1e-170 * rng.integers(0, 3, n)
    if layout in ("duplicates", "repeated-lattice", "constant-first-column", "underflow"):
        base = base[rng.integers(0, max(1, n // 3), n)]
    elif layout == "collapsed":
        base[:] = base[0]
    scale = 10.0 ** draw(st.integers(-6, 8))
    shift = draw(st.sampled_from([0.0, 1.0, -1e3, 1e6, 1e12]))
    budget = draw(st.sampled_from([neighbors._BLOCK_BUDGET, 1 << 10]))
    return path, placed(base, scale, shift), g, budget


TRANSFORMS = [(1.0, 0.0), (1e-8, 0.0), (1e8, 0.0), (1.0, 1e6), (1e-8, 1e6), (1e8, 1e6)]


class TestGridMatchesBruteForce:
    @pytest.mark.parametrize("scale, shift", TRANSFORMS)
    @pytest.mark.parametrize("name, base", GRID_DATASETS, ids=[name for name, _ in GRID_DATASETS])
    def test_kth_within_bit_identical(self, name, base, scale, shift):
        data = placed(base, scale, shift)
        assert grid_active(data)
        ps = PointSet(data)
        for k in range(1, 6):
            res = kth_nn_within(ps, k)
            ref_d, ref_i = brute_kth(data, data, k, within=True)
            assert np.array_equal(res.distances, ref_d), (name, k)
            assert np.array_equal(res.indices, ref_i), (name, k)

    @pytest.mark.parametrize("scale, shift", TRANSFORMS)
    @pytest.mark.parametrize("name, base", GRID_DATASETS, ids=[name for name, _ in GRID_DATASETS])
    def test_nn_cross_bit_identical(self, name, base, scale, shift):
        rng = np.random.default_rng(47)
        lo, hi = base.min(axis=0), base.max(axis=0)
        span = np.maximum(hi - lo, 1.0)
        queries = np.concatenate(
            [
                base[rng.integers(0, len(base), 60)],  # exact hits
                base[rng.integers(0, len(base), 60)] + 0.3 * rng.standard_normal((60, base.shape[1])),
                lo - span * rng.uniform(0.01, 3.0, (30, base.shape[1])),  # outside the box
                hi + span * rng.uniform(0.01, 3.0, (30, base.shape[1])),
                rng.uniform(lo - span, hi + span, (30, base.shape[1])),
            ]
        )
        data = placed(base, scale, shift)
        queries = placed(queries, scale, shift)
        assert grid_active(data)
        res = nn_cross(PointSet(queries), PointSet(data))
        ref_d, ref_i = brute_kth(queries, data, 1, within=False)
        assert np.array_equal(res.distances, ref_d)
        assert np.array_equal(res.indices, ref_i)

    def test_neighbor_two_cells_away(self):
        # 60 points on [0, 100] make 10 cells of width 10. The rows at 20.5
        # (cell 2) and 79.5 (cell 7) find one candidate 19.4 away in their
        # 3-cell region, but their nearest neighbors sit in cells 0 and 9,
        # 10.51 away; only the full search finds them.
        middle = np.linspace(45.0, 55.0, 52)
        data = np.concatenate([[0.0, 9.99, 20.5, 39.9], middle, [60.1, 79.5, 90.01, 100.0]])[:, None]
        assert grid_active(data)
        for k in (1, 2):
            res = kth_nn_within(PointSet(data), k)
            ref_d, ref_i = brute_kth(data, data, k, within=True)
            assert np.array_equal(res.distances, ref_d)
            assert np.array_equal(res.indices, ref_i)
        res = kth_nn_within(PointSet(data), 1)
        assert res.indices[2] == 1 and res.indices[-3] == len(data) - 2
        queries = np.array([[20.5], [79.5]])
        refs = np.delete(data, [2, len(data) - 3], axis=0)
        res = nn_cross(PointSet(queries), PointSet(refs))
        ref_d, ref_i = brute_kth(queries, refs, 1, within=False)
        assert np.array_equal(res.distances, ref_d)
        assert np.array_equal(res.indices, ref_i)

    def test_one_cell_at_d8_bit_identical(self):
        rng = np.random.default_rng(53)
        data = rng.standard_normal((600, 8))
        data[300:] = data[:300]
        assert not grid_active(data)
        ps = PointSet(data)
        for k in (1, 2, 4):
            res = kth_nn_within(ps, k)
            ref_d, ref_i = brute_kth(data, data, k, within=True)
            assert np.array_equal(res.distances, ref_d)
            assert np.array_equal(res.indices, ref_i)
        queries = rng.standard_normal((50, 8))
        res = nn_cross(PointSet(queries), ps)
        ref_d, ref_i = brute_kth(queries, data, 1, within=False)
        assert np.array_equal(res.distances, ref_d)
        assert np.array_equal(res.indices, ref_i)

    @given(case=screen_cases())
    @settings(max_examples=150, deadline=None)
    def test_screen_bit_identical(self, case):
        data, queries, k = case
        assert not grid_active(data)
        res = kth_nn_within(PointSet(data), k)
        ref_d, ref_i = brute_kth(data, data, k, within=True)
        assert np.array_equal(res.distances, ref_d)
        assert np.array_equal(res.indices, ref_i)
        res = nn_cross(PointSet(queries), PointSet(data))
        ref_d, ref_i = brute_kth(queries, data, 1, within=False)
        assert np.array_equal(res.distances, ref_d)
        assert np.array_equal(res.indices, ref_i)

    @given(case=multi_rank_cases())
    @settings(max_examples=200, deadline=None)
    def test_multi_rank_search_matches_single_rank_calls(self, case):
        # One (1, g) search must give each rank the bits of its own call and
        # of brute force, whichever path and block size answered it; so must
        # nn_cross, whose queries and references both repeat where the set does.
        path, data, g, budget = case
        ps = PointSet(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_BLOCK_BUDGET", budget)
            assert grid_active(data) == (path == "grid")
            got = kth_nn_within(ps, (1, g))
            assert len(got) == 2
            for rank, res in zip((1, g), got):
                ref_d, ref_i = brute_kth(data, data, rank, within=True)
                for found in (res, kth_nn_within(ps, rank)):
                    assert np.array_equal(found.distances, ref_d)
                    assert np.array_equal(found.indices, ref_i)
            queries = data[::-2]
            res = nn_cross(PointSet(queries), ps)
        ref_d, ref_i = brute_kth(queries, data, 1, within=False)
        assert np.array_equal(res.distances, ref_d)
        assert np.array_equal(res.indices, ref_i)

    def test_screen_where_norms_overflow(self):
        # Bounds turn NaN or +inf; the NaN ones must keep their columns, and a
        # row's own column must not stand in for one of its k nearest.
        rng = np.random.default_rng(71)
        cases = [rng.standard_normal((40, 8)) * scale for scale in (1e154, 1e160)]
        # Finite distances where one squared norm overflows, or where two
        # finite ones sum past the largest double.
        three = np.array([[6.0e153], [6.6e153], [1.35e154]])
        cases += [three, np.array([[1.0e154], [1.0000001e154], [-1.0e154], [0.0]])]
        for n_huge in (1, 3, 9):
            for pos in range(n_huge + 1):
                cases.append(np.insert(rng.standard_normal((n_huge, 8)) * 1e155, pos, rng.standard_normal((2, 8)), 0))
        crosses = [(data[::-1], data) for data in cases]
        # Every squared norm is finite, but any two sum past the largest
        # double: no bound may turn +inf.
        along = np.random.default_rng(0).standard_normal(38)
        tight = along / np.linalg.norm(along) * 1.3e154 + rng.standard_normal((20, 38)) * 1e150
        crosses.append((tight[10:], tight[:10]))
        with np.errstate(over="ignore", invalid="ignore"):
            for data in cases:
                for k in range(1, min(4, len(data))):
                    res = kth_nn_within(PointSet(data), k)
                    ref_d, ref_i = brute_kth(data, data, k, within=True)
                    assert np.array_equal(res.distances, ref_d)
                    assert np.array_equal(res.indices, ref_i)
            for queries, refs in crosses:
                res = nn_cross(PointSet(queries), PointSet(refs))
                ref_d, ref_i = brute_kth(queries, refs, 1, within=False)
                assert np.array_equal(res.distances, ref_d)
                assert np.array_equal(res.indices, ref_i)
            res = kth_nn_within(PointSet(three), 1)
        assert res.indices[2] == 1 and res.distances[2] == pytest.approx(6.9e153)

    @pytest.mark.parametrize("shift, most_kept", [(0.0, 3), (1e12, 600)])
    def test_screen_keeps_few_columns_unless_the_expansion_cancels(self, monkeypatch, shift, most_kept):
        # Where the expansion cancels every row keeps every column, and the
        # block measures them all from r itself, not from a gathered copy.
        measured = []

        def spy(a, b):
            measured.append(b.shape)
            return sq_dists(a, b)

        rng = np.random.default_rng(61)
        data = rng.standard_normal((600, 8)) + shift
        monkeypatch.setattr(neighbors, "sq_dists", spy)
        res = kth_nn_within(PointSet(data), 1)
        monkeypatch.undo()
        assert max(shape[1] for shape in measured) <= most_kept
        if shift:
            assert all(shape == (1, 600, 8) for shape in measured[1::2])
        ref_d, ref_i = brute_kth(data, data, 1, within=True)
        assert np.array_equal(res.distances, ref_d)
        assert np.array_equal(res.indices, ref_i)

    @pytest.mark.parametrize("scale", [1.0, 1e153, 1e155])
    def test_one_cell_search_screens_each_row_once(self, monkeypatch, scale):
        # At 1e155 every squared distance overflows to inf; a row that has
        # searched every point is not searched over all points again.
        screened = []
        screen = neighbors._screen

        def spy(q, *args):
            screened.append(q.shape[0])
            return screen(q, *args)

        data = np.random.default_rng(71).standard_normal((50, 8)) * scale
        monkeypatch.setattr(neighbors, "_screen", spy)
        res = kth_nn_within(PointSet(data), 1)
        monkeypatch.undo()
        assert screened == [50]
        ref_d, ref_i = brute_kth(data, data, 1, within=True)
        assert np.array_equal(res.distances, ref_d)
        assert np.array_equal(res.indices, ref_i)

    def test_collapsed_cell_stays_within_block_budget(self, monkeypatch):
        # 5,000 identical points share one grid cell; blocking must still cap
        # the diff tensor instead of building one 5000 x 5000 x 2 block
        ps = PointSet(np.full((5000, 2), 0.25))
        assert grid_active(ps.data)
        budget_bytes = neighbors._BLOCK_BUDGET * 8
        for k in (1, 2):
            tracemalloc.start()
            try:
                res = kth_nn_within(ps, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.all(res.distances == 0.0)
            assert peak <= 2 * budget_bytes, f"k={k}: peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("layout", ["collapsed", "offset"])
    def test_screened_block_stays_within_block_budget(self, monkeypatch, layout):
        # A one-cell d=8 set where every row keeps every column: the block
        # must not gather them into a second rows x n x d copy.
        rng = np.random.default_rng(67)
        data = np.full((3000, 8), 0.25) if layout == "collapsed" else rng.standard_normal((3000, 8)) + 1e12
        ps = PointSet(data)
        assert not grid_active(data)
        for k in (1, 2):
            tracemalloc.start()
            try:
                kth_nn_within(ps, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= neighbors._BLOCK_BUDGET * 8, f"k={k}: peak {peak / 2**20:.1f} MiB"


class TestDistinctPoints:
    @staticmethod
    def searched(monkeypatch):
        """The (query rows, reference rows) of every `_search` call."""
        calls = []
        search = neighbors._search

        def spy(q, r, *args, **kwargs):
            calls.append((q.shape[0], r.shape[0]))
            return search(q, r, *args, **kwargs)

        monkeypatch.setattr(neighbors, "_search", spy)
        return calls

    @pytest.mark.parametrize("layout", ["normal", "lattice"])
    def test_copies_are_searched_once(self, monkeypatch, layout):
        # The final pool of a memorizing loop: 1,000 distinct rows, 3,500 in
        # all. On the lattice, rows that share a first coordinate interleave.
        rng = np.random.default_rng(73)
        if layout == "lattice":
            base = np.array([[a, b] for a in range(25) for b in range(40)], dtype=np.float64)
        else:
            base = rng.standard_normal((1000, 2))
        pool = PointSet(np.concatenate([base, base[rng.integers(0, 1000, 2500)]]))
        queries = PointSet(pool.data[rng.integers(0, 3500, 700)])
        calls = self.searched(monkeypatch)
        kth_nn_within(pool, (1, 3))
        nn_cross(queries, pool)
        assert calls == [(1000, 1000), (len(np.unique(queries.data, axis=0)), 1000)]

    @pytest.mark.parametrize("layout", ["normal", "lattice"])
    def test_duplicate_free_set_is_searched_whole(self, monkeypatch, layout):
        # A lattice repeats every first coordinate, but no row.
        rng = np.random.default_rng(79)
        if layout == "lattice":
            data = np.array([[a, b] for a in range(50) for b in range(70)], dtype=np.float64)
        else:
            data = rng.standard_normal((3500, 2))
        calls = self.searched(monkeypatch)
        kth_nn_within(PointSet(data), (1, 3))
        nn_cross(PointSet(data[:700]), PointSet(data))
        assert calls == [(3500, 3500), (700, 3500)]

    def test_overflowing_features_are_numerical_errors(self):
        # A random projection of rows near the largest double overflows to
        # inf; those rows used to measure NaN distances.
        metric = DistanceMetric(kind="sqeuclidean", feature_map=FeatureMap(kind="randproj", target_dim=2, seed=1))
        data = np.random.default_rng(83).standard_normal((30, 3))
        data[:6] = 1.7e308
        with pytest.raises(NumericalError, match="randproj"):
            kth_nn_within(PointSet(data), 1, metric)
        with pytest.raises(NumericalError, match="randproj"):
            nn_cross(PointSet(data[6:]), PointSet(data), metric)
        assert np.isfinite(kth_nn_within(PointSet(data[6:]), 1, metric).distances).all()


class TestDeterminism:
    def test_block_size_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(37)
        ps = PointSet(rng.standard_normal((300, 4)))
        base = kth_nn_within(ps, k=2)
        monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 1 << 10)
        small = kth_nn_within(ps, k=2)
        assert np.array_equal(base.distances, small.distances)
        assert np.array_equal(base.indices, small.indices)

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(41)
        data = rng.standard_normal((500, 3))
        ps = PointSet(data)
        base = kth_nn_within(ps, k=1)
        monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 1 << 12)
        small = kth_nn_within(ps, k=1)
        ref_d, ref_i = brute_kth(data, data, 1, within=True)
        for res in (base, small):
            assert np.array_equal(res.distances, ref_d)
            assert np.array_equal(res.indices, ref_i)

    @pytest.mark.parametrize("k", [1, 3])
    def test_worker_count_does_not_change_bits_on_grid(self, monkeypatch, k):
        # duplicated rows and a dense cell split into several blocks, plus
        # queries outside the box that fall back to the full search
        rng = np.random.default_rng(59)
        data = rng.standard_normal((2000, 2))
        data[1000:] = data[:1000]
        data[:200] = 0.5
        ps = PointSet(data)
        assert grid_active(data)
        queries = rng.standard_normal((300, 2)) * 4.0
        results = [(kth_nn_within(ps, k=k), nn_cross(PointSet(queries), ps))]
        monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 1 << 12)
        results.append((kth_nn_within(ps, k=k), nn_cross(PointSet(queries), ps)))
        want = (brute_kth(data, data, k, within=True), brute_kth(queries, data, 1, within=False))
        for res in results:
            for got, (ref_d, ref_i) in zip(res, want):
                assert np.array_equal(got.distances, ref_d)
                assert np.array_equal(got.indices, ref_i)

    def test_blas_threads_do_not_change_bits(self):
        # The screen's GEMM and GEMV run in BLAS, whose summation order may
        # follow its thread count; the answers must not.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from collapselab import PointSet, SelectionPolicy, kth_nn_within, nn_cross, run_policy\n"
            "rng = np.random.default_rng(67)\n"
            "data = rng.standard_normal((1500, 8)) + rng.uniform(-4, 4, (4, 8))[rng.integers(0, 4, 1500)]\n"
            "data[1000:1200] = data[:200]\n"
            "ps = PointSet(data)\n"
            "out = [kth_nn_within(ps, k) for k in (1, 3)] + [nn_cross(PointSet(rng.standard_normal((700, 8))), ps)]\n"
            "sys.stdout.buffer.write(b''.join(r.distances.tobytes() + r.indices.tobytes() for r in out))\n"
            "sys.stdout.buffer.write(run_policy(ps, 300, SelectionPolicy(kind='greedy')).indices.tobytes())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for blas in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.add(proc.stdout)
        assert len(outputs) == 1
