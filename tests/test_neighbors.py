import itertools
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
    """Quadratic reference: sort the distances to the other rows."""
    n = len(data)
    return np.array([
        sorted(math.sqrt(float(np.sum((data[i] - data[j]) ** 2))) for j in range(n) if j != i)[k - 1]
        for i in range(n)
    ])


def naive_cross(queries, refs):
    return np.array([min(math.sqrt(float(np.sum((q - r) ** 2))) for r in refs) for q in queries])


def brute_sq(queries, refs, k, within):
    """Blocked brute force: the k-th smallest squared distance from every
    query to every reference row.

    This was the neighbor kernel before the cell grid; the grid must give
    the same bits. With `within`, queries is refs and a row skips itself.
    """
    n = len(queries)
    dists = np.empty(n)
    step = max(1, (1 << 22) // max(1, len(refs) * queries.shape[1]))
    for s in range(0, n, step):
        e = min(s + step, n)
        diff = queries[s:e, None, :] - refs[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        if within:
            d2[np.arange(e - s), np.arange(s, e)] = np.inf
        dists[s:e] = np.partition(d2, k - 1, axis=1)[:, k - 1]
    return dists


def brute_kth(queries, refs, k, within):
    """brute_sq with euclidean distances."""
    return np.sqrt(brute_sq(queries, refs, k, within))


class TestKthWithin:
    def test_hand_values_line(self):
        ps = PointSet([[0.0], [1.0], [3.0]])
        assert np.array_equal(kth_nn_within(ps, k=1), [1.0, 1.0, 2.0])

    def test_tied_neighbors_fill_consecutive_ranks(self):
        ps = PointSet([[0.0], [1.0], [-1.0], [2.0]])
        assert kth_nn_within(ps, k=1)[0] == 1.0
        assert kth_nn_within(ps, k=2)[0] == 1.0
        assert kth_nn_within(ps, k=3)[0] == 2.0

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(12):
            n = int(rng.integers(5, 120))
            d = int(rng.choice([1, 2, 5]))
            data = rng.standard_normal((n, d)) * rng.uniform(0.1, 50.0)
            ps = PointSet(data)
            for k in (1, 2, min(5, n - 1)):
                res = kth_nn_within(ps, k=k)
                np.testing.assert_allclose(res, naive_kth_within(data, k), rtol=1e-12, atol=0.0)

    def test_matches_naive_on_tied_lattice(self):
        # integer grid: every interior point has four equidistant neighbors
        g = np.arange(6.0)
        data = np.array([[x, y] for x in g for y in g])
        ps = PointSet(data)
        for k in (1, 2, 3, 4):
            assert np.array_equal(kth_nn_within(ps, k=k), naive_kth_within(data, k))

    def test_distances_monotone_in_k(self):
        rng = np.random.default_rng(23)
        ps = PointSet(rng.standard_normal((40, 3)))
        prev = None
        for k in range(1, 6):
            cur = kth_nn_within(ps, k=k)
            if prev is not None:
                assert np.all(cur >= prev)
            prev = cur

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(29)
        data = rng.standard_normal((60, 2))
        perm = rng.permutation(60)
        res = kth_nn_within(PointSet(data), k=1)
        res_p = kth_nn_within(PointSet(data[perm]), k=1)
        np.testing.assert_allclose(res_p, res[perm], rtol=1e-12)

    def test_duplicate_rows_give_zero(self):
        ps = PointSet([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        assert np.array_equal(kth_nn_within(ps, k=1), [0.0, 0.0, 5.0])

    def test_copy_does_not_pass_an_underflowing_neighbor(self):
        # (1e-170)**2 underflows to 0: row 1 ties row 0's copy, row 2, at
        # distance 0, so rows 0 and 2 have two neighbors at 0.
        data = np.array([[1e-170], [2e-170], [1e-170], [5.0]])
        for k in (1, 2, 3):
            assert np.array_equal(kth_nn_within(PointSet(data), k), brute_kth(data, data, k, within=True))
        assert kth_nn_within(PointSet(data), 2)[0] == 0.0

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
        assert np.array_equal(first, kth_nn_within(ps, 1))
        assert np.array_equal(third, [2.0, 2.0, 3.0, 3.0])


class TestNnCross:
    def test_hand_value(self):
        queries = PointSet([[0.0, 0.0]])
        refs = PointSet([[3.0, 4.0], [6.0, 8.0]])
        assert nn_cross(queries, refs)[0] == 5.0

    def test_self_match_allowed(self):
        ps = PointSet([[0.0], [1.0], [2.0]])
        assert np.array_equal(nn_cross(ps, ps), [0.0, 0.0, 0.0])

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            q = rng.standard_normal((int(rng.integers(3, 80)), 3))
            r = rng.standard_normal((int(rng.integers(3, 80)), 3))
            np.testing.assert_allclose(nn_cross(PointSet(q), PointSet(r)), naive_cross(q, r), rtol=1e-12, atol=0.0)

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
            ref_d = brute_kth(data, data, k, within=True)
            assert np.array_equal(res, ref_d), (name, k)

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
        ref_d = brute_kth(queries, data, 1, within=False)
        assert np.array_equal(res, ref_d)

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
            ref_d = brute_kth(data, data, k, within=True)
            assert np.array_equal(res, ref_d)
        queries = np.array([[20.5], [79.5]])
        refs = np.delete(data, [2, len(data) - 3], axis=0)
        res = nn_cross(PointSet(queries), PointSet(refs))
        ref_d = brute_kth(queries, refs, 1, within=False)
        assert np.array_equal(res, ref_d)

    def test_one_cell_at_d8_bit_identical(self):
        rng = np.random.default_rng(53)
        data = rng.standard_normal((600, 8))
        data[300:] = data[:300]
        assert not grid_active(data)
        ps = PointSet(data)
        for k in (1, 2, 4):
            res = kth_nn_within(ps, k)
            ref_d = brute_kth(data, data, k, within=True)
            assert np.array_equal(res, ref_d)
        queries = rng.standard_normal((50, 8))
        res = nn_cross(PointSet(queries), ps)
        ref_d = brute_kth(queries, data, 1, within=False)
        assert np.array_equal(res, ref_d)

    @given(case=screen_cases())
    @settings(max_examples=150, deadline=None)
    def test_screen_bit_identical(self, case):
        data, queries, k = case
        assert not grid_active(data)
        res = kth_nn_within(PointSet(data), k)
        ref_d = brute_kth(data, data, k, within=True)
        assert np.array_equal(res, ref_d)
        res = nn_cross(PointSet(queries), PointSet(data))
        ref_d = brute_kth(queries, data, 1, within=False)
        assert np.array_equal(res, ref_d)

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
                ref_d = brute_kth(data, data, rank, within=True)
                for found in (res, kth_nn_within(ps, rank)):
                    assert np.array_equal(found, ref_d)
            queries = data[::-2]
            res = nn_cross(PointSet(queries), ps)
        ref_d = brute_kth(queries, data, 1, within=False)
        assert np.array_equal(res, ref_d)

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
                    ref_d = brute_kth(data, data, k, within=True)
                    assert np.array_equal(res, ref_d)
            for queries, refs in crosses:
                res = nn_cross(PointSet(queries), PointSet(refs))
                ref_d = brute_kth(queries, refs, 1, within=False)
                assert np.array_equal(res, ref_d)
            res = kth_nn_within(PointSet(three), 1)
        assert res[2] == pytest.approx(6.9e153)

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
        ref_d = brute_kth(data, data, 1, within=True)
        assert np.array_equal(res, ref_d)

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
        ref_d = brute_kth(data, data, 1, within=True)
        assert np.array_equal(res, ref_d)

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
            assert np.all(res == 0.0)
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


class TestRankPick:
    """`_select` against a per-row sort, and `_screen` against brute force."""

    @pytest.mark.parametrize("k", [1, 4, 5])
    @pytest.mark.parametrize("shape", [(1, 5), (300, 12)])
    def test_select_matches_a_row_sort(self, shape, k):
        # Values 0-3 tie often, and about a fifth are +inf, as a skipped own
        # column or a padded candidate reads. Every rank 1..k is checked,
        # with the columns and without them.
        rng = np.random.default_rng([*shape, k])
        d2 = rng.integers(0, 4, shape).astype(np.float64)
        d2[rng.random(shape) < 0.2] = np.inf
        want = np.sort(d2, axis=1)[:, :k].T
        vals, cols = neighbors._select(d2, k)
        assert cols is None and np.array_equal(vals, want)
        vals, cols = neighbors._select(d2, k, columns=True)
        assert vals.shape == cols.shape == (k, shape[0])
        assert np.array_equal(vals, want)
        assert np.array_equal(d2[np.arange(shape[0]), cols], want)
        for a, b in itertools.combinations(cols, 2):
            assert (a != b).all()

    @pytest.mark.parametrize("within", [True, False])
    @pytest.mark.parametrize("rows", [1, 40])
    @pytest.mark.parametrize("shift, full_row", [(0.0, False), (1e12, True)])
    def test_screen_matches_brute_force(self, monkeypatch, shift, full_row, rows, within):
        # Shifted by 1e12 the norm expansion cancels, every row keeps more
        # than half the columns, and the block measures one (1, n) row of
        # candidates for all its queries; unshifted, each row gathers its own.
        measured = []

        def spy(a, b):
            measured.append(b.shape)
            return sq_dists(a, b)

        rng = np.random.default_rng(61)
        r = rng.standard_normal((600, 8)) + shift
        own = np.arange(rows) * 7 if within else None
        q = r[own] if within else rng.standard_normal((rows, 8)) + shift
        monkeypatch.setattr(neighbors, "sq_dists", spy)
        vals, cols = neighbors._screen(q, r, neighbors._lift(r)[1], 4, own, columns=True)
        monkeypatch.undo()
        assert (measured[-1] == (1, 600, 8)) == full_row
        assert vals.shape == cols.shape == (4, rows)
        for k, got in enumerate(vals, 1):
            want = brute_sq(r, r, k, within=True)[own] if within else brute_sq(q, r, k, within=False)
            assert np.array_equal(got, want)
        assert np.array_equal(sq_dists(q, r)[np.arange(rows), cols], vals)
        for a, b in itertools.combinations(cols, 2):
            assert (a != b).all()
        if within:
            assert (cols != own).all()


def reference_distinct(x):
    """`neighbors._distinct` as one stable lexsort of the coordinates, the
    split before the rank keys: the oracle the rank split must equal. Each
    point's first row, its size and each row's point, the points in the
    order of their coordinates; without copies, each row in row order."""
    n = x.shape[0]
    order = np.lexsort(x.T[::-1])
    s = x[order]
    same = (s[1:] == s[:-1]).all(axis=1)
    if not same.any():
        rows = np.arange(n)
        return rows, np.ones(n, dtype=np.int64), rows
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    sizes = np.diff(starts, append=n)
    point = np.empty(n, dtype=np.int64)
    point[order] = np.repeat(np.arange(starts.size), sizes)
    return order[starts], sizes, point


@st.composite
def split_cases(draw):
    """A matrix at d = 1..8: a small lattice full of ties, a collapsed set
    with a few other points, copies of a few points, or rows that never
    repeat; with zeros of either sign, scaled to subnormals or near 1e300."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["lattice", "collapsed", "copies", "copy_free"]))
    if layout == "lattice":
        x = rng.integers(-2, 3, (n, d)).astype(np.float64)
    elif layout == "collapsed":
        x = np.repeat(rng.standard_normal((1, d)), n, axis=0)
        x[rng.random(n) < 0.1] = rng.standard_normal(d)
    elif layout == "copies":
        base = rng.standard_normal((draw(st.integers(1, 20)), d))
        x = base[rng.integers(0, len(base), n)]
    else:
        x = rng.standard_normal((n, d))
    x[(x == 0.0) & (rng.random(x.shape) < 0.5)] = -0.0
    scale = draw(st.sampled_from([1.0, 1e-310, 5e-324, 1e300]))
    return x * scale


class TestSplit:
    @settings(max_examples=300, deadline=None)
    @given(split_cases())
    def test_rank_split_matches_lexsort(self, x):
        # The lexsort's split, or the row-order split of a set without
        # copies, in a record of x itself with no keys yet.
        got = neighbors._distinct(x)
        assert got[0] is x and got[4] is None
        assert all(np.array_equal(g, w) for g, w in zip(got[1:4], reference_distinct(x), strict=True))

    def test_keys_past_the_int64_range_are_ranked_again(self):
        # Eight columns of 256 values fill 64 bits: folded on without a new
        # rank, the first column's rank would be shifted out, and rows that
        # differ only there would be one point.
        rng = np.random.default_rng(113)
        rest = np.stack([rng.permutation(256) for _ in range(8)], axis=1).astype(np.float64)
        x = np.hstack([np.repeat([[0.0], [1.0]], 256, axis=0), np.vstack([rest, rest])])
        x = np.vstack([x, x[rng.integers(0, 512, 40)]])
        for got, want in zip(neighbors._distinct(x)[1:4], reference_distinct(x), strict=True):
            assert np.array_equal(got, want)

    @staticmethod
    def grow_from(mp, held, stack):
        """`split_of(stack)` from the rank split of its leading rows `held`,
        checked against the oracle; returns how many full splits it built."""
        record = (held, *neighbors._split(held), None)
        built = []
        split = neighbors._split
        mp.setattr(neighbors, "_split", lambda x: built.append(x.shape) or split(x))
        got, want = neighbors.split_of(PointSet(stack), held=record), reference_distinct(stack)
        assert all(np.array_equal(g, w) for g, w in zip(got[1:4], want, strict=True))
        return len(built)

    @settings(max_examples=200, deadline=None)
    @given(split_cases(), st.data())
    def test_appended_copies_grow_the_split(self, x, data):
        # Copies of held rows, some with zeros of the other sign, and
        # sometimes one new point: only the new point forces a full split.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tail = x[rng.integers(0, len(x), data.draw(st.integers(1, 100)))]
        tail = np.where((tail == 0.0) & (rng.random(tail.shape) < 0.5), -tail, tail)
        new = data.draw(st.booleans())
        if new:
            row = x[rng.integers(0, len(x))].copy()
            row[0] = np.nextafter(x[:, 0].max(), np.inf)
            tail = np.insert(tail, rng.integers(0, len(tail) + 1), row, axis=0)
        with pytest.MonkeyPatch.context() as mp:
            assert self.grow_from(mp, x, np.vstack([x, tail])) == new

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_successive_growths_match_all_pairs(self, data):
        # A pool grown by copies over several steps, as an accumulating loop
        # grows it, its split held from step to step by `split_of`: the point
        # keys ride from growth to growth, and a new point forces a full
        # split, whose keys are then made afresh. Each step copies the newest
        # point, so keys left from the split before would miss it and force
        # another full split. Both queries read the held split and give the
        # bits of the calls without it and of all pairs.
        d = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1.0, 1e-310, 1e150]))
        fmap = data.draw(st.sampled_from([FeatureMap(), FeatureMap(kind="randproj", target_dim=2, seed=3)]))
        metric = DistanceMetric(kind="sqeuclidean", feature_map=fmap)
        if data.draw(st.booleans()):
            pool = rng.integers(-2, 3, (data.draw(st.integers(6, 40)), d)).astype(np.float64)
        else:
            pool = rng.standard_normal((data.draw(st.integers(6, 40)), d))
        pool = pool * scale
        pool[(pool == 0.0) & (rng.random(pool.shape) < 0.5)] = -0.0
        k = data.draw(st.integers(2, 4))
        newest, built, split = pool[-1], [], None
        with pytest.MonkeyPatch.context() as mp:
            spy = neighbors._split
            mp.setattr(neighbors, "_split", lambda x: built.append(x.shape) or spy(x))
            for step in range(data.draw(st.integers(3, 5))):
                tail = pool[rng.integers(0, len(pool), data.draw(st.integers(1, 40)))]
                tail = np.insert(tail, rng.integers(0, len(tail) + 1), newest, axis=0)
                tail = np.where((tail == 0.0) & (rng.random(tail.shape) < 0.5), -tail, tail)
                new = data.draw(st.booleans())
                if new:
                    newest = pool[rng.integers(0, len(pool))].copy()
                    newest[0] = np.nextafter(pool[:, 0].max(), np.inf)
                    tail = np.insert(tail, rng.integers(0, len(tail) + 1), newest, axis=0)
                prev, pool = pool, np.vstack([pool, tail])
                before = len(built)
                split = neighbors.split_of(PointSet(pool), metric, split)
                # The first step has nothing to grow from; later ones split only
                # for a new point, whose projection may still copy a held point.
                fresh = len(built) - before
                assert fresh == (step == 0 or new) if fmap.kind == "identity" else fresh <= (step == 0 or new)
                got = nn_cross(PointSet(tail), PointSet(prev), metric, split)
                assert same_bits(got, nn_cross(PointSet(tail), PointSet(prev), metric))
                assert same_bits(got, brute_sq(fmap.apply(tail), fmap.apply(prev), 1, within=False))
                x = fmap.apply(pool)
                alone = kth_nn_within(PointSet(pool), (1, k), metric)
                for rank, res, want in zip((1, k), kth_nn_within(PointSet(pool), (1, k), metric, split), alone):
                    assert same_bits(res, want) and same_bits(res, brute_sq(x, x, rank, within=True))

    def test_a_held_record_that_cannot_lead_the_set_is_not_grown(self):
        # A record of every row of the set, or of its leading rows' first
        # coordinates, cannot be the split of the set's leading rows: the set
        # is split in full, and both give a fresh split's answers. The rows
        # appended copy the first row of each first coordinate, so grown from
        # the narrow record they would join its five points.
        rng = np.random.default_rng(131)
        x = rng.integers(-2, 3, (60, 2)).astype(np.float64)
        narrow = neighbors.split_of(PointSet(x[:, :1]))
        ps = PointSet(np.vstack([x, x[narrow[1]]]))
        fresh = neighbors.split_of(ps)
        for held in (neighbors.split_of(ps), narrow):
            got = neighbors.split_of(ps, held=held)
            assert all(np.array_equal(g, w) for g, w in zip(got[:4], fresh[:4], strict=True))
            for k in (1, 3):
                assert same_bits(kth_nn_within(ps, k, split=got), brute_kth(ps.data, ps.data, k, within=True))

    def test_a_key_collision_falls_back_to_a_full_split(self, monkeypatch):
        # Every row gets one key, so copies of other points are proposed the
        # wrong point; the coordinates refuse it and the matrix is split.
        rng = np.random.default_rng(127)
        x = rng.integers(-2, 3, (60, 2)).astype(np.float64)
        monkeypatch.setattr(neighbors, "_row_keys", lambda rows: np.zeros(len(rows), dtype=np.uint64))
        assert self.grow_from(monkeypatch, x, np.vstack([x, x[::-1]])) == 1


class TestDistinctPoints:
    @staticmethod
    def searched(monkeypatch):
        """The (query rows, reference rows) of every `_search` call, from a
        state in which no earlier search is kept for reuse."""
        calls = []
        search = neighbors._search

        def spy(q, r, *args, **kwargs):
            calls.append((q.shape[0], r.shape[0]))
            return search(q, r, *args, **kwargs)

        monkeypatch.setattr(neighbors, "_search", spy)
        monkeypatch.setattr(neighbors, "_memo", None)
        return calls

    @staticmethod
    def splits(monkeypatch):
        """The shape of every matrix `_split` builds from."""
        shapes = []
        split = neighbors._split

        def spy(x):
            shapes.append(x.shape)
            return split(x)

        monkeypatch.setattr(neighbors, "_split", spy)
        return shapes

    @pytest.mark.parametrize("layout", ["normal", "lattice"])
    def test_copies_are_searched_once(self, monkeypatch, layout):
        # The final pool of a memorizing loop: 1,000 distinct rows, 3,500 in
        # all. On the lattice, rows that share a first coordinate interleave.
        # The queries copy pool rows, except 100 new points taken twice each:
        # only those are searched, once each.
        rng = np.random.default_rng(73)
        if layout == "lattice":
            base = np.array([[a, b] for a in range(25) for b in range(40)], dtype=np.float64)
            new = base[:100] + 0.5
        else:
            base = rng.standard_normal((1000, 2))
            new = rng.standard_normal((100, 2))
        pool = PointSet(np.concatenate([base, base[rng.integers(0, 1000, 2500)]]))
        queries = np.concatenate([pool.data[rng.integers(0, 3500, 700)], new, new])
        calls = self.searched(monkeypatch)
        kth_nn_within(pool, (1, 3))
        nn_cross(PointSet(queries[rng.permutation(len(queries))]), pool)
        assert calls == [(1000, 1000), (100, 1000)]

    @pytest.mark.parametrize("layout", ["normal", "lattice"])
    def test_duplicate_free_set_is_searched_whole(self, monkeypatch, layout):
        # A lattice repeats every first coordinate, but no row; no query is
        # a reference row.
        rng = np.random.default_rng(79)
        if layout == "lattice":
            data = np.array([[a, b] for a in range(50) for b in range(70)], dtype=np.float64)
            queries = data[:700] + 0.5
        else:
            data = rng.standard_normal((3500, 2))
            queries = rng.standard_normal((700, 2))
        calls = self.searched(monkeypatch)
        kth_nn_within(PointSet(data), (1, 3))
        nn_cross(PointSet(queries), PointSet(data))
        assert calls == [(3500, 3500), (700, 3500)]

    @pytest.mark.parametrize("layout", ["normal", "lattice"])
    def test_a_duplicate_free_set_is_searched_once(self, monkeypatch, layout):
        # A set without copies is its own split, so a second query of it,
        # after an nn_cross has split another matrix, reads the held search.
        rng = np.random.default_rng(83)
        if layout == "lattice":
            data = np.array([[a, b] for a in range(30) for b in range(40)], dtype=np.float64)
        else:
            data = rng.standard_normal((1200, 2))
        calls = self.searched(monkeypatch)
        first = kth_nn_within(PointSet(data), (1, 3))
        nn_cross(PointSet(data[:100] + 0.25), PointSet(data))
        again = kth_nn_within(PointSet(data.copy()), 3)
        assert calls == [(1200, 1200), (100, 1200)]
        assert same_bits(again, first[1])

    @pytest.mark.parametrize("copies", [False, True])
    @pytest.mark.parametrize("d", [2, 8])
    def test_ranks_that_skip_or_repeat_match_single_rank_calls(self, monkeypatch, d, copies):
        # 600 rows, which repeat about 260 points with copies: at d = 2 the
        # points search a grid of at least 6 cells per axis; at d = 8 the
        # grid is one cell and every point is screened.
        rng = np.random.default_rng([d, copies])
        data = rng.standard_normal((600, d))
        if copies:
            data = data[rng.integers(0, 300, 600)]
        ps = PointSet(data)
        points = np.unique(data, axis=0)
        assert (neighbors._grid(points, points, True)[0] is None) == (d == 8)
        for ranks in ((2, 5), (1, 1, 3), (3,)):
            monkeypatch.setattr(neighbors, "_memo", None)
            got = kth_nn_within(ps, ranks)
            assert len(got) == len(ranks)
            for rank, res in zip(ranks, got):
                monkeypatch.setattr(neighbors, "_memo", None)
                assert same_bits(res, kth_nn_within(ps, rank))
                assert same_bits(res, brute_kth(data, data, rank, within=True))

    @pytest.mark.parametrize("copies", [False, True])
    def test_ranks_in_the_tens_match_brute_force_and_hold_only_themselves(self, monkeypatch, copies):
        # Copies of up to 6 rows put a point's copies at ranks 1..5 and its
        # other points' rows at the ranks after them.
        rng = np.random.default_rng([31, copies])
        data = rng.standard_normal((400, 2))
        if copies:
            data = data[rng.integers(0, 120, 400)]
        monkeypatch.setattr(neighbors, "_memo", None)
        got = kth_nn_within(PointSet(data), (1, 17, 30), DistanceMetric(kind="sqeuclidean"))
        for rank, res in zip((1, 17, 30), got):
            assert same_bits(res, brute_sq(data, data, rank, within=True))
            # No answer is a view that keeps ranks 1..30 alive.
            assert res.base is None

    def test_exact_matches_are_refused_where_distinct_rows_can_measure_zero(self, monkeypatch):
        # Coordinates near 1e-160, 1e-163 apart: (1e-163)**2 underflows to 0,
        # so distinct rows measure 0 and a 0 does not mark a copy. Every
        # distinct query point is searched.
        rng = np.random.default_rng(89)
        base = 1e-160 + 1e-163 * rng.integers(0, 4, (40, 2))
        refs = base[rng.integers(0, 40, 120)]
        queries = np.concatenate([refs[rng.integers(0, 120, 60)], 1e-160 + 1e-163 * rng.integers(4, 9, (20, 2))])
        calls = self.searched(monkeypatch)
        res = nn_cross(PointSet(queries), PointSet(refs))
        assert calls == [(len(np.unique(queries, axis=0)), len(np.unique(refs, axis=0)))]
        ref_d = brute_kth(queries, refs, 1, within=False)
        assert np.array_equal(res, ref_d)
        # Some query that copies no reference row measures 0.
        assert not (queries[60:, None] == refs).all(axis=2).any()
        assert (res[60:] == 0.0).any()

    def test_a_reused_search_answers_only_its_own_points(self, monkeypatch):
        # A, then A with one coordinate moved by one ulp, then A again, then
        # A with a zero of the other sign: each is searched, and a repeat of
        # the last set is not.
        rng = np.random.default_rng(97)
        base = np.concatenate([rng.integers(-4, 5, (300, 2)).astype(np.float64), [[0.0, 1.0]]])
        a = base[rng.integers(0, 301, 900)]
        a[0] = [0.0, 1.0]
        moved = a.copy()
        moved[a[:, 0] == a[5, 0], 0] = np.nextafter(a[5, 0], np.inf)
        signed = a.copy()
        signed[a[:, 0] == 0.0, 0] = -0.0
        calls = self.searched(monkeypatch)
        for data in (a, moved, a, signed, signed):
            for k, res in zip((1, 3), kth_nn_within(PointSet(data), (1, 3))):
                ref_d = brute_kth(data, data, k, within=True)
                assert np.array_equal(res, ref_d)
        assert [q for q, _ in calls] == [len(np.unique(x, axis=0)) for x in (a, moved, a, signed)]

    def test_mutating_a_result_changes_no_later_answer(self, monkeypatch):
        rng = np.random.default_rng(101)
        base = rng.standard_normal((200, 2))
        pool = np.concatenate([base, base[rng.integers(0, 200, 400)]])
        queries = pool[rng.integers(0, 600, 100)]
        self.searched(monkeypatch)
        want = brute_kth(pool, pool, 2, within=True), brute_kth(queries, pool, 1, within=False)
        for _ in range(2):
            got = kth_nn_within(PointSet(pool), 2), nn_cross(PointSet(queries), PointSet(pool))
            for res, ref_d in zip(got, want):
                assert np.array_equal(res, ref_d)
                res[:] = -1.0

    def test_a_pool_is_split_once_for_both_queries(self, monkeypatch):
        # As in an accumulate loop: the pool is the training set stacked over
        # the generation, and both queries read the split `split_of` built
        # from it. Without a split, a query splits its set again.
        rng = np.random.default_rng(103)
        current = PointSet(rng.standard_normal((300, 2))[rng.integers(0, 300, 600)])
        generation = current.rows(rng.integers(0, 600, 200))
        pool = PointSet.concat([current, generation])
        self.searched(monkeypatch)
        shapes = self.splits(monkeypatch)
        split = neighbors.split_of(pool)
        cross = nn_cross(generation, current, EUCLIDEAN, split)
        within = kth_nn_within(pool, (1, 3), EUCLIDEAN, split)
        assert shapes == [(800, 2)]
        kth_nn_within(pool, 2)
        assert shapes == [(800, 2)] * 2
        ref_d = brute_kth(generation.data, current.data, 1, within=False)
        assert np.array_equal(cross, ref_d)
        for k, res in zip((1, 3), within):
            ref_d = brute_kth(pool.data, pool.data, k, within=True)
            assert np.array_equal(res, ref_d)

    def test_a_set_with_copies_is_split_at_each_call_and_searched_once(self, monkeypatch):
        # No split outlives a call; the search of the set's points does. The
        # same shape with 0.0 turned into -0.0, then with one coordinate moved
        # by one ulp, is searched again, and a repeat is not.
        rng = np.random.default_rng(107)
        a = rng.integers(-3, 4, (100, 2)).astype(np.float64)[rng.integers(0, 100, 400)]
        a[0] = [0.0, 2.0]
        moved = a.copy()
        moved[a[:, 1] == a[3, 1], 1] = np.nextafter(a[3, 1], np.inf)
        signed = a.copy()
        signed[a == 0.0] = -0.0
        calls = self.searched(monkeypatch)
        shapes = self.splits(monkeypatch)
        for data in (a, a, signed, moved, moved):
            for k, res in zip((1, 3), kth_nn_within(PointSet(data), (1, 3))):
                ref_d = brute_kth(data, data, k, within=True)
                assert same_bits(res, ref_d)
        assert shapes == [a.shape] * 5
        assert [q for q, _ in calls] == [len(np.unique(x, axis=0)) for x in (a, signed, moved)]

    @pytest.mark.parametrize("k", [1, 4, 32])
    def test_a_set_without_copies_is_answered_by_its_search(self, monkeypatch, k):
        # Every size is 1, so rank i is the search's v_i: no columns are
        # searched or held, and every rank has the bits of brute force.
        rng = np.random.default_rng([109, k])
        x = rng.standard_normal((300, 2))
        self.searched(monkeypatch)
        got = neighbors._within(neighbors._distinct(x), k)
        assert got.shape == (k, 300) and neighbors._memo[3] is None
        for rank in range(1, k + 1):
            assert same_bits(got[rank - 1], brute_sq(x, x, rank, within=True))

    def test_a_search_held_without_columns_serves_no_set_with_copies(self, monkeypatch):
        # The points of a set with copies are the set without them in
        # coordinate order, so the held search of the set without copies has
        # their bits; the rule needs the columns, so the points are searched
        # again, with them.
        rng = np.random.default_rng(113)
        x = rng.standard_normal((200, 2))
        x = x[np.lexsort(x.T[::-1])]
        copies = np.vstack([x, x[rng.integers(0, 200, 50)]])
        calls = self.searched(monkeypatch)
        for data in (x, copies):
            for k, res in zip((1, 3), kth_nn_within(PointSet(data), (1, 3), DistanceMetric(kind="sqeuclidean"))):
                assert same_bits(res, brute_sq(data, data, k, within=True))
        assert calls == [(200, 200), (200, 200)]

    def test_no_search_when_every_point_has_more_than_k_rows(self, monkeypatch):
        # 40 points with 3 to 5 rows each: ranks 1 and 2 are copies at 0.
        rng = np.random.default_rng(127)
        data = np.repeat(rng.standard_normal((40, 2)), rng.integers(3, 6, 40), axis=0)
        calls = self.searched(monkeypatch)
        for k, res in zip((1, 2), kth_nn_within(PointSet(data), (1, 2), DistanceMetric(kind="sqeuclidean"))):
            assert same_bits(res, brute_sq(data, data, k, within=True))
        assert calls == []

    def test_a_set_written_in_place_is_measured_afresh(self, monkeypatch):
        # PointSet data is read-only, but a caller can make it writable. The
        # split holds a copy, so the write reaches the next call's answer.
        self.searched(monkeypatch)
        ps = PointSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        assert kth_nn_within(ps, 1).tolist() == [0.0, 0.0, 1.0, 2.0]
        ps.data.flags.writeable = True
        ps.data[1] = [5.0, 0.0]
        assert kth_nn_within(ps, 1).tolist() == [1.0, 2.0, 1.0, 2.0]

    def test_grow_grows_or_refuses_a_record(self):
        # `_grow` alone, with no module state: a grown record for appended
        # copies, a zero of the other sign among them, and None for a new point.
        memo = neighbors._memo
        x = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]])
        record = (x, *neighbors._split(x), None)
        stack = np.vstack([x, [[2.0, 3.0], [-0.0, 1.0]]])
        grown = neighbors._grow(record, stack)
        assert grown[0] is stack
        # First rows, sizes and each row's point: the record `_split` builds.
        for got, want, split in zip(grown[1:4], ([0, 1], [3, 2], [0, 1, 0, 1, 0]), neighbors._split(stack)):
            assert got.tolist() == want == split.tolist()
        # The keys are computed once and ride with each later growth.
        assert grown[4] is not None
        assert neighbors._grow(grown, np.vstack([stack, x[:1]]))[4] is grown[4]
        assert neighbors._grow(record, np.vstack([x, [[2.0, 4.0]]])) is None
        assert neighbors._grow(grown, np.vstack([stack, [[2.0, 4.0]]])) is None
        assert neighbors._memo is memo

    @pytest.mark.parametrize("mirror", [1.0, -1.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_a_tie_across_the_last_searched_rank_matches_all_pairs(self, monkeypatch, mirror, d):
        # Points on a line with unequal copy counts, 0 held at +0.0 and -0.0:
        # 1 and -1 tie at distance 1 from 0, and -1 and 3 at distance 2 from
        # 1, so a search of the points for ranks 1..K with K = 1, 2 or 3 ranks
        # one of two tied points of other sizes last and leaves the other
        # out. Mirrored, the other tied point sorts first. Every rank must
        # still be the all-pairs answer.
        counts = {0.0: 2, -0.0: 1, 1.0: 1, -1.0: 4, 2.0: 2, -2.0: 1, 3.0: 1}
        line = mirror * np.array([value for value, c in counts.items() for _ in range(c)])
        data = np.column_stack([line] + [np.where(line < 0, -0.0, 0.0)] * (d - 1))
        data = data[np.random.default_rng(137).permutation(len(data))]
        diff = data[:, None, :] - data[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(d2, np.inf)
        all_pairs = np.sort(d2, axis=1)
        for k in range(1, 7):
            self.searched(monkeypatch)
            for rank, res in zip((1, k), kth_nn_within(PointSet(data), (1, k), DistanceMetric(kind="sqeuclidean"))):
                assert same_bits(res, all_pairs[:, rank - 1])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_nn_cross_with_copies_matches_all_pairs(self, data):
        # Queries mix copies of reference rows, the same rows with zeros of
        # the other sign, and new points, on a small integer lattice full of
        # ties, scaled down to where squared distances underflow.
        d = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 200))
        refs = rng.integers(-3, 4, (n, d)).astype(np.float64)
        refs = refs[rng.integers(0, n, data.draw(st.integers(1, 400)))]
        refs[(refs == 0.0) & (rng.random(refs.shape) < 0.3)] = -0.0
        copies = refs[rng.integers(0, len(refs), data.draw(st.integers(0, 100)))]
        flipped = np.where(copies == 0.0, np.copysign(0.0, -np.copysign(1.0, copies)), copies)
        new = rng.integers(-4, 5, (data.draw(st.integers(0, 50)), d)) + rng.choice([0.0, 0.5], (1, d))
        queries = np.concatenate([copies, flipped, new, refs[:1]])[rng.permutation(2 * len(copies) + len(new) + 1)]
        scale = data.draw(st.sampled_from([1.0, 1e-8, 1e8, 1e-150, 1e-160, 1e-170]))
        queries, refs = queries * scale, refs * scale
        res = nn_cross(PointSet(queries), PointSet(refs))
        ref_d = brute_kth(queries, refs, 1, within=False)
        assert same_bits(res, ref_d)

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
        assert np.isfinite(kth_nn_within(PointSet(data[6:]), 1, metric)).all()


class TestDeterminism:
    def test_block_size_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(37)
        ps = PointSet(rng.standard_normal((300, 4)))
        base = kth_nn_within(ps, k=2)
        monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 1 << 10)
        small = kth_nn_within(ps, k=2)
        assert np.array_equal(base, small)

    def test_block_budget_keeps_brute_force_bits(self, monkeypatch):
        rng = np.random.default_rng(41)
        data = rng.standard_normal((500, 3))
        ps = PointSet(data)
        base = kth_nn_within(ps, k=1)
        monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 1 << 12)
        small = kth_nn_within(ps, k=1)
        ref_d = brute_kth(data, data, 1, within=True)
        for res in (base, small):
            assert np.array_equal(res, ref_d)

    @pytest.mark.parametrize("k", [1, 3])
    def test_block_budget_keeps_brute_force_bits_on_grid(self, monkeypatch, k):
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
            for got, ref_d in zip(res, want):
                assert np.array_equal(got, ref_d)

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
            "sys.stdout.buffer.write(b''.join(r.tobytes() for r in out))\n"
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
