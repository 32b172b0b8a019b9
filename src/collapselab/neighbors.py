"""Exact nearest-neighbor queries on a uniform cell grid.

One engine serves both queries. The reference points are binned into a
grid of m = floor((n / 6) ** (1 / d)) cells per axis over their bounding
box, and the query rows are grouped by the cell they fall in (a query
outside the box counts in the nearest edge cell). Each group searches
only the reference points of its 3**d neighboring cells.

Exactness. Distances come from the literal (a - b)**2 kernel of
`sq_dists` rather than the dot product expansion, so coincident points
measure exactly zero, and a pair measures the same bits whichever block
computes it. At d <= 2 the kernel adds the squares one coordinate at a
time. Each square is rounded once, and a sum of at most two non-negative
terms rounds once in any order, so these are the bits of the einsum
reduction. At d >= 3 the einsum stays: its summation order varies with
the CPU (which is why bench/pinned.json records the CPU model), and a
fixed left-to-right sum would change the bits. Each group's candidate
columns are sorted by ascending row index, so the tie-break toward the
lower index works as it does over all columns. A row's answer is
accepted only when its k-th squared distance is strictly below the
squared distance from the query to the edge of the searched region,
shrunk by a rounding slack: 32 eps times the largest coordinate
magnitude covers the cell assignment, the cell edges and the
subtraction, and a factor 1 - 4 (d + 2) eps covers the summed squares.
Every point outside the region then measures strictly more than the
answer, so the answer is the one the search over all points would give.
Rows that fail the check, or whose region holds fewer than k candidates,
are searched over all points. A search for several ranks takes all from
the same candidates, with the count, the check and the screen below set by
the largest rank; whatever that proves exact holds for the smaller ones.

When m < 4 (at d = 8, for n below about 400k) the grid is one cell: every
query searches every point, through the screen below.

Screen. A query that searches every point, in the one-cell case or as a
fallback row, first bounds its squared distance to every column from below
by the norm expansion (1 - c)(|a|^2 + |b|^2) - 2 a.b - d tiny, with
c = 4 (d + 4) eps, as one GEMM (`_lift`). With D = |a - b|^2 <= 2S,
S = |a|^2 + |b|^2 and u = eps / 2, to first order the literal kernel
returns at least D - (2d + 4) u S, and the GEMM, the norms and their
roundings at most D - c S + (3d + 7) u S for any summation order and BLAS
thread count (Higham, Accuracy and Stability of Numerical Algorithms,
3.1); c S = (8d + 32) u S covers both, and d tiny covers underflow. The
literal kernel measures the k columns of lowest bound; the largest of
those values is at least the k-th distance, so a column whose bound
exceeds it can neither be among the k nearest nor tie the k-th. Only the
other columns, in ascending index order, go through `sq_dists` and
`_select`, so every value still comes from the literal kernel. A point
with |x|^2 above max/8 gets NaN bounds, so no sum in the GEMM overflows,
and a NaN bound keeps its column. Where the expansion cancels (points far
from the origin for their spread, or a collapsed set) a row keeps most
columns, and its block measures all of them: slower, never wrong.

Blocks. Each group is split into blocks of query rows whose diff tensor
stays within _BLOCK_BUDGET elements, so a dense or collapsed cell never
makes one huge block. A screened block also counts 8 elements per column
for its bounds and index arrays; it gathers kept columns only when each
row keeps at most half, so the gathered copy and its diff tensor fit too.
The partition depends only on the data, and each block writes a disjoint
set of output rows, so the results do not depend on the block size.

Distinct points. Both queries search each distinct row of a set once (a
memorizing generator fills its pool with copies). Rows whose coordinates
compare equal are one point; a set with no repeated value in its first
column has none and takes the search above unchanged. Points are ordered
by their first row, so the tie-break toward the lower index picks, among
tied points, the one holding the lowest tied row. `nn_cross` returns that
point's first row to every copy of the query. `kth_nn_within` with
largest rank K searches the points for ranks 1..K, then builds for each
point g a list L_g of (squared distance, row) pairs: g's first K + 1 rows
at distance 0, and the first K rows of each of g's K nearest points.
Sorted, L_g starts with the first entries of the order A of all rows by
(squared distance from g, row). Every point ranked ahead of a point h has
its first row ahead of each row s of h in A, and so does every lower row
of h. So the j-th entry of A is among its point's first j rows, and its
point is g or one of g's j nearest others: any of A's first K entries is
in L_g, and the (K + 1)-th is too once a row of g is ahead of it. Row r of
g, skipping itself, then has as its k-th neighbor L_g[k] if
L_g[k] < (0, r), else L_g[k + 1] (1-based), which is read only when r is
among the first k entries. The rule compares only the bits the kernel
returns, so it holds for ties, for zeros of either sign, whose distances
have the same bits, and for distinct rows whose squared distance
underflows to 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EmptyDatasetError, InsufficientPointsError, is_number
from .tensorset import DistanceMetric, PointSet

# Elements of the (rows x cols x dim) diff tensor per block, ~32 MB of f64.
_BLOCK_BUDGET = 1 << 22
# The grid aims at this many reference points per cell. With fewer than
# _MIN_CELLS cells per axis, the 3**d neighborhood covers most of the box
# and the grid would only add overhead, so it becomes a single cell.
_POINTS_PER_CELL = 6
_MIN_CELLS = 4
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max) / 8


@dataclass(frozen=True, eq=False)
class NeighborResult:
    """Per-query neighbor distance and the neighbor's row index."""

    distances: np.ndarray
    indices: np.ndarray


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact pairwise squared euclidean distances, shape (len(a), len(b)); b
    may also hold its own columns for each row of a, shape (len(a), m, dim).

    At dim <= 2 the squares are summed one coordinate at a time, so every
    numpy loop runs over the columns instead of over a length-2 axis. The
    bits are those of einsum("ijk,ijk->ij"): each square is rounded once,
    and a sum of at most two non-negative terms rounds once in any order.
    At dim >= 3 the einsum stays, since its summation order depends on
    the CPU and no fixed order reproduces it.
    """
    if a.shape[1] > 2:
        diff = a[:, None, :] - b
        return np.einsum("ijk,ijk->ij", diff, diff)
    out = a[:, None, 0] - b[..., 0]
    out *= out
    for k in range(1, a.shape[1]):
        t = a[:, None, k] - b[..., k]
        t *= t
        out += t
    return out


def _lift(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows [x, (1 - c)|x|^2, 1] and [-2x, 1, (1 - c)|x|^2 - d tiny]: a's
    left rows times b's right rows bound sq_dists(a, b) from below."""
    dim = x.shape[1]
    sq = np.einsum("ij,ij->i", x, x)[:, None]
    # Below max/8 no partial sum of the product can overflow; a larger norm
    # makes every bound of its row NaN.
    sq[~(sq <= _HUGE)] = np.nan
    sq *= 1.0 - 4 * (dim + 4) * _EPS
    one = np.ones_like(sq)
    return np.hstack([x, sq, one]), np.hstack([-2.0 * x, one, sq - dim * _TINY])


def _blocks(rows: np.ndarray, per_row: int) -> list[np.ndarray]:
    """Cut query rows into blocks of at most _BLOCK_BUDGET elements, at
    per_row elements a row."""
    step = max(1, _BLOCK_BUDGET // max(1, per_row))
    return [rows[s : s + step] for s in range(0, rows.size, step)]


def _select(d2: np.ndarray, ranks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """For each rank k, the k-th smallest value of each row and its column,
    ties toward the lower column; both of shape (len(ranks), rows)."""
    vals = np.empty((len(ranks), d2.shape[0]))
    cols = np.empty((len(ranks), d2.shape[0]), dtype=np.int64)
    for j, k in enumerate(ranks):
        if k == 1:
            vals[j], cols[j] = d2.min(axis=1), d2.argmin(axis=1)
            continue
        vals[j] = np.partition(d2, k - 1, axis=1)[:, k - 1]
        below = np.count_nonzero(d2 < vals[j, :, None], axis=1)
        # The answer is the (k - below)-th column holding the k-th value.
        seen = np.cumsum(d2 == vals[j, :, None], axis=1, dtype=np.int32)
        cols[j] = np.argmax(seen >= (k - below)[:, None], axis=1)
    return vals, cols


def _screen(q, r, right, ranks: tuple[int, ...], own) -> tuple[np.ndarray, np.ndarray]:
    """`_select` of each query row over all of r: for each rank k its k-th
    smallest squared distance and that column. `own`, each row's own column
    within one set, is left out. The screen is set by the largest rank, and
    keeps every column that a smaller rank could need.

    Kept columns are gathered per row, ascending and padded with -1. A
    block where some row keeps more than half the columns measures every
    column straight from r: the gathered copy would cost more time and
    memory than the full search.
    """
    rows = np.arange(q.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        lo = _lift(q)[0] @ right.T
    if own is None:
        own = np.full(rows.size, -1)
    else:
        lo[rows, own] = np.inf

    def measure(cand: np.ndarray) -> np.ndarray:
        d2 = sq_dists(q, r[cand])
        d2[(cand < 0) | (cand == own[:, None])] = np.inf
        return d2

    k = ranks[-1]
    near = lo.argmin(axis=1)[:, None] if k == 1 else np.argpartition(lo, k - 1, axis=1)[:, :k]
    # "Not above" keeps a column whose bound is NaN.
    keep_r, keep_c = np.divmod(np.flatnonzero(~(lo > measure(near).max(axis=1)[:, None])), lo.shape[1])
    # Freed before the measurement, so the block stays within its budget.
    del lo
    counts = np.bincount(keep_r, minlength=rows.size)
    if 2 * counts.max() > r.shape[0]:
        cand = np.arange(r.shape[0])[None, :]
    else:
        cand = np.full((rows.size, counts.max()), -1, dtype=np.int64)
        cand[keep_r, np.arange(keep_r.size) - np.repeat(np.cumsum(counts) - counts, counts)] = keep_c
    del keep_r, keep_c
    vals, cols = _select(measure(cand), ranks)
    return vals, np.take_along_axis(cand, cols.T, axis=1).T


def _grid(q: np.ndarray, r: np.ndarray, within: bool):
    """Group the queries by grid cell.

    Returns the reference rows sorted by cell, the groups as (query rows,
    runs, candidate count), and for every query the bound its k-th squared
    distance must stay strictly below to be accepted. A group's runs are
    the slices of the sorted reference rows that make up its 3**d
    neighboring cells. A one-cell grid has no groups: every query searches
    all points.
    """
    dim = q.shape[1]
    m = int((r.shape[0] / _POINTS_PER_CELL) ** (1.0 / dim))
    if m < _MIN_CELLS:
        return None, [], None

    lo = r.min(axis=0)
    hi = r.max(axis=0)
    width = (hi - lo) / m
    # A flat axis puts every point in cell 0 whatever the width.
    width[width == 0.0] = 1.0

    def cells(x: np.ndarray) -> np.ndarray:
        return np.clip(np.floor((x - lo) / width), 0, m - 1).astype(np.int64)

    c_r = cells(r)
    c_q = c_r if within else cells(q)

    # A side of the searched region that reaches an edge cell of the grid
    # has no reference point beyond it.
    below = np.where(c_q > 1, q - (lo + (c_q - 1) * width), np.inf)
    above = np.where(c_q < m - 2, (lo + (c_q + 2) * width) - q, np.inf)
    edge = np.minimum(below, above).min(axis=1)
    slack = 32.0 * _EPS * max(np.abs(lo).max(), np.abs(hi).max(), np.abs(q).max())
    reach = np.maximum(edge - slack, 0.0)
    with np.errstate(over="ignore"):
        bound = reach * reach * (1.0 - 4 * (dim + 2) * _EPS)
    # Past overflow or below the normal range the relative rounding
    # argument fails; such rows take the search over all points.
    bound[(bound < _TINY) | (np.isinf(bound) & np.isfinite(edge))] = 0.0

    strides = m ** np.arange(dim - 1, -1, -1)
    flat_r = c_r @ strides
    flat_q = flat_r if within else c_q @ strides
    order = np.argsort(flat_r, kind="stable")
    ends = np.cumsum(np.bincount(flat_r, minlength=m**dim))
    starts = np.concatenate(([0], ends[:-1]))
    q_order = order if within else np.argsort(flat_q, kind="stable")
    _, first, sizes = np.unique(flat_q[q_order], return_index=True, return_counts=True)

    # Neighboring cells that differ only in the last coordinate are adjacent
    # in `order`, so a neighborhood is 3**(d-1) contiguous runs.
    home = c_q[q_order[first]]
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=dim - 1)), dtype=np.int64)
    lead = home[:, None, :-1] + shifts.reshape(3 ** (dim - 1), dim - 1)
    inside = np.all((lead >= 0) & (lead < m), axis=2)
    base = np.clip(lead, 0, m - 1) @ strides[:-1]
    last = home[:, -1:]
    run_lo = starts[base + np.maximum(last - 1, 0)]
    run_hi = np.where(inside, ends[base + np.minimum(last + 1, m - 1)], run_lo)
    counts = (run_hi - run_lo).sum(axis=1)
    groups = [
        (q_order[f : f + s], [slice(a, b) for a, b in zip(los, his) if b > a], c)
        for f, s, los, his, c in zip(
            first.tolist(), sizes.tolist(), run_lo.tolist(), run_hi.tolist(), counts.tolist()
        )
    ]
    return order, groups, bound


def _search(q: np.ndarray, r: np.ndarray, ranks: tuple[int, ...], within: bool) -> tuple[np.ndarray, np.ndarray]:
    """k-th nearest reference row of every query for each k of the ascending
    ranks, as squared distances and indices of shape (len(ranks), len(q)).

    With `within`, q is r and each query skips its own row.
    """
    n_q, dim = q.shape
    out_v = np.empty((len(ranks), n_q), dtype=np.float64)
    out_i = np.empty((len(ranks), n_q), dtype=np.int64)
    accepted = np.zeros(n_q, dtype=bool)
    order, groups, bound = _grid(q, r, within)
    for rows, runs, n_cand in groups:
        if n_cand < ranks[-1] + within:
            continue
        cand = np.sort(np.concatenate([order[run] for run in runs]))
        r_cand = r[cand]
        for blk in _blocks(rows, cand.size * dim):
            d2 = sq_dists(q[blk], r_cand)
            if within:
                d2[np.arange(blk.size), np.searchsorted(cand, blk)] = np.inf
            vals, cols = _select(d2, ranks)
            out_v[:, blk], out_i[:, blk] = vals, cand[cols]
            accepted[blk] = vals[-1] < bound[blk]
    # The rest search every point, which is exact even at an inf distance.
    rest = np.flatnonzero(~accepted)
    if rest.size:
        right = _lift(r)[1]
        for blk in _blocks(rest, r.shape[0] * (dim + 8)):
            out_v[:, blk], out_i[:, blk] = _screen(q[blk], r, right, ranks, blk if within else None)
    return out_v, out_i


def _distinct(x: np.ndarray, keep: int = 1) -> tuple[np.ndarray, np.ndarray] | None:
    """The lowest `keep` rows of each distinct point of x, ascending and
    padded with len(x), the points in order of first occurrence; and each
    row's point. None when no row repeats.

    Rows are one point when their coordinates compare equal, so rows that
    differ only in the sign of a zero are one point: every distance to
    them has the same bits.
    """
    n = x.shape[0]
    col = np.sort(x[:, 0])
    if not (col[1:] == col[:-1]).any():
        return None
    # The sort is stable, so each point's rows stay ascending.
    order = np.lexsort(x.T[::-1])
    s = x[order]
    same = (s[1:] == s[:-1]).all(axis=1)
    if not same.any():
        return None
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    sizes = np.diff(starts, append=n)
    t = np.arange(keep)
    rows = np.where(t < sizes[:, None], order[np.minimum(starts[:, None] + t, n - 1)], n)
    by_first = np.argsort(rows[:, 0])
    label = np.empty(starts.size, dtype=np.int64)
    label[by_first] = np.arange(starts.size)
    point = np.empty(n, dtype=np.int64)
    point[order] = np.repeat(label, sizes)
    return rows[by_first], point


def _within(x: np.ndarray, ranks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """`_search(x, x, ranks, within=True)`, with each distinct point searched
    once and its answers spread to its copies by the rule of the module
    docstring."""
    n, top = x.shape[0], ranks[-1]
    found = _distinct(x, top + 1)
    if found is None:
        return _search(x, x, ranks, within=True)
    copies, point = found
    u = x[copies[:, 0]]
    # Each point's nearest `top` other points, or all of them if fewer.
    near = tuple(range(1, min(top, u.shape[0] - 1) + 1))
    if near:
        v, i = _search(u, u, near, within=True)
    else:
        v, i = np.empty((0, u.shape[0])), np.empty((0, u.shape[0]), dtype=np.int64)
    # L_g: the point's own rows at distance 0, then each neighbor's first `top`.
    rows = np.hstack([copies, copies[i.T, :top].reshape(u.shape[0], -1)])
    d2 = np.hstack([np.zeros(copies.shape), np.repeat(v.T, top, axis=1)])
    d2[rows == n] = np.inf
    first = np.lexsort((rows, d2))[:, : top + 1]
    # (top + 1, n): the first top + 1 entries of every row's point.
    d2 = np.take_along_axis(d2, first, axis=1)[point].T
    rows = np.take_along_axis(rows, first, axis=1)[point].T
    # Row r's k-th neighbor is L_g[k] if it sorts before (0, r), else L_g[k + 1].
    k = np.array(ranks)
    ahead = (d2[k - 1] == 0.0) & (rows[k - 1] < np.arange(n))
    return np.where(ahead, d2[k - 1], d2[k]), np.where(ahead, rows[k - 1], rows[k])


def kth_nn_within(
    ps: PointSet, k: int | tuple[int, ...], metric: DistanceMetric = DistanceMetric()
) -> NeighborResult | tuple[NeighborResult, ...]:
    """k-th nearest neighbor of every point within the same set, self excluded.

    Ties are broken toward the lower row index. Distances are reported in
    the metric's units (euclidean or squared euclidean) in feature space.
    k may also be a sorted tuple of ranks, such as (1, gamma): one search
    then gives a NeighborResult per rank, in the order of k, each the same
    bits as its own single-rank call.
    """
    ranks = k if isinstance(k, tuple) else (k,)
    valid = all(is_number(j, int) and j >= 1 for j in ranks)
    if not (ranks and valid and list(ranks) == sorted(ranks)):
        raise ConfigError(f"k must be a positive integer or a sorted tuple of them, got {k!r}")
    top = ranks[-1]
    n = ps.size
    if n <= top:
        raise InsufficientPointsError(f"need at least {top + 1} points for the {top}-th neighbor, got {n}")
    x = np.ascontiguousarray(metric.feature_map.apply(ps.data))
    distinct = tuple(sorted(set(ranks)))
    out_v, out_i = _within(x, distinct)
    found = {j: NeighborResult(metric.from_squared(v), i) for j, v, i in zip(distinct, out_v, out_i)}
    return tuple(found[j] for j in ranks) if isinstance(k, tuple) else found[k]


def nn_cross(queries: PointSet, refs: PointSet, metric: DistanceMetric = DistanceMetric()) -> NeighborResult:
    """Nearest reference point for every query; a query may match itself.

    Identical rows in queries and refs produce a distance of exactly zero.
    """
    if refs.size == 0:
        raise EmptyDatasetError("reference set is empty")
    if queries.size == 0:
        raise EmptyDatasetError("query set is empty")
    if queries.dim != refs.dim:
        raise DimensionError(f"query dimension {queries.dim} != reference dimension {refs.dim}")
    q = np.ascontiguousarray(metric.feature_map.apply(queries.data))
    r = np.ascontiguousarray(metric.feature_map.apply(refs.data))
    # Equal queries get equal answers, and the first row of the nearest
    # distinct reference is the lowest of its tied rows.
    q_found, r_found = _distinct(q), _distinct(r)
    if q_found:
        q = q[q_found[0][:, 0]]
    if r_found:
        r = r[r_found[0][:, 0]]
    out_v, out_i = _search(q, r, (1,), within=False)
    out_v, out_i = out_v[0], out_i[0]
    if q_found:
        out_v, out_i = out_v[q_found[1]], out_i[q_found[1]]
    if r_found:
        out_i = r_found[0][out_i, 0]
    return NeighborResult(metric.from_squared(out_v), out_i)
