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
fixed left-to-right sum would change the bits. A row's answer is
accepted only when its k-th squared distance is strictly below the
squared distance from the query to the edge of the searched region,
shrunk by a rounding slack: 32 eps times the largest coordinate
magnitude covers the cell assignment, the cell edges and the
subtraction, and a factor 1 - 4 (d + 2) eps covers the summed squares.
Every point outside the region then measures strictly more than the
answer, so the answer is the one the search over all points would give.
Rows that fail the check, or whose region holds fewer than k candidates,
are searched over all points. A search returns ranks 1..k of each row, all
from the same candidates, with the count, the check and the screen below
set by rank k; what that proves exact holds for the smaller ranks. The
queries return distances only: the k-th smallest value of a row is the
same bits whichever of its tied columns holds it.

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
other columns go through `sq_dists` and `_select`, so every value still
comes from the literal kernel. A point with |x|^2 above max/8 gets NaN
bounds, so no sum in the GEMM overflows, and a NaN bound keeps its column.
Where the expansion cancels (points far from the origin for their spread,
or a collapsed set) a row keeps most columns, and its block measures all
of them: slower, never wrong.

Blocks. Each group is split into blocks of query rows whose diff tensor
stays within _BLOCK_BUDGET elements, so a dense or collapsed cell never
makes one huge block. A screened block also counts 8 elements per column
for its bounds and index arrays; it gathers kept columns only when each
row keeps at most half, so the gathered copy and its diff tensor fit too.
The partition depends only on the data, and each block writes a disjoint
set of output rows, so the results do not depend on the block size.

Distinct points. Both queries search each distinct row of a set once (a
memorizing generator fills its pool with copies). Rows whose coordinates
compare equal are one point; a set without copies is its own split, each
row a point of size 1, in row order. A set with a repeated first coordinate
is ranked: `_split` ranks each column with np.unique, where values that
compare equal, zeros of either sign among them, share a rank. It folds the
ranks into one integer key per row, key * m + rank for a column of m
values, and ranks the keys again whenever the next fold could pass the
int64 range. A fold is one-to-one on (key, rank), since rank < m, and a
re-rank keeps order and equality, so two rows share a key exactly when all
their coordinates compare equal, and keys order the points as their
coordinates do. One np.unique of the keys gives each point's first row, its
size s_g (its number of rows) and each row's point, unless every size is 1.

Multiplicity. `_within` answers ranks 1..K of each point's rows from a
search of the points for ranks 1..K', K' = min(K, points - 1), each at a
different point. A row of point g sees its s_g - 1 copies at distance 0 and,
for each other point h, s_h rows at g's distance to h. So its k-th neighbor
is 0 if k < s_g. Otherwise, with v_j the distance to the j-th point g's
search ranks and C_j the sum of the sizes of its first j points, it is v_j
at the first j where C_j reaches k - s_g + 1; with every size 1 that is v_k.
Listing each point's rows in the order of the search gives the row distances
in ascending order, and any order of tied points does: every point nearer
than v_j ranks ahead of the j-th, and any ascending list has the same entry
at each place. Ranks up to K' always reach the count: C_K >= K >= k, and C
over all other points is n - s_g >= k - s_g + 1. The rule compares only the
bits the kernel returns, so it holds for zeros of either sign, whose
distances have the same bits, and for distinct points whose squared distance
underflows to 0. The first j is counted as the number of j with C_j below
the target, capped at K' - 1: where squared distances overflow to inf, a
ranked column at inf may be g itself or screen padding, but every column of
finite value is a true other point, so the count is exact for a finite
answer and lands on an inf otherwise. The rule is the only reader of the
points a search ranks: `_search`, `_screen` and `_select` return them only
when asked, and `_within` asks only for a set with copies. Without copies
every size is 1, so rank k is v_k and the search's distances are the
answer. When every point has more than K rows, every rank is 0 and no
search runs.

Exact matches. `nn_cross` splits the references stacked over the queries
once. A point holds a reference row exactly when its first row is one. A
query in such a point measures 0 to that row, and only copies can measure
0 when every non-zero |coordinate| of the stack is at least 1e-145
(features are finite: PointSet refuses anything else, and the feature maps
refuse overflow). Such a coordinate lies at or above 2^-482, so it is a
multiple of 2^-534, its unit in the last place; two distinct values then
differ by at least 2^-534, and by monotone rounding so does their computed
difference. Its square is at least 2^-1068, a non-zero subnormal, and a sum
of non-negative squares is at least each of them. So such a query gets 0
without a search, and only the points that hold no reference row are
searched. Below the bound, distinct rows may measure 0, and every point
that holds a query is searched; without copies, that is every query row.

Reuse. `_search(u, u, k, within=True)` is a pure function of the bits of u
and of k: blocks, screens and BLAS threads change no bit. `_within` keeps
its last search of a set's distinct points, with the points each rank found
if the set had copies: the module's only state. When the next set has the
same distinct points, compared as integer bit patterns so that zeros of
either sign never alias, at the same K', it reads that search and applies
the multiplicity rule with the new set's sizes; a search held without its
points serves only a set without copies. No split outlives a call unless the
caller holds it: `split_of` grows the record of a set's leading rows
(`_grow`) when every other row equals a held point, and splits the set in
full otherwise, and whenever the record has as many rows as the set or
another width, since it cannot then be the split of the set's leading rows.
The caller vouches that those rows are the ones the record split; their
features then have its bits, since a row's features are a function of the
row. Each appended row is keyed by the bits of its coordinates plus 0.0:
equal finite values have equal bits once zeros are alike, so a row's key is
that of its point. The key only proposes a point: the row joins it only if
their coordinates compare equal, the rule of `_split`, and a row that
matches no held point (a new point, or a key collision) sends the set to a
full split. Appended rows come after every held row, so every point keeps
its first row, its label and its key, and only the sizes grow: the grown
record holds a fresh split's points, in the held order. `run_loop` holds an
accumulate pool's split: the pool is the training set stacked over the
generation, the stack `nn_cross` splits, and the next set `kth_nn_within`
splits, so a memorizing loop splits each pool once, and in full only the
first.
"""

from __future__ import annotations

import itertools

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
# Non-zero coordinates at least this large keep every distinct pair above
# squared distance 0 (module docstring, "Exact matches").
_MATCH_FLOOR = 1e-145


# `_within`'s last search of a set's distinct points, as (K', the points, the
# squared distances at ranks 1..K', and the points found there for a set with
# copies, else None), all read-only; None before the first.
_memo: tuple | None = None


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


def _select(d2: np.ndarray, k: int, columns: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The k smallest values of each row in ascending order, and with
    `columns` a column holding each, a different column for each rank, else
    None; both of shape (k, rows)."""
    if not columns:
        vals = d2.min(axis=1)[None] if k == 1 else np.sort(np.partition(d2, k - 1, axis=1)[:, :k], axis=1).T
        return vals, None
    rows = np.arange(d2.shape[0])
    if k == 1:
        cols = d2.argmin(axis=1)[None]
    else:
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        by_value = np.argsort(d2[rows[:, None], part], axis=1)
        cols = part[rows, by_value.T]
    return d2[rows, cols], cols


def _screen(q, r, right, k: int, own, columns: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """`_select` of each query row over all of r: its k smallest squared
    distances and, with `columns`, a column of r holding each. `own`, each
    row's own column within one set, is left out. The screen is set by rank
    k, and keeps every column that a smaller rank could need.

    Kept columns are gathered per row, padded with -1. A
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
    vals, cols = _select(measure(cand), k, columns)
    # cand has a row per query, or one row that serves them all; rows[:1] is [0] and broadcasts.
    return vals, None if cols is None else cand[rows[: cand.shape[0]], cols]


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


def _search(q: np.ndarray, r: np.ndarray, k: int, within: bool, columns: bool = False) -> tuple:
    """The k nearest reference rows of every query, as squared distances in
    ascending order and, with `columns`, a reference row at each, a different
    one for each rank, else None; both of shape (k, len(q)).

    With `within`, q is r and each query skips its own row.
    """
    n_q, dim = q.shape
    out_v = np.empty((k, n_q), dtype=np.float64)
    out_i = np.empty((k, n_q), dtype=np.int64) if columns else None
    accepted = np.zeros(n_q, dtype=bool)
    order, groups, bound = _grid(q, r, within)
    for rows, runs, n_cand in groups:
        if n_cand < k + within:
            continue
        cand = np.sort(np.concatenate([order[run] for run in runs]))
        r_cand = r[cand]
        for blk in _blocks(rows, cand.size * dim):
            d2 = sq_dists(q[blk], r_cand)
            if within:
                d2[np.arange(blk.size), np.searchsorted(cand, blk)] = np.inf
            vals, cols = _select(d2, k, columns)
            out_v[:, blk] = vals
            if columns:
                out_i[:, blk] = cand[cols]
            accepted[blk] = vals[-1] < bound[blk]
    # The rest search every point, which is exact even at an inf distance.
    rest = np.flatnonzero(~accepted)
    if rest.size:
        right = _lift(r)[1]
        for blk in _blocks(rest, r.shape[0] * (dim + 8)):
            out_v[:, blk], cols = _screen(q[blk], r, right, k, blk if within else None, columns)
            if columns:
                out_i[:, blk] = cols
    return out_v, out_i


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and bits, compared as integers so that zeros of either sign differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _split(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """x's distinct points, as (each point's first row, its size, and each
    row's point), the points in the order of their coordinates.

    Each column's dense rank is folded into one integer key per row. The
    key is ranked again, to below n, whenever the bound on it passes
    int64 max // n, so the next fold fits in an int64.
    """
    n = x.shape[0]
    key, bound = np.zeros(n, dtype=np.int64), 1
    for column in x.T:
        values, rank = np.unique(column, return_inverse=True)
        key = key * values.size + rank
        bound *= values.size
        if bound > np.iinfo(np.int64).max // n:
            values, key = np.unique(key, return_inverse=True)
            bound = values.size
    _, heads, point, sizes = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    return heads, sizes, point


def _row_keys(x: np.ndarray) -> np.ndarray:
    """One uint64 per row, mixed from the bits of x + 0.0: rows whose
    coordinates compare equal share a key, and rows that share a key may
    still differ."""
    bits = (x + 0.0).view(np.uint64)
    key = np.zeros(x.shape[0], dtype=np.uint64)
    for column in bits.T:
        key ^= column
        key *= np.uint64(0x9E3779B97F4A7C15)
        key ^= key >> np.uint64(29)
    return key


def _grow(record: tuple, x: np.ndarray) -> tuple | None:
    """x's split record grown from `record`, the split of x's leading rows
    (fewer than x's), with x as its matrix and the held points' keys
    (computed if absent), when every appended row equals a held point; else
    None. A grown record has the points, first rows and sizes of a fresh
    split of x, in the held order."""
    _, heads, sizes, point, keys = record
    m = point.size
    if keys is None:
        # One appended row against every held point, before the points are
        # keyed: an accumulate generation that brings new points stops here.
        if not (x[heads] == x[m]).all(axis=1).any():
            return None
        head_keys = _row_keys(x[heads])
        by_key = np.argsort(head_keys)
        keys = (head_keys[by_key], by_key)
    sorted_keys, by_key = keys
    # A key only proposes a point; equal coordinates decide.
    near = by_key[np.minimum(np.searchsorted(sorted_keys, _row_keys(x[m:])), by_key.size - 1)]
    if not (x[heads[near]] == x[m:]).all():
        return None
    return x, heads, sizes + np.bincount(near, minlength=sizes.size), np.concatenate([point, near]), keys


def _distinct(x: np.ndarray) -> tuple:
    """x's split record: (x, each point's first row, its number of rows, each
    row's point, None for the held points' keys), in the order of their
    coordinates, or, when no row repeats, each row its own point in row order.

    Rows are one point when their coordinates compare equal, so rows that
    differ only in the sign of a zero are one point: every distance to
    them has the same bits.
    """
    col = np.sort(x[:, 0])
    # A row can repeat only where a first coordinate does.
    if (col[1:] == col[:-1]).any():
        heads, sizes, point = _split(x)
        if heads.size < x.shape[0]:
            return x, heads, sizes, point, None
    rows = np.arange(x.shape[0])
    return x, rows, np.ones_like(rows), rows, None


def split_of(ps: PointSet, metric: DistanceMetric = DistanceMetric(), held: tuple | None = None) -> tuple:
    """ps's split record in the metric's feature space, the `split` that
    `kth_nn_within` and `nn_cross` read: grown from `held` when that is the
    record of ps's leading rows and every other row of ps equals a held point,
    else split in full. The caller vouches that `held` splits ps's leading
    rows; a record with as many rows as ps, or of another width, cannot, and
    is not grown."""
    x = np.ascontiguousarray(metric.feature_map.apply(ps.data))
    grow = held and held[0].shape[0] < x.shape[0] and held[0].shape[1] == x.shape[1]
    return (grow and _grow(held, x)) or _distinct(x)


def _within(record: tuple, k: int) -> np.ndarray:
    """Ranks 1..k of `_search(x, x, k, within=True)` for each distinct point's
    rows of a split record's matrix x, by the multiplicity rule, shape (k, points)."""
    global _memo
    x, heads, sizes = record[:3]
    # A row whose point has more than k rows has k copies at 0, and the
    # caller's set has more than k rows, so a lone point is answered here.
    if sizes.min() > k:
        return np.zeros((k, heads.size))
    u = x[heads]
    copies = heads.size < x.shape[0]
    # Each point's nearest k other points, or all of them if fewer.
    near = min(k, u.shape[0] - 1)
    if _memo and _memo[0] == near and _same_bits(_memo[1], u) and (_memo[3] is not None or not copies):
        v, cols = _memo[2:]
    else:
        v, cols = _search(u, u, near, within=True, columns=copies)
        for a in (u, v, cols):
            if a is not None:
                a.flags.writeable = False
        _memo = (near, u, v, cols)
    # Without copies every size is 1, so rank i is v_i.
    if not copies:
        return v
    # Rank i of a row of point g: 0 among its copies, else v at the first
    # rank where reach = C + sizes[g] - 1 reaches i, that is the count of g's
    # reach values below i, read from their histogram capped at k.
    reach = np.minimum(np.cumsum(sizes[cols], axis=0) + (sizes - 1), k) + np.arange(u.shape[0]) * (k + 1)
    j = np.bincount(reach.ravel(), minlength=u.shape[0] * (k + 1)).reshape(-1, k + 1)
    # Freed, and j summed in place, so the rule holds at most two (k, points) arrays.
    del reach
    np.minimum(np.cumsum(j, axis=1, out=j), near - 1, out=j)
    found = np.take_along_axis(v, j[:, :k].T, axis=0)
    found[np.arange(1, k + 1)[:, None] < sizes] = 0.0
    return found


def kth_nn_within(
    ps: PointSet, k: int | tuple[int, ...], metric: DistanceMetric = DistanceMetric(), split: tuple | None = None
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Distance from every point to its k-th nearest neighbor within the same
    set, self excluded.

    Distances are reported in the metric's units (euclidean or squared
    euclidean) in feature space. k may also be a sorted tuple of ranks, such
    as (1, gamma): one search then gives an array per rank, in the order of
    k, each the same bits as its own single-rank call. `split`, if given, is
    `split_of` of ps, read in place of its features and split, with the same answers.
    """
    ranks = k if isinstance(k, tuple) else (k,)
    if not (ranks and all(is_number(j, int) and j >= 1 for j in ranks) and list(ranks) == sorted(ranks)):
        raise ConfigError(f"k must be a positive integer or a sorted tuple of them, got {k!r}")
    top = ranks[-1]
    if ps.size <= top:
        raise InsufficientPointsError(f"need at least {top + 1} points for the {top}-th neighbor, got {ps.size}")
    split = split or split_of(ps, metric)
    d2 = _within(split, top)
    found = {j: metric.from_squared(d2[j - 1][split[3]]) for j in set(ranks)}
    return tuple(found[j] for j in ranks) if isinstance(k, tuple) else found[k]


def nn_cross(
    queries: PointSet, refs: PointSet, metric: DistanceMetric = DistanceMetric(), split: tuple | None = None
) -> np.ndarray:
    """Distance from every query to its nearest reference point; a query may
    match itself.

    Identical rows in queries and refs produce a distance of exactly zero,
    and a query that copies a reference row is answered without a search.
    `split`, if given, is `split_of` of refs stacked over queries, read in
    place of their features and their split, with the same answers.
    """
    if refs.size == 0:
        raise EmptyDatasetError("reference set is empty")
    if queries.size == 0:
        raise EmptyDatasetError("query set is empty")
    if queries.dim != refs.dim:
        raise DimensionError(f"query dimension {queries.dim} != reference dimension {refs.dim}")
    if split is None:
        split = _distinct(np.vstack([metric.feature_map.apply(refs.data), metric.feature_map.apply(queries.data)]))
    x, heads, _, point, _ = split
    point = point[refs.size :]
    # A point whose first row is a reference row holds one: a query in it
    # measures 0 to it, and above the floor nothing else measures 0.
    shared = heads < refs.size
    v = np.zeros(heads.size)
    ask = np.zeros(heads.size, dtype=bool)
    ask[point] = True
    if not ((x != 0.0) & (np.abs(x) < _MATCH_FLOOR)).any():
        ask &= ~shared
    ask = np.flatnonzero(ask)
    if ask.size:
        v[ask] = _search(x[heads[ask]], x[heads[shared]], 1, within=False)[0][0]
    return metric.from_squared(v[point])
