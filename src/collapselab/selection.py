"""Subset selection over candidate pools.

Three policies:

  greedy          -- farthest-point traversal: start from one point, then
                     repeatedly add the candidate farthest from everything
                     selected so far (max-min dispersion).
  threshold_decay -- scan the pool in index order and admit any candidate
                     farther than tau from every current member; when a
                     full pass admits nothing, decay tau by alpha and scan
                     again, until n points are selected.
  random          -- uniform sample without replacement (Fisher-Yates).

`run_policy` runs each of them. All are deterministic given their seed.
The initial point of the distance-based policies is a seeded uniform pick
unless initial_index pins it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientPointsError, check_fields, is_number
from .neighbors import _lift, sq_dists
from .tensorset import DistanceMetric, PointSet, source_proportions

_POLICY_KINDS = ("greedy", "threshold_decay", "random")


@dataclass(frozen=True, eq=False)
class SelectionPolicy:
    kind: str
    seed: int = 0
    metric: DistanceMetric = DistanceMetric()
    tau0: float | None = None
    alpha: float | None = None
    initial_index: int | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in _POLICY_KINDS:
            raise ConfigError(f"unknown selection policy {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.kind == "threshold_decay":
            if self.tau0 is None or self.alpha is None:
                raise ConfigError("threshold_decay requires explicit tau0 and alpha (no defaults)")
            if not 0.0 <= self.tau0 < math.inf:
                raise ConfigError(f"tau0 must be non-negative and finite, got {self.tau0}")
            if self.tau0 == 0.0:
                if self.alpha != 0.0:
                    raise ConfigError("tau0=0 is only permitted in the degenerate mode alpha=0")
            elif not (0.0 < self.alpha <= 1.0):
                raise ConfigError(f"alpha must be in (0, 1] when tau0 > 0, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Ordered selected indices plus the origin mix of the chosen subset."""

    indices: np.ndarray
    source_proportions: dict[str, float]
    final_threshold: float | None = None
    passes: int | None = None


def _check_request(pool: PointSet, n: int) -> None:
    if not is_number(n, int) or n < 1:
        raise ConfigError(f"selection size must be a positive integer, got {n!r}")
    if n > pool.size:
        raise InsufficientPointsError(f"cannot select {n} points from a pool of {pool.size}")


def _initial_index(pool_size: int, policy: SelectionPolicy) -> int:
    if policy.initial_index is not None:
        if not (0 <= policy.initial_index < pool_size):
            raise ConfigError(f"initial_index {policy.initial_index} outside pool of size {pool_size}")
        return policy.initial_index
    rng = np.random.default_rng(policy.seed)
    return int(rng.integers(pool_size))


def _result(pool: PointSet, chosen, **extra) -> SelectionResult:
    idx = np.asarray(chosen, dtype=np.int64)
    props = source_proportions(pool.sources[idx])
    return SelectionResult(indices=idx, source_proportions=props, **extra)


# Picks decided from one block of rows before the pool's minima are updated.
_BLOCK = 32
# Elements of the bound block per row chunk in `_MinDistances.add`. A pool
# whose screen keeps every pair (offset far from the origin, or collapsed)
# then measures at most this many pairs at once.
_BOUND_BUDGET = 1 << 16


class _MinDistances:
    """The members chosen so far, and in `d2` the squared distance from every
    pool row to its nearest member; a member's own row holds its distance to
    its nearest other member (inf while it is alone), and `member` marks it.

    Pick decisions read members as parked at -1, so duplicates of a member
    (distance 0) stay selectable. Adding a block of members bounds every
    (member, row) pair from below with one GEMM per chunk of rows
    (`neighbors._lift`) and measures with `sq_dists` only the pairs whose
    bound is not above the row's minimum: `np.minimum` would leave every
    other row as it is. A member's row goes through the same update, so
    later members lower it, and so do the other members of its own block;
    its pair with itself is left out. No members-by-members matrix is
    built, so threshold decay's tail fill, which may add up to n members at
    once, stays within the budget.

    Exactness. Every value is the minimum of literal-kernel pair values. A
    pair measures the same bits in any block (the `neighbors` invariant),
    and (a - b)**2 is (b - a)**2, so a pair has one value whichever of its
    rows is the query. A pair the bound drops measures more than the row's
    minimum at that time, and minima only fall, so it is never the
    minimum; a minimum is exact in any order. So every value has the bits
    of adding the members one at a time with full updates, and a member's
    are the bits of `kth_nn_within` at rank 1 over the members' rows: a copy
    measures 0 in both, and a row whose every pair overflows gets inf in
    both.
    """

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        left, self.right = _lift(x)
        self.left = np.asfortranarray(left)  # column-major, the GEMM runs faster
        self.d2 = np.full(x.shape[0], np.inf)
        self.member = np.zeros(x.shape[0], dtype=bool)
        self.chosen: list[int] = []

    def add(self, members: list[int]) -> None:
        self.chosen.extend(members)
        m = np.asarray(members, dtype=np.int64)
        right, xm = self.right[m], self.x[m]
        step = max(1, _BOUND_BUDGET // m.size)
        for s in range(0, self.d2.size, step):
            d2 = self.d2[s : s + step]
            with np.errstate(over="ignore", invalid="ignore"):
                # "Not above" keeps a pair whose bound is NaN.
                mem, rows = np.divmod(np.flatnonzero(~(right @ self.left[s : s + step].T > d2)), d2.size)
            pairs = sq_dists(self.x[s + rows], xm[mem][:, None, :])[:, 0]
            # A member's pair with itself is always kept; it is left out here.
            pairs[m[mem] - s == rows] = np.inf
            np.minimum.at(d2, rows, pairs)
        self.member[m] = True


def _greedy(nearest: _MinDistances, n: int) -> None:
    """Farthest point first, ties toward the lower index, picked in blocks.

    The cut is the _BLOCK-th largest minimum of the rows not yet chosen.
    The candidates are the rows above it and, in index order, enough of
    the rows at it to make _BLOCK; the first row at the cut left out is
    the first tie. Each pick updates the candidates' minima from their
    literal-kernel matrix, which holds the bits `add` would measure. A
    pick only lowers minima, so every other row stays at or below the cut,
    and rows left at the cut all come from the first tie on. So while the
    best updated candidate is above the cut, or at it with a lower index
    than the first tie, it is the pool's maximum, and index order breaks
    its ties as the pool would. The first pick always qualifies. Squared
    distances order the argmax as true distances do.
    """
    while len(nearest.chosen) < n:
        d2 = np.where(nearest.member, -1.0, nearest.d2)
        k = min(_BLOCK, d2.size - len(nearest.chosen))
        cut = np.partition(d2, -k)[-k]
        above, ties = np.flatnonzero(d2 > cut), np.flatnonzero(d2 == cut)
        take = k - above.size
        cand = np.sort(np.concatenate([above, ties[:take]]))
        first_tie = ties[take] if take < ties.size else d2.size
        x = nearest.x[cand]
        pair = sq_dists(x, x)
        vals = d2[cand]
        picks: list[int] = []
        while len(nearest.chosen) + len(picks) < n:
            j = int(np.argmax(vals))
            if vals[j] < cut or (vals[j] == cut and cand[j] > first_tie):
                break
            picks.append(int(cand[j]))
            np.minimum(vals, pair[:, j], out=vals)
            vals[j] = -1.0
        nearest.add(picks)


def _threshold_decay(nearest: _MinDistances, n: int, policy: SelectionPolicy) -> tuple[float, int]:
    """Pass-and-decay filtering; membership grows within a pass. Returns
    the final threshold and the number of passes.

    A candidate admitted mid-pass immediately constrains later candidates.
    If a full pass admits nothing the threshold decays by alpha; a run of
    such barren passes is counted without being scanned. Candidates
    coincident with a member (distance exactly 0) can never clear a
    threshold, so once a barren pass shows only such candidates remain, the
    tail is filled in scan order. Distances are from_squared of the squared
    minima, the minima of the distances: sqrt is monotone and correctly
    rounded.

    A pass takes its hits _BLOCK at a time. Every hit of a block is farther
    than tau from the members at the block's start, so it is admitted, in
    index order, when it is farther than tau from each hit admitted before
    it in the block; from_squared is monotone, so comparing the block's own
    literal-kernel distances decides this exactly. Python-int bitmasks hold
    that comparison, one per column. One `add` then updates the pool, and
    the later hits are filtered again.

    The pass after a pass with hits is barren and is counted unscanned: a
    hit left out of a block is within tau of a pick admitted before it, and
    `add` lowers its minimum to at most that pair's bits (a pair measures
    the same bits in any block); a hit filtered out after a block, and any
    row that was not a hit, is already at or below tau, and minima only fall.
    """
    dist = policy.metric.from_squared
    tau = float(policy.tau0)
    alpha = float(policy.alpha)
    passes = 0
    while len(nearest.chosen) < n:
        passes += 1
        # The minima only fall within a pass, so this pass admits, in index
        # order, those candidates above tau at its start that are still
        # above tau when the scan reaches them.
        remaining = np.flatnonzero(~nearest.member)
        hits = remaining[dist(nearest.d2[remaining]) > tau]
        if hits.size:
            while hits.size and len(nearest.chosen) < n:
                block, hits = hits[:_BLOCK], hits[_BLOCK:]
                x = nearest.x[block]
                # Bit i of column j's mask: block rows i and j are farther apart than tau.
                far = np.packbits(dist(sq_dists(x, x)) > tau, axis=0, bitorder="little").T.tobytes()
                width = -(-block.size // 8)
                free = (1 << block.size) - 1
                picks: list[int] = []
                for j, row in enumerate(block.tolist()):
                    if free >> j & 1:
                        picks.append(row)
                        if len(nearest.chosen) + len(picks) == n:
                            break
                        free &= int.from_bytes(far[j * width : (j + 1) * width], "little")
                nearest.add(picks)
                hits = hits[dist(nearest.d2[hits]) > tau]
            if len(nearest.chosen) == n:
                break
            passes += 1
            remaining = np.flatnonzero(~nearest.member)
        top = float(dist(nearest.d2[remaining]).max())
        if top <= 0.0:
            # Only exact duplicates of members remain.
            nearest.add(remaining[: n - len(nearest.chosen)].tolist())
            break
        if alpha == 1.0:
            raise ConfigError("threshold decay stalled: alpha=1 can never admit the remaining candidates")
        tau *= alpha
        # Every pass until tau falls below top would be barren too.
        while top <= tau:
            passes += 1
            tau *= alpha
    return tau, passes


def run_policy(pool: PointSet, n: int, policy: SelectionPolicy, minima: list | None = None) -> SelectionResult:
    """The n pool rows that the policy selects, in the order it picks them.

    A distance policy appends to `minima`, if given, each pick's squared
    feature-space distance to its nearest other pick, in pick order: the
    bits of kth_nn_within(pool.rows(indices), 1, sqeuclidean), since a
    row's features are a function of the row (`_MinDistances`)."""
    _check_request(pool, n)
    if policy.kind == "random":
        # Uniform sample without replacement, deterministic in the seed.
        return _result(pool, np.random.default_rng(policy.seed).permutation(pool.size)[:n])
    nearest = _MinDistances(np.ascontiguousarray(policy.metric.feature_map.apply(pool.data)))
    nearest.add([_initial_index(pool.size, policy)])
    extra = {}
    if policy.kind == "greedy":
        _greedy(nearest, n)
    else:
        extra["final_threshold"], extra["passes"] = _threshold_decay(nearest, n, policy)
    if minima is not None:
        minima.append(nearest.d2[nearest.chosen])
    return _result(pool, nearest.chosen, **extra)
