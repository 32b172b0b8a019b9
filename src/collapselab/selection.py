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

All policies are deterministic given their seed. The initial point of the
distance-based policies is a seeded uniform pick unless initial_index
pins it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientPointsError, check_numbers
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
        if self.kind not in _POLICY_KINDS:
            raise ConfigError(f"unknown selection policy {self.kind!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.initial_index is not None and type(self.initial_index) is not int:
            raise ConfigError(f"initial_index must be an integer, got {self.initial_index!r}")
        check_numbers(self, "float", "tau0", "alpha", optional=True)
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
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
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


def _result(pool: PointSet, chosen: list[int], **extra) -> SelectionResult:
    idx = np.asarray(chosen, dtype=np.int64)
    props = source_proportions(pool.sources[idx])
    return SelectionResult(indices=idx, source_proportions=props, **extra)


class _MinDistances:
    """The members chosen so far, and the squared distance from every pool
    row to its nearest member.

    Members park at -1, so duplicates of a member (distance 0) stay
    selectable. Adding a member bounds every row's distance to it from
    below with one GEMV and measures with `sq_dists` only the rows whose
    bound is not above their minimum: `np.minimum` would leave every other
    row as it is, so the values have the bits of a full update.
    """

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        left, self.right = _lift(x)
        self.left = np.asfortranarray(left)  # column-major, the GEMV runs about twice as fast
        self.d2 = np.full(x.shape[0], np.inf)
        self.chosen: list[int] = []

    def add(self, i: int) -> None:
        self.chosen.append(i)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.flatnonzero(~(self.left @ self.right[i] > self.d2))  # a NaN bound measures
        self.d2[rows] = np.minimum(self.d2[rows], sq_dists(self.x[rows], self.x[i : i + 1])[:, 0])
        self.d2[i] = -1.0


def select_greedy(pool: PointSet, n: int, policy: SelectionPolicy) -> SelectionResult:
    """Farthest-point selection; ties break toward the lower index.

    Squared distances order the argmax identically to true distances, so
    the scan stays in squared form throughout.
    """
    if policy.kind != "greedy":
        raise ConfigError(f"select_greedy called with policy kind {policy.kind!r}")
    _check_request(pool, n)
    nearest = _MinDistances(np.ascontiguousarray(policy.metric.feature_map.apply(pool.data)))
    nearest.add(_initial_index(pool.size, policy))
    for _ in range(1, n):
        nearest.add(int(np.argmax(nearest.d2)))
    return _result(pool, nearest.chosen)


def select_threshold_decay(pool: PointSet, n: int, policy: SelectionPolicy) -> SelectionResult:
    """Pass-and-decay filtering; membership grows within a pass.

    A candidate admitted mid-pass immediately constrains later candidates.
    If a full pass admits nothing the threshold decays by alpha; a run of
    such barren passes is counted without being scanned. Candidates
    coincident with a member (distance exactly 0) can never clear a
    threshold, so once a barren pass shows only such candidates remain, the
    tail is filled in scan order. Distances are from_squared of the squared
    minima, the minima of the distances: sqrt is monotone and correctly
    rounded.
    """
    if policy.kind != "threshold_decay":
        raise ConfigError(f"select_threshold_decay called with policy kind {policy.kind!r}")
    _check_request(pool, n)
    nearest = _MinDistances(np.ascontiguousarray(policy.metric.feature_map.apply(pool.data)))
    nearest.add(_initial_index(pool.size, policy))
    dist = policy.metric.from_squared
    tau = float(policy.tau0)
    alpha = float(policy.alpha)
    passes = 0
    while len(nearest.chosen) < n:
        passes += 1
        # Members (parked below 0) never reach from_squared, and the minima
        # only fall within a pass, so this pass admits, in index order,
        # those candidates above tau at its start that are still above tau
        # when the scan reaches them.
        remaining = np.flatnonzero(nearest.d2 >= 0.0)
        hits = remaining[dist(nearest.d2[remaining]) > tau]
        if hits.size:
            while hits.size and len(nearest.chosen) < n:
                nearest.add(int(hits[0]))
                hits = hits[1:][dist(nearest.d2[hits[1:]]) > tau]
            continue
        top = float(dist(nearest.d2[remaining]).max())
        if top <= 0.0:
            # Only exact duplicates of members remain.
            for i in remaining[: n - len(nearest.chosen)]:
                nearest.add(int(i))
            break
        if alpha == 1.0:
            raise ConfigError("threshold decay stalled: alpha=1 can never admit the remaining candidates")
        tau *= alpha
        # Every pass until tau falls below top would be barren too.
        while top <= tau:
            passes += 1
            tau *= alpha
    return _result(pool, nearest.chosen, final_threshold=tau, passes=passes)


def select_random(pool: PointSet, n: int, seed: int) -> SelectionResult:
    """Uniform sample of n indices without replacement, deterministic in seed."""
    _check_request(pool, n)
    rng = np.random.default_rng(seed)
    idx = rng.permutation(pool.size)[:n]
    return _result(pool, [int(i) for i in idx])


def run_policy(pool: PointSet, n: int, policy: SelectionPolicy) -> SelectionResult:
    if policy.kind == "greedy":
        return select_greedy(pool, n, policy)
    if policy.kind == "threshold_decay":
        return select_threshold_decay(pool, n, policy)
    return select_random(pool, n, policy.seed)
