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

from .errors import ConfigError, InsufficientPointsError
from .neighbors import sq_dists
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


def select_greedy(pool: PointSet, n: int, policy: SelectionPolicy) -> SelectionResult:
    """Farthest-point selection; ties break toward the lower index.

    Squared distances order the argmax identically to true distances, so
    the scan stays in squared form throughout.
    """
    if policy.kind != "greedy":
        raise ConfigError(f"select_greedy called with policy kind {policy.kind!r}")
    _check_request(pool, n)
    x = np.ascontiguousarray(policy.metric.feature_map.apply(pool.data))
    start = _initial_index(pool.size, policy)
    chosen = [start]
    # Selected slots park at -1 so duplicates (distance 0) stay selectable.
    min_d2 = sq_dists(x, x[start : start + 1]).ravel()
    min_d2[start] = -1.0
    for _ in range(1, n):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        np.minimum(min_d2, sq_dists(x, x[nxt : nxt + 1]).ravel(), out=min_d2)
        min_d2[nxt] = -1.0
    return _result(pool, chosen)


def select_threshold_decay(pool: PointSet, n: int, policy: SelectionPolicy) -> SelectionResult:
    """Pass-and-decay filtering; membership grows within a pass.

    A candidate admitted mid-pass immediately constrains later candidates.
    If a full pass admits nothing the threshold decays by alpha; a run of
    such barren passes is counted without being scanned. Candidates
    coincident with a member (distance exactly 0) can never clear a
    threshold, so once a barren pass shows only such candidates remain, the
    tail is filled in scan order.
    """
    if policy.kind != "threshold_decay":
        raise ConfigError(f"select_threshold_decay called with policy kind {policy.kind!r}")
    _check_request(pool, n)
    x = np.ascontiguousarray(policy.metric.feature_map.apply(pool.data))
    start = _initial_index(pool.size, policy)
    tau = float(policy.tau0)
    alpha = float(policy.alpha)

    chosen = [start]
    selected = np.zeros(pool.size, dtype=bool)
    selected[start] = True
    min_d = policy.metric.from_squared(sq_dists(x, x[start : start + 1]).ravel())
    min_d[start] = -np.inf
    passes = 0

    def admit(i: int) -> None:
        chosen.append(i)
        selected[i] = True
        np.minimum(min_d, policy.metric.from_squared(sq_dists(x, x[i : i + 1]).ravel()), out=min_d)
        min_d[i] = -np.inf

    while len(chosen) < n:
        passes += 1
        # Members sit at -inf and min_d only falls within a pass, so this
        # pass admits, in index order, those candidates above tau at its
        # start that are still above tau when the scan reaches them.
        hits = np.flatnonzero(min_d > tau)
        if hits.size:
            while hits.size and len(chosen) < n:
                admit(int(hits[0]))
                hits = hits[1:][min_d[hits[1:]] > tau]
            continue
        remaining = np.flatnonzero(~selected)
        top = float(min_d[remaining].max())
        if top <= 0.0:
            # Only exact duplicates of members remain.
            for i in remaining:
                admit(int(i))
                if len(chosen) == n:
                    break
            break
        if alpha == 1.0:
            raise ConfigError("threshold decay stalled: alpha=1 can never admit the remaining candidates")
        tau *= alpha
        # Every pass until tau falls below top would be barren too.
        while top <= tau:
            passes += 1
            tau *= alpha
    return _result(pool, chosen, final_threshold=tau, passes=passes)


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
