import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapselab import (
    ConfigError,
    EUCLIDEAN,
    DistanceMetric,
    FeatureMap,
    InsufficientPointsError,
    PointSet,
    SelectionPolicy,
    kl_entropy,
    kth_nn_within,
    run_policy,
)
from collapselab.neighbors import sq_dists
from collapselab import neighbors, selection
from collapselab.selection import _BLOCK, _check_request, _initial_index
from collapselab.tensorset import source_label


def min_pairwise(data, indices):
    best = math.inf
    for a, b in itertools.combinations(indices, 2):
        best = min(best, float(np.sqrt(np.sum((data[a] - data[b]) ** 2))))
    return best


LINE = PointSet([[0.0], [1.0], [9.0], [10.0]])


class TestGreedy:
    def test_hand_trace_forced_start(self):
        policy = SelectionPolicy(kind="greedy", initial_index=0)
        res2 = run_policy(LINE, 2, policy)
        assert list(res2.indices) == [0, 3]
        res3 = run_policy(LINE, 3, policy)
        assert list(res3.indices) == [0, 3, 1]

    def test_tie_breaks_to_lowest_index(self):
        # symmetric pool: both endpoints are farthest from the center
        ps = PointSet([[0.0], [-5.0], [5.0]])
        res = run_policy(ps, 2, SelectionPolicy(kind="greedy", initial_index=0))
        assert list(res.indices) == [0, 1]

    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(1)
        ps = PointSet(rng.standard_normal((30, 2)))
        res = run_policy(ps, 30, SelectionPolicy(kind="greedy", seed=4))
        assert sorted(res.indices) == list(range(30))

    def test_duplicate_heavy_pool_fills_up(self):
        ps = PointSet([[0.0], [0.0], [0.0], [1.0]])
        res = run_policy(ps, 4, SelectionPolicy(kind="greedy", initial_index=0))
        assert sorted(res.indices) == [0, 1, 2, 3]
        assert list(res.indices[:2]) == [0, 3]

    def test_seeded_start_deterministic(self):
        rng = np.random.default_rng(2)
        ps = PointSet(rng.standard_normal((50, 3)))
        policy = SelectionPolicy(kind="greedy", seed=77)
        a = run_policy(ps, 10, policy)
        b = run_policy(ps, 10, policy)
        assert np.array_equal(a.indices, b.indices)

    def test_two_approximation_against_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            data = rng.standard_normal((10, 2)) * rng.uniform(0.2, 10.0)
            ps = PointSet(data)
            opt = max(
                min_pairwise(data, combo) for combo in itertools.combinations(range(10), 4)
            )
            res = run_policy(ps, 4, SelectionPolicy(kind="greedy", seed=trial))
            assert min_pairwise(data, res.indices) >= 0.5 * opt - 1e-12

    def test_entropy_dominates_random_subsets(self):
        rng = np.random.default_rng(4)
        greedy_H, random_H = [], []
        for seed in range(5):
            centers = rng.uniform(-6, 6, size=(4, 2))
            pool = PointSet(centers[rng.integers(0, 4, 256)] + rng.standard_normal((256, 2)))
            g = run_policy(pool, 64, SelectionPolicy(kind="greedy", seed=seed))
            r = run_policy(pool, 64, SelectionPolicy(kind="random", seed=seed))
            greedy_H.append(kl_entropy(pool.rows(g.indices)).estimate)
            random_H.append(kl_entropy(pool.rows(r.indices)).estimate)
        assert np.mean(greedy_H) > np.mean(random_H)

    @pytest.mark.parametrize(
        "field, value",
        [("initial_index", True), ("initial_index", 1.0), ("initial_index", "0"),
         ("seed", -1), ("seed", True), ("seed", 1.5), ("seed", None)],
    )
    def test_integer_settings_validated(self, field, value):
        # initial_index=True used to park every row (min_d2[True] = -1) and
        # pick row 0 again and again.
        for kind in ("greedy", "random"):
            with pytest.raises(ConfigError):
                SelectionPolicy(kind=kind, **{field: value})

    def test_request_validation(self):
        with pytest.raises(InsufficientPointsError):
            run_policy(LINE, 5, SelectionPolicy(kind="greedy"))
        with pytest.raises(ConfigError):
            run_policy(LINE, 0, SelectionPolicy(kind="greedy"))
        with pytest.raises(ConfigError):
            run_policy(LINE, 2, SelectionPolicy(kind="greedy", initial_index=4))


class TestThresholdDecay:
    def test_hand_trace(self):
        policy = SelectionPolicy(
            kind="threshold_decay", tau0=5.0, alpha=0.5, initial_index=0
        )
        res = run_policy(LINE, 3, policy)
        assert list(res.indices) == [0, 2, 1]
        assert res.final_threshold == 0.625
        assert res.passes == 5

    def test_vanilla_reduction_scan_order_prefix(self):
        policy = SelectionPolicy(kind="threshold_decay", tau0=0.0, alpha=0.0, initial_index=0)
        res = run_policy(LINE, 3, policy)
        assert list(res.indices) == [0, 1, 2]

    def test_single_point_needs_no_pass(self):
        policy = SelectionPolicy(kind="threshold_decay", tau0=5.0, alpha=0.5, initial_index=0)
        res = run_policy(LINE, 1, policy)
        assert list(res.indices) == [0]
        assert res.passes == 0
        assert res.final_threshold == 5.0

    def test_duplicate_stagnation_fills_in_scan_order(self):
        ps = PointSet([[0.0], [0.0], [0.0], [5.0]])
        policy = SelectionPolicy(kind="threshold_decay", tau0=1.0, alpha=0.5, initial_index=0)
        res = run_policy(ps, 3, policy)
        assert list(res.indices) == [0, 3, 1]

    def test_no_decay_with_unreachable_threshold_rejected(self):
        ps = PointSet([[0.0], [1.0]])
        policy = SelectionPolicy(kind="threshold_decay", tau0=10.0, alpha=1.0, initial_index=0)
        with pytest.raises(ConfigError):
            run_policy(ps, 2, policy)

    def test_slow_decay_behaves_like_spacing_filter(self):
        # with tau0 above the diameter and alpha near 1, admitted points
        # stay near-maximally spread, matching greedy packing quality
        rng = np.random.default_rng(5)
        for trial in range(20):
            data = rng.standard_normal((120, 2)) * rng.uniform(0.5, 5.0)
            ps = PointSet(data)
            diam = 2.0 * float(np.max(np.abs(data)))
            policy = SelectionPolicy(
                kind="threshold_decay", tau0=1.1 * diam, alpha=0.999, seed=trial
            )
            res = run_policy(ps, 30, policy)
            base = run_policy(ps, 30, SelectionPolicy(kind="random", seed=trial))
            assert min_pairwise(data, res.indices) >= min_pairwise(data, base.indices) - 1e-12

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            SelectionPolicy(kind="threshold_decay")
        with pytest.raises(ConfigError):
            SelectionPolicy(kind="threshold_decay", tau0=-1.0, alpha=0.5)
        with pytest.raises(ConfigError):
            SelectionPolicy(kind="threshold_decay", tau0=1.0, alpha=0.0)
        with pytest.raises(ConfigError):
            SelectionPolicy(kind="threshold_decay", tau0=1.0, alpha=1.5)
        with pytest.raises(ConfigError):
            SelectionPolicy(kind="threshold_decay", tau0=0.0, alpha=0.5)

    @pytest.mark.parametrize(
        "field, tau0, alpha", [("tau0", True, 0.5), ("tau0", "1.0", 0.5), ("alpha", 1.0, True), ("alpha", 1.0, "0.5")]
    )
    def test_threshold_settings_must_be_numbers(self, field, tau0, alpha):
        with pytest.raises(ConfigError, match=field):
            SelectionPolicy(kind="threshold_decay", tau0=tau0, alpha=alpha)
        # A policy that does not use them still refuses them.
        with pytest.raises(ConfigError, match=field):
            SelectionPolicy(kind="greedy", **{field: True})

    @pytest.mark.parametrize("tau0, alpha", [(math.inf, 0.5), (math.nan, 0.5), (1.0, math.nan), (0.0, math.nan)])
    def test_non_finite_threshold_settings_rejected(self, tau0, alpha):
        # A non-finite tau never decays below a candidate's distance, so the scan would not end.
        with pytest.raises(ConfigError):
            SelectionPolicy(kind="threshold_decay", tau0=tau0, alpha=alpha)


def reference_threshold_decay(pool, n, policy):
    """The pass-by-pass scan that the threshold-decay selection replaced,
    kept as its oracle: (indices, passes, final_threshold)."""
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

    def admit(i):
        chosen.append(i)
        selected[i] = True
        np.minimum(min_d, policy.metric.from_squared(sq_dists(x, x[i : i + 1]).ravel()), out=min_d)
        min_d[i] = -np.inf

    while len(chosen) < n:
        passes += 1
        added = False
        for i in range(pool.size):
            if selected[i]:
                continue
            if min_d[i] > tau:
                admit(i)
                added = True
                if len(chosen) == n:
                    break
        if len(chosen) == n:
            break
        if not added:
            remaining = np.flatnonzero(~selected)
            if float(min_d[remaining].max()) <= 0.0:
                for i in remaining:
                    admit(int(i))
                    if len(chosen) == n:
                        break
                break
            if alpha == 1.0:
                raise ConfigError("threshold decay stalled: alpha=1 can never admit the remaining candidates")
            tau *= alpha
    return chosen, passes, tau


def reference_greedy(pool, n, policy):
    """The full-row update loop that the greedy selection replaced, kept as
    its oracle: (indices, None, None)."""
    _check_request(pool, n)
    x = np.ascontiguousarray(policy.metric.feature_map.apply(pool.data))
    start = _initial_index(pool.size, policy)
    chosen = [start]
    min_d2 = sq_dists(x, x[start : start + 1]).ravel()
    min_d2[start] = -1.0
    for _ in range(1, n):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        np.minimum(min_d2, sq_dists(x, x[nxt : nxt + 1]).ravel(), out=min_d2)
        min_d2[nxt] = -1.0
    return chosen, None, None


REFERENCE = {"greedy": reference_greedy, "threshold_decay": reference_threshold_decay}


def decay_outcome(fn, pool, n, policy):
    try:
        out = fn(pool, n, policy)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    if isinstance(out, tuple):
        indices, passes, tau = out
    else:
        indices, passes, tau = out.indices, out.passes, out.final_threshold
    return [int(i) for i in indices], passes, None if tau is None else float(tau).hex()


@st.composite
def decay_cases(draw):
    """Integer lattices (ties, duplicates) with a collapsed leading block,
    scaled over twelve decades and offset up to 1e12, seen through every
    feature map kind, for greedy and every kind of decay schedule. Pools
    reach three selection blocks, so ties at greedy's cut, the n limit
    reached mid-block and passes with more hits than a block all occur."""
    d = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3 * _BLOCK))
    coords = draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=size, max_size=size))
    data = np.array(coords, dtype=np.float64)
    data[: draw(st.integers(0, size))] = data[0]
    data *= 10.0 ** draw(st.integers(-6, 6))
    data += draw(st.sampled_from([0.0, 0.0, 1e3, -1e6, 1e12]))
    pool = PointSet(data)
    fmap = FeatureMap()
    if draw(st.booleans()):
        fmap = FeatureMap(kind="randproj", target_dim=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)))
    metric = DistanceMetric(kind=draw(st.sampled_from(["euclidean", "sqeuclidean"])), feature_map=fmap)
    n = draw(st.integers(1, size))
    seed = draw(st.integers(0, 2**16))
    initial_index = draw(st.one_of(st.none(), st.integers(0, size - 1)))
    schedule = draw(st.sampled_from(["greedy", "0.5", "0.9", "0.999", "vanilla", "stall"]))
    if schedule == "greedy":
        return pool, n, SelectionPolicy(kind="greedy", seed=seed, initial_index=initial_index, metric=metric)
    if schedule == "vanilla":
        tau0, alpha = 0.0, 0.0
    else:
        x = fmap.apply(data)
        diam = float(np.sqrt(sq_dists(x, x).max())) or 1.0
        tau0 = diam * draw(st.sampled_from([0.01, 0.3, 1.0, 2.5]))
        alpha = 1.0 if schedule == "stall" else float(schedule)
    policy = SelectionPolicy(
        kind="threshold_decay", tau0=tau0, alpha=alpha, seed=seed, initial_index=initial_index, metric=metric
    )
    return pool, n, policy


class TestThresholdDecayMatchesPassByPassScan:
    @given(case=decay_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_indices_passes_and_threshold(self, case):
        pool, n, policy = case
        expect = decay_outcome(REFERENCE[policy.kind], pool, n, policy)
        assert decay_outcome(run_policy, pool, n, policy) == expect

    @staticmethod
    def large_d8_pool(shift):
        rng = np.random.default_rng(13)
        centers = rng.uniform(-4, 4, (4, 8))
        data = centers[rng.integers(0, 4, 3000)] + rng.standard_normal((3000, 8)) + shift
        data[1500:1600] = data[:100]
        return PointSet(data)

    @pytest.mark.parametrize("shift", [0.0, 1e12])
    def test_greedy_on_large_d8_pool_matches(self, shift):
        # The subsample-greedy shape: the screen measures a few rows per pick,
        # or, where the norm expansion cancels, every row.
        pool = self.large_d8_pool(shift)
        for seed in range(2):
            policy = SelectionPolicy(kind="greedy", seed=seed)
            expect = decay_outcome(reference_greedy, pool, 400, policy)
            assert decay_outcome(run_policy, pool, 400, policy) == expect

    @pytest.mark.parametrize("shift", [0.0, 1e12])
    def test_threshold_decay_on_large_d8_pool_matches(self, shift):
        # The same pool for threshold decay: passes with many blocks of hits,
        # where the norm expansion cancels every pair is measured.
        pool = self.large_d8_pool(shift)
        for seed in range(2):
            policy = SelectionPolicy(kind="threshold_decay", tau0=6.0, alpha=0.8, seed=seed)
            expect = decay_outcome(reference_threshold_decay, pool, 400, policy)
            assert decay_outcome(run_policy, pool, 400, policy) == expect

    def test_threshold_decay_on_the_cli_workload_shape_matches(self):
        # The shape `collapselab loop --selection threshold:5.0:0.9` runs:
        # 1,000 of 2,000 d = 2 blob points, about 75 passes, most of them
        # after a pass with hits, and blocks of hits that admit some of
        # their rows.
        rng = np.random.default_rng(29)
        centers = rng.uniform(-4, 4, (4, 2))
        pool = PointSet(centers[rng.integers(0, 4, 2000)] + rng.standard_normal((2000, 2)))
        policy = SelectionPolicy(kind="threshold_decay", tau0=5.0, alpha=0.9, seed=3)
        expect = decay_outcome(reference_threshold_decay, pool, 1000, policy)
        assert expect[1] > 50
        assert decay_outcome(run_policy, pool, 1000, policy) == expect

    def test_outcome_does_not_depend_on_block_sizes(self, monkeypatch):
        # A 7 x 7 lattice in 200 rows: ties at every cut, duplicate tails, and
        # the n limit inside a block, under blocks of 1, 2 and 5 picks and a
        # bound budget of a few rows per chunk.
        rng = np.random.default_rng(17)
        pool = PointSet(rng.integers(-3, 4, (200, 2)).astype(np.float64))
        policies = [
            SelectionPolicy(kind="greedy", seed=5),
            SelectionPolicy(kind="threshold_decay", tau0=4.0, alpha=0.7, seed=5),
        ]
        cases = [(policy, n) for policy in policies for n in (40, 150)]
        expect = [decay_outcome(run_policy, pool, n, policy) for policy, n in cases]
        assert expect == [decay_outcome(REFERENCE[policy.kind], pool, n, policy) for policy, n in cases]
        monkeypatch.setattr(selection, "_BOUND_BUDGET", 64)
        for block in (1, 2, 5):
            monkeypatch.setattr(selection, "_BLOCK", block)
            assert [decay_outcome(run_policy, pool, n, policy) for policy, n in cases] == expect

    @pytest.mark.parametrize(
        "data",
        [
            [[6.0e153], [6.6e153], [1.35e154]],
            [[3.2e153], [-3.3e153], [1.39e154], [1.35e154], [5.2e153]],
            [[1.0e154], [1.0000001e154], [-1.0e154], [0.0]],
        ],
    )
    def test_pools_near_overflow_match(self, data):
        # Squared norms overflow, or two finite ones sum past the largest
        # double, while most distances stay finite: a row's minimum must
        # still fall when a nearer member joins.
        pool = PointSet(data)
        with np.errstate(over="ignore", invalid="ignore"):
            for start, n in itertools.product(range(pool.size), range(2, pool.size + 1)):
                for policy in (
                    SelectionPolicy(kind="greedy", initial_index=start),
                    SelectionPolicy(kind="threshold_decay", tau0=1e154, alpha=0.5, initial_index=start),
                ):
                    expect = decay_outcome(REFERENCE[policy.kind], pool, n, policy)
                    assert decay_outcome(run_policy, pool, n, policy) == expect

    def test_long_barren_run_is_counted_pass_by_pass(self):
        pool = PointSet([[0.0], [1.0], [2.0]])
        policy = SelectionPolicy(kind="threshold_decay", tau0=1000.0, alpha=0.999, initial_index=0)
        res = run_policy(pool, 3, policy)
        assert res.passes == 6907
        assert decay_outcome(run_policy, pool, 3, policy) == decay_outcome(
            reference_threshold_decay, pool, 3, policy
        )

    def test_random_pool_matches(self):
        rng = np.random.default_rng(11)
        pool = PointSet(np.round(rng.standard_normal((400, 2)), 1))
        for alpha in (0.5, 0.9, 0.999):
            policy = SelectionPolicy(kind="threshold_decay", tau0=5.0, alpha=alpha, seed=3)
            expect = decay_outcome(reference_threshold_decay, pool, 150, policy)
            assert decay_outcome(run_policy, pool, 150, policy) == expect


def handed_minima(pool, n, policy):
    """The members' minima run_policy hands over, and the within-set search
    of the set it selects under the policy's feature map, as uint64 views."""
    minima = []
    res = run_policy(pool, n, policy, minima)
    (found,) = minima
    squared = DistanceMetric(kind="sqeuclidean", feature_map=policy.metric.feature_map)
    return found.view(np.uint64), kth_nn_within(pool.rows(res.indices), 1, squared).view(np.uint64)


@st.composite
def handoff_cases(draw):
    """Integer lattices in d = 1..8 with copies and a leading block of
    copies, or collapsed onto a line, scaled and offset up to 1e6 (where the
    bound keeps every pair), for greedy and threshold decay under the
    identity map or a random projection; a vanilla or fast schedule on a
    pool with copies reaches the duplicate tail fill."""
    d = draw(st.integers(1, 8))
    size = draw(st.integers(2, 3 * _BLOCK))
    coords = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=size, max_size=size))
    data = np.array(coords, dtype=np.float64)
    if draw(st.booleans()):
        direction = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=np.float64)
        data = data[:, :1] * direction
    data[: draw(st.integers(0, size))] = data[0]
    data *= 10.0 ** draw(st.integers(-3, 3))
    data += draw(st.sampled_from([0.0, 0.0, 1e3, -1e6, 1e6]))
    pool = PointSet(data)
    fmap = FeatureMap()
    if draw(st.booleans()):
        fmap = FeatureMap(kind="randproj", target_dim=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16)))
    metric = DistanceMetric(kind=draw(st.sampled_from(["euclidean", "sqeuclidean"])), feature_map=fmap)
    n = draw(st.integers(2, size))
    seed = draw(st.integers(0, 2**16))
    schedule = draw(st.sampled_from(["greedy", "0.5", "0.9", "vanilla"]))
    if schedule == "greedy":
        return pool, n, SelectionPolicy(kind="greedy", seed=seed, metric=metric)
    if schedule == "vanilla":
        tau0, alpha = 0.0, 0.0
    else:
        features = fmap.apply(data)
        diam = float(np.sqrt(sq_dists(features, features).max())) or 1.0
        tau0, alpha = diam * draw(st.sampled_from([0.01, 0.3, 1.0])), float(schedule)
    return pool, n, SelectionPolicy(kind="threshold_decay", tau0=tau0, alpha=alpha, seed=seed, metric=metric)


class TestHandedMinima:
    """run_policy hands each pick's squared distance to its nearest other
    pick to the loop, which reads it in place of a within-set search: it
    must have that search's bits."""

    @given(case=handoff_cases())
    @settings(max_examples=300, deadline=None)
    def test_minima_are_the_within_set_search(self, case):
        found, expect = handed_minima(*case)
        assert np.array_equal(found, expect)

    @pytest.mark.parametrize("fmap", [FeatureMap(), FeatureMap(kind="randproj", target_dim=2, seed=5)])
    def test_tail_fill_and_small_blocks_keep_the_bits(self, monkeypatch, fmap):
        # A 5 x 5 lattice in 300 rows: threshold decay fills a long tail of
        # copies in one add, and every block and chunk size gives the bits.
        rng = np.random.default_rng(23)
        pool = PointSet(rng.integers(-2, 3, (300, 2)).astype(np.float64))
        metric = DistanceMetric(feature_map=fmap)
        policies = [
            SelectionPolicy(kind="greedy", seed=2, metric=metric),
            SelectionPolicy(kind="threshold_decay", tau0=3.0, alpha=0.5, seed=2, metric=metric),
            SelectionPolicy(kind="threshold_decay", tau0=0.0, alpha=0.0, seed=2, metric=metric),
        ]
        cases = [(policy, n) for policy in policies for n in (2, 25, 60, 300)]
        for policy, n in cases:
            found, expect = handed_minima(pool, n, policy)
            assert np.array_equal(found, expect)
        monkeypatch.setattr(selection, "_BOUND_BUDGET", 64)
        monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 8)
        for block in (1, 2, 5):
            monkeypatch.setattr(selection, "_BLOCK", block)
            for policy, n in cases:
                found, expect = handed_minima(pool, n, policy)
                assert np.array_equal(found, expect)

    @pytest.mark.parametrize(
        "data", [[[6.0e153], [6.6e153], [1.35e154]], [[1.0e154], [1.0000001e154], [-1.0e154], [0.0]]]
    )
    def test_pools_near_overflow_keep_the_bits(self, data):
        # Squared distances overflow to inf for some pairs, and a member whose
        # every pair overflows gets inf from both.
        pool = PointSet(data)
        with np.errstate(over="ignore", invalid="ignore"):
            for start, n in itertools.product(range(pool.size), range(2, pool.size + 1)):
                for policy in (
                    SelectionPolicy(kind="greedy", initial_index=start),
                    SelectionPolicy(kind="threshold_decay", tau0=1e154, alpha=0.5, initial_index=start),
                ):
                    found, expect = handed_minima(pool, n, policy)
                    assert np.array_equal(found, expect)

    def test_random_selection_hands_nothing(self):
        minima = []
        run_policy(LINE, 3, SelectionPolicy(kind="random"), minima)
        assert minima == []


class TestRandom:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        ps = PointSet(rng.standard_normal((40, 2)))
        a = run_policy(ps, 15, SelectionPolicy(kind="random", seed=3))
        b = run_policy(ps, 15, SelectionPolicy(kind="random", seed=3))
        assert np.array_equal(a.indices, b.indices)
        assert len(set(a.indices)) == 15

    def test_full_draw_is_permutation(self):
        ps = PointSet(np.arange(12.0).reshape(12, 1))
        res = run_policy(ps, 12, SelectionPolicy(kind="random", seed=0))
        assert sorted(res.indices) == list(range(12))

    def test_roughly_uniform_over_seeds(self):
        ps = PointSet(np.arange(20.0).reshape(20, 1))
        counts = np.zeros(20)
        for seed in range(200):
            counts[list(run_policy(ps, 5, SelectionPolicy(kind="random", seed=seed)).indices)] += 1
        freq = counts / (200 * 5)
        assert np.all(np.abs(freq - 1.0 / 20.0) < 0.02)


class TestPolicyDispatch:
    def test_run_policy_routes_by_kind(self):
        rng = np.random.default_rng(7)
        ps = PointSet(rng.standard_normal((30, 2)))
        policy = SelectionPolicy(kind="greedy", seed=1)
        assert decay_outcome(run_policy, ps, 8, policy) == decay_outcome(reference_greedy, ps, 8, policy)
        policy = SelectionPolicy(kind="threshold_decay", tau0=2.0, alpha=0.5, seed=1)
        assert decay_outcome(run_policy, ps, 8, policy) == decay_outcome(reference_threshold_decay, ps, 8, policy)
        r = run_policy(ps, 8, SelectionPolicy(kind="random", seed=1))
        assert np.array_equal(r.indices, np.random.default_rng(1).permutation(30)[:8])

    def test_source_proportions_of_choice(self):
        ps = PointSet(np.arange(8.0).reshape(8, 1), sources=[0, 0, 0, 0, 1, 1, 2, 2])
        res = run_policy(ps, 4, SelectionPolicy(kind="random", seed=9))
        manual = {}
        for i in res.indices:
            label = source_label(ps.sources[i])
            manual[label] = manual.get(label, 0) + 1
        expect = {k: v / 4.0 for k, v in manual.items()}
        assert res.source_proportions == pytest.approx(expect)
        assert sum(res.source_proportions.values()) == pytest.approx(1.0, abs=1e-12)
