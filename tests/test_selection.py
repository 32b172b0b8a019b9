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
    SQEUCLIDEAN,
    InsufficientPointsError,
    PointSet,
    SelectionPolicy,
    kl_entropy,
    run_policy,
    select_greedy,
    select_random,
    select_threshold_decay,
)
from collapselab.neighbors import sq_dists
from collapselab.selection import _check_request, _initial_index
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
        res2 = select_greedy(LINE, 2, policy)
        assert list(res2.indices) == [0, 3]
        res3 = select_greedy(LINE, 3, policy)
        assert list(res3.indices) == [0, 3, 1]

    def test_tie_breaks_to_lowest_index(self):
        # symmetric pool: both endpoints are farthest from the center
        ps = PointSet([[0.0], [-5.0], [5.0]])
        res = select_greedy(ps, 2, SelectionPolicy(kind="greedy", initial_index=0))
        assert list(res.indices) == [0, 1]

    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(1)
        ps = PointSet(rng.standard_normal((30, 2)))
        res = select_greedy(ps, 30, SelectionPolicy(kind="greedy", seed=4))
        assert sorted(res.indices) == list(range(30))

    def test_duplicate_heavy_pool_fills_up(self):
        ps = PointSet([[0.0], [0.0], [0.0], [1.0]])
        res = select_greedy(ps, 4, SelectionPolicy(kind="greedy", initial_index=0))
        assert sorted(res.indices) == [0, 1, 2, 3]
        assert list(res.indices[:2]) == [0, 3]

    def test_seeded_start_deterministic(self):
        rng = np.random.default_rng(2)
        ps = PointSet(rng.standard_normal((50, 3)))
        policy = SelectionPolicy(kind="greedy", seed=77)
        a = select_greedy(ps, 10, policy)
        b = select_greedy(ps, 10, policy)
        assert np.array_equal(a.indices, b.indices)

    def test_two_approximation_against_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            data = rng.standard_normal((10, 2)) * rng.uniform(0.2, 10.0)
            ps = PointSet(data)
            opt = max(
                min_pairwise(data, combo) for combo in itertools.combinations(range(10), 4)
            )
            res = select_greedy(ps, 4, SelectionPolicy(kind="greedy", seed=trial))
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
            select_greedy(LINE, 5, SelectionPolicy(kind="greedy"))
        with pytest.raises(ConfigError):
            select_greedy(LINE, 0, SelectionPolicy(kind="greedy"))
        with pytest.raises(ConfigError):
            select_greedy(LINE, 2, SelectionPolicy(kind="greedy", initial_index=4))


class TestThresholdDecay:
    def test_hand_trace(self):
        policy = SelectionPolicy(
            kind="threshold_decay", tau0=5.0, alpha=0.5, initial_index=0
        )
        res = select_threshold_decay(LINE, 3, policy)
        assert list(res.indices) == [0, 2, 1]
        assert res.final_threshold == 0.625
        assert res.passes == 5

    def test_vanilla_reduction_scan_order_prefix(self):
        policy = SelectionPolicy(kind="threshold_decay", tau0=0.0, alpha=0.0, initial_index=0)
        res = select_threshold_decay(LINE, 3, policy)
        assert list(res.indices) == [0, 1, 2]

    def test_single_point_needs_no_pass(self):
        policy = SelectionPolicy(kind="threshold_decay", tau0=5.0, alpha=0.5, initial_index=0)
        res = select_threshold_decay(LINE, 1, policy)
        assert list(res.indices) == [0]
        assert res.passes == 0
        assert res.final_threshold == 5.0

    def test_duplicate_stagnation_fills_in_scan_order(self):
        ps = PointSet([[0.0], [0.0], [0.0], [5.0]])
        policy = SelectionPolicy(kind="threshold_decay", tau0=1.0, alpha=0.5, initial_index=0)
        res = select_threshold_decay(ps, 3, policy)
        assert list(res.indices) == [0, 3, 1]

    def test_no_decay_with_unreachable_threshold_rejected(self):
        ps = PointSet([[0.0], [1.0]])
        policy = SelectionPolicy(kind="threshold_decay", tau0=10.0, alpha=1.0, initial_index=0)
        with pytest.raises(ConfigError):
            select_threshold_decay(ps, 2, policy)

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
            res = select_threshold_decay(ps, 30, policy)
            base = select_random(ps, 30, seed=trial)
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
    """The pass-by-pass scan that select_threshold_decay replaced, kept as
    its oracle: (indices, passes, final_threshold)."""
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
    """The full-row update loop that select_greedy replaced, kept as its
    oracle: (indices, None, None)."""
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
    feature map kind, for greedy and every kind of decay schedule."""
    d = draw(st.integers(1, 3))
    size = draw(st.integers(1, 24))
    coords = draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=size, max_size=size))
    data = np.array(coords, dtype=np.float64)
    data[: draw(st.integers(0, size))] = data[0]
    data *= 10.0 ** draw(st.integers(-6, 6))
    data += draw(st.sampled_from([0.0, 0.0, 1e3, -1e6, 1e12]))
    pool = PointSet(data)
    fmap = draw(st.sampled_from(["identity", "randproj", "whiten"]))
    if fmap == "randproj":
        fmap = FeatureMap.random_projection(draw(st.integers(1, 3)), draw(st.integers(0, 2**16)))
    elif fmap == "whiten":
        width = draw(st.integers(1, 3))
        transform = draw(st.lists(st.integers(-3, 3), min_size=d * width, max_size=d * width))
        fmap = FeatureMap.affine_whitening(data.mean(axis=0), np.reshape(transform, (d, width)) / 2.0)
    else:
        fmap = FeatureMap()
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

    @pytest.mark.parametrize("shift", [0.0, 1e12])
    def test_greedy_on_large_d8_pool_matches(self, shift):
        # The subsample-greedy shape: the screen measures a few rows per pick,
        # or, where the norm expansion cancels, every row.
        rng = np.random.default_rng(13)
        centers = rng.uniform(-4, 4, (4, 8))
        data = centers[rng.integers(0, 4, 3000)] + rng.standard_normal((3000, 8)) + shift
        data[1500:1600] = data[:100]
        for seed in range(2):
            policy = SelectionPolicy(kind="greedy", seed=seed)
            expect = decay_outcome(reference_greedy, PointSet(data), 400, policy)
            assert decay_outcome(select_greedy, PointSet(data), 400, policy) == expect

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
        res = select_threshold_decay(pool, 3, policy)
        assert res.passes == 6907
        assert decay_outcome(select_threshold_decay, pool, 3, policy) == decay_outcome(
            reference_threshold_decay, pool, 3, policy
        )

    def test_random_pool_matches(self):
        rng = np.random.default_rng(11)
        pool = PointSet(np.round(rng.standard_normal((400, 2)), 1))
        for alpha in (0.5, 0.9, 0.999):
            policy = SelectionPolicy(kind="threshold_decay", tau0=5.0, alpha=alpha, seed=3)
            expect = decay_outcome(reference_threshold_decay, pool, 150, policy)
            assert decay_outcome(select_threshold_decay, pool, 150, policy) == expect


class TestRandom:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        ps = PointSet(rng.standard_normal((40, 2)))
        a = select_random(ps, 15, seed=3)
        b = select_random(ps, 15, seed=3)
        assert np.array_equal(a.indices, b.indices)
        assert len(set(a.indices)) == 15

    def test_full_draw_is_permutation(self):
        ps = PointSet(np.arange(12.0).reshape(12, 1))
        res = select_random(ps, 12, seed=0)
        assert sorted(res.indices) == list(range(12))

    def test_roughly_uniform_over_seeds(self):
        ps = PointSet(np.arange(20.0).reshape(20, 1))
        counts = np.zeros(20)
        for seed in range(200):
            counts[list(select_random(ps, 5, seed=seed).indices)] += 1
        freq = counts / (200 * 5)
        assert np.all(np.abs(freq - 1.0 / 20.0) < 0.02)


class TestPolicyDispatch:
    def test_run_policy_routes_by_kind(self):
        rng = np.random.default_rng(7)
        ps = PointSet(rng.standard_normal((30, 2)))
        g = run_policy(ps, 8, SelectionPolicy(kind="greedy", seed=1))
        assert np.array_equal(g.indices, select_greedy(ps, 8, SelectionPolicy(kind="greedy", seed=1)).indices)
        r = run_policy(ps, 8, SelectionPolicy(kind="random", seed=1))
        assert np.array_equal(r.indices, select_random(ps, 8, seed=1).indices)

    def test_source_proportions_of_choice(self):
        ps = PointSet(np.arange(8.0).reshape(8, 1), sources=[0, 0, 0, 0, 1, 1, 2, 2])
        res = select_random(ps, 4, seed=9)
        manual = {}
        for i in res.indices:
            label = source_label(ps.sources[i])
            manual[label] = manual.get(label, 0) + 1
        expect = {k: v / 4.0 for k, v in manual.items()}
        assert res.source_proportions == pytest.approx(expect)
        assert sum(res.source_proportions.values()) == pytest.approx(1.0, abs=1e-12)
