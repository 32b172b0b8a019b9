import dataclasses
import functools
import itertools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collapselab.looper as looper
import collapselab.metrics as metrics
import collapselab.neighbors as neighbors
from collapselab import (
    ConfigError,
    DimensionError,
    DistanceMetric,
    EUCLIDEAN,
    EntropyReport,
    FeatureMap,
    FormatError,
    GeneratorSpec,
    InsufficientPointsError,
    IterationRecord,
    LoopConfig,
    NumericalError,
    PointSet,
    SelectionPolicy,
    compare_traces,
    correlate_trace,
    derive_seed,
    fit,
    generalization_score,
    kl_entropy,
    run_loop,
    sample,
    splitmix64,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
from collapselab.cli import main
from collapselab.looper import ROLE_FIT, ROLE_SAMPLE, ROLE_SELECT, SCHEMA_VERSION, to_doc
from test_neighbors import brute_sq


def blob_data(seed, n, d=2, spread=4.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(4, d))
    return PointSet(centers[rng.integers(0, 4, n)] + rng.standard_normal((n, d)))


def bootstrap_config(**kw):
    base = dict(
        paradigm="replace",
        iterations=3,
        train_size=60,
        generator=GeneratorSpec(kind="bootstrap", sigma=0.0),
        metric=EUCLIDEAN,
        master_seed=0,
    )
    base.update(kw)
    return LoopConfig(**base)


class TestSeedSplitting:
    def test_splitmix_reference_vector(self):
        # first output of the standard SplitMix64 stream seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_frozen_derivations(self):
        assert derive_seed(42, 1, ROLE_FIT) == 11038316942610582860
        assert derive_seed(42, 1, ROLE_SAMPLE) == 17937708578470471451
        assert derive_seed(42, 2, ROLE_FIT) == 18392536956732770796

    def test_distinct_across_roles_and_iterations(self):
        seen = set()
        for it in range(1, 30):
            for role in (ROLE_FIT, ROLE_SAMPLE, ROLE_SELECT):
                seen.add(derive_seed(7, it, role))
        assert len(seen) == 29 * 3

    def test_master_seed_changes_everything(self):
        a = {derive_seed(1, it, ROLE_FIT) for it in range(1, 20)}
        b = {derive_seed(2, it, ROLE_FIT) for it in range(1, 20)}
        assert not a & b


class TestLoopConfig:
    def test_paradigm_validated(self):
        with pytest.raises(ConfigError):
            bootstrap_config(paradigm="mixup")

    def test_accumulate_forbids_selection(self):
        with pytest.raises(ConfigError):
            bootstrap_config(paradigm="accumulate", selection=SelectionPolicy(kind="random"))

    @pytest.mark.parametrize(
        "loop_metric, policy_metric",
        [
            (EUCLIDEAN, DistanceMetric(kind="sqeuclidean")),
            (DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=1)), EUCLIDEAN),
            (
                DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=1)),
                DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=2)),
            ),
        ],
    )
    def test_selection_must_use_the_loop_metric(self, loop_metric, policy_metric):
        # A policy measuring in another space would select by distances that
        # no metric of the loop reports.
        with pytest.raises(ConfigError, match="loop's metric") as refused:
            bootstrap_config(metric=loop_metric, selection=SelectionPolicy(kind="greedy", metric=policy_metric))
        assert refused.value.exit_code == 4
        # An equal metric held in another object is the loop's.
        same = DistanceMetric(kind=loop_metric.kind, feature_map=loop_metric.feature_map)
        assert bootstrap_config(metric=loop_metric, selection=SelectionPolicy(kind="greedy", metric=same)).selection

    def test_effective_multiplier_defaults(self):
        assert bootstrap_config().generation_multiplier == 1.0
        greedy = bootstrap_config(selection=SelectionPolicy(kind="greedy"))
        assert greedy.generation_multiplier == 2.0
        explicit = bootstrap_config(generation_multiplier=1.5)
        assert explicit.generation_multiplier == 1.5

    def test_multiplier_validated(self):
        with pytest.raises(ConfigError):
            bootstrap_config(generation_multiplier=0.0)
        for value in (math.inf, math.nan):
            with pytest.raises(ConfigError, match="generation_multiplier"):
                bootstrap_config(generation_multiplier=value)
        with pytest.raises(ConfigError):
            bootstrap_config(iterations=0)
        with pytest.raises(ConfigError):
            bootstrap_config(train_size=0)
        with pytest.raises(ConfigError):
            bootstrap_config(gamma=0)
        with pytest.raises(ConfigError, match="pool_cap must be >= 1"):
            bootstrap_config(pool_cap=0)

    def test_int_multiplier_beyond_float_range_is_config_error(self):
        with pytest.raises(ConfigError, match="^generation_multiplier must be float"):
            bootstrap_config(generation_multiplier=10**400)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("iterations", 2.5),
            ("train_size", 10.0),
            ("gamma", 1.5),
            ("master_seed", 3.0),
            ("pool_cap", 1e6),
            ("iterations", True),
        ],
    )
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            bootstrap_config(**{field: value})

    @pytest.mark.parametrize("value", [True, "1.5", [1.5]])
    def test_multiplier_must_be_a_number(self, value):
        with pytest.raises(ConfigError, match="generation_multiplier"):
            bootstrap_config(generation_multiplier=value)
        assert bootstrap_config(generation_multiplier=2).generation_multiplier == 2.0


class TestRunLoop:
    def test_single_iteration_matches_manual_chain(self):
        real = blob_data(1, 80)
        cfg = bootstrap_config(iterations=1, train_size=80, master_seed=5)
        trace = run_loop(cfg, real)
        assert len(trace.records) == 1
        rec = trace.records[0]
        assert rec.iteration == 1

        gen = fit(
            dataclasses.replace(cfg.generator, seed=derive_seed(5, 1, ROLE_FIT)), real
        )
        g1 = sample(gen, 80, derive_seed(5, 1, ROLE_SAMPLE))
        assert rec.gs == generalization_score(g1, real)
        assert rec.entropy.estimate == kl_entropy(g1.with_sources(1)).estimate
        assert rec.duplicate_count == kl_entropy(g1).duplicate_count

    def test_record_indices_consecutive(self):
        trace = run_loop(bootstrap_config(iterations=4), blob_data(2, 60))
        assert [r.iteration for r in trace.records] == [1, 2, 3, 4]

    def test_memorizer_has_exact_zero_gs_and_growing_duplicates(self):
        trace = run_loop(bootstrap_config(iterations=5, train_size=200), blob_data(3, 200))
        assert all(rec.gs == 0.0 for rec in trace.records)
        dups = [rec.duplicate_count for rec in trace.records]
        assert dups == sorted(dups)
        assert dups[-1] > dups[0]

    def test_replace_and_subsample_agree_at_first_iteration(self):
        real = blob_data(4, 100)
        a = run_loop(bootstrap_config(iterations=1, train_size=100, master_seed=9), real)
        b = run_loop(
            bootstrap_config(
                paradigm="accumulate_subsample",
                iterations=1,
                train_size=100,
                master_seed=9,
                selection=SelectionPolicy(kind="random", seed=1),
            ),
            real,
        )
        assert a.records[0].gs == b.records[0].gs

    def test_source_proportions_conserved(self):
        cfg = bootstrap_config(
            paradigm="accumulate_subsample",
            iterations=4,
            train_size=50,
            selection=SelectionPolicy(kind="random", seed=2),
        )
        trace = run_loop(cfg, blob_data(5, 150))
        allowed = {"real"} | {f"syn{i}" for i in range(1, 5)}
        for rec in trace.records:
            assert sum(rec.source_proportions.values()) == pytest.approx(1.0, abs=1e-12)
            assert set(rec.source_proportions) <= allowed

    def test_subsample_random_tracks_real_share_of_pool(self):
        n_real, N, iters = 150, 50, 4
        fracs = np.zeros((12, iters))
        for m in range(12):
            cfg = bootstrap_config(
                paradigm="accumulate_subsample",
                iterations=iters,
                train_size=N,
                master_seed=m,
                selection=SelectionPolicy(kind="random", seed=m),
            )
            trace = run_loop(cfg, blob_data(6, n_real))
            fracs[m] = [rec.source_proportions.get("real", 0.0) for rec in trace.records]
        expected = np.array([n_real / (n_real + N * t) for t in range(1, iters + 1)])
        assert np.max(np.abs(fracs.mean(axis=0) - expected)) <= 0.05

    def test_accumulate_trains_on_whole_pool(self):
        cfg = bootstrap_config(paradigm="accumulate", iterations=3, train_size=40)
        trace = run_loop(cfg, blob_data(7, 100))
        assert [rec.entropy.size for rec in trace.records] == [140, 180, 220]

    def test_replace_multiplier_grows_training_set_without_selection(self):
        cfg = bootstrap_config(iterations=2, train_size=100, generation_multiplier=1.5)
        trace = run_loop(cfg, blob_data(8, 100))
        assert trace.records[0].entropy.size == 150

    @pytest.mark.parametrize("paradigm", ["accumulate", "accumulate_subsample"])
    def test_accumulating_multiplier_sets_the_rows_added_per_iteration(self, monkeypatch, paradigm):
        sizes = []
        draw = looper.sample

        def spy(gen, m, seed):
            sizes.append(m)
            return draw(gen, m, seed)

        monkeypatch.setattr(looper, "sample", spy)
        cfg = bootstrap_config(paradigm=paradigm, iterations=3, train_size=25, generation_multiplier=1.5)
        trace = run_loop(cfg, blob_data(8, 50))
        assert sizes == [math.ceil(1.5 * 25)] * 3
        if paradigm == "accumulate":
            assert [rec.entropy.size for rec in trace.records] == [50 + 38 * it for it in (1, 2, 3)]

    @pytest.mark.parametrize(
        "paradigm, fits", [("replace", 16), ("accumulate", 30 + 2 * 16), ("accumulate_subsample", 30 + 2 * 16)]
    )
    def test_pool_cap_bounds_the_largest_rounded_pool(self, paradigm, fits):
        # Generations of ceil(1.55 x 10) = 16 points: the largest pool is one
        # generation under replace and 30 real rows plus two otherwise.
        cfg = dict(paradigm=paradigm, iterations=2, train_size=10, generation_multiplier=1.55)
        real = blob_data(9, 30)
        run_loop(bootstrap_config(**cfg, pool_cap=fits), real)
        with pytest.raises(ConfigError, match=f"beyond pool_cap {fits - 1}"):
            run_loop(bootstrap_config(**cfg, pool_cap=fits - 1), real)

    def test_replace_selection_cuts_pool_back_to_train_size(self):
        cfg = bootstrap_config(
            iterations=2, train_size=80, selection=SelectionPolicy(kind="greedy", seed=0)
        )
        trace = run_loop(cfg, blob_data(9, 80))
        assert cfg.generation_multiplier == 2.0
        assert all(rec.entropy.size == 80 for rec in trace.records)

    def test_gaussian_loop_contracts_covariance(self):
        cfg = bootstrap_config(
            iterations=12, train_size=100, generator=GeneratorSpec(kind="gaussian")
        )
        trace = run_loop(cfg, PointSet(np.random.default_rng(10).standard_normal((100, 2))))
        assert trace.records[-1].trace_cov < trace.records[0].trace_cov

    def test_gmm_loop_records_finite(self):
        cfg = bootstrap_config(
            iterations=2, train_size=80, generator=GeneratorSpec(kind="gmm", components=2)
        )
        trace = run_loop(cfg, blob_data(11, 80))
        for rec in trace.records:
            for value in (rec.gs, rec.mnnd, rec.trace_cov, rec.frechet_real):
                assert math.isfinite(value)

    def test_real_reference_matches_real_moments(self):
        real = blob_data(12, 90)
        trace = run_loop(bootstrap_config(iterations=1, train_size=90), real)
        assert np.array_equal(trace.real_reference.mean, real.data.mean(axis=0))

    def test_validation(self):
        real = blob_data(13, 30)
        with pytest.raises(InsufficientPointsError):
            run_loop(bootstrap_config(train_size=31), real)
        with pytest.raises(ConfigError):
            run_loop(bootstrap_config(train_size=30), real.with_sources(1))
        capped = bootstrap_config(
            paradigm="accumulate", iterations=5, train_size=30, pool_cap=100
        )
        with pytest.raises(ConfigError):
            run_loop(capped, real)


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        real = blob_data(14, 120)
        cfg = bootstrap_config(
            iterations=4,
            train_size=60,
            paradigm="accumulate_subsample",
            selection=SelectionPolicy(kind="greedy", seed=3),
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
        )
        a = trace_to_json(run_loop(cfg, real), canonical=True)
        b = trace_to_json(run_loop(cfg, real), canonical=True)
        assert a == b

    def test_block_budget_invariant(self, monkeypatch):
        real = blob_data(15, 100)
        cfg = bootstrap_config(iterations=3, train_size=100, generator=GeneratorSpec(kind="gaussian"))
        base = trace_to_json(run_loop(cfg, real), canonical=True)
        monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 1 << 10)
        assert trace_to_json(run_loop(cfg, real), canonical=True) == base

    @pytest.mark.parametrize("fmap", [FeatureMap(), FeatureMap(kind="randproj", target_dim=2, seed=5)])
    @pytest.mark.parametrize("kind", ["greedy", "threshold_decay"])
    @pytest.mark.parametrize(
        "paradigm, sigma, d, distinct",
        [("replace", 0.0, 2, 25), ("replace", 0.05, 3, 120), ("accumulate_subsample", 0.05, 8, 120)],
    )
    def test_handed_minima_write_the_searched_trace(self, monkeypatch, fmap, kind, paradigm, sigma, d, distinct):
        # At gamma 1 a distance policy's members' minima stand in for the
        # within-set search of D_{n+1}, under either feature map; a loop that
        # searches writes the same bytes. With 25 distinct real points,
        # selections hold copies.
        real = blob_data(16, 120, d)
        real = PointSet(real.data[np.arange(120) % distinct])
        decay = {"tau0": 2.0, "alpha": 0.5} if kind == "threshold_decay" else {}
        metric = DistanceMetric(feature_map=fmap)
        cfg = bootstrap_config(
            paradigm=paradigm,
            generator=GeneratorSpec(kind="bootstrap", sigma=sigma),
            selection=SelectionPolicy(kind=kind, metric=metric, **decay),
            metric=metric,
        )
        handed = trace_to_json(run_loop(cfg, real), canonical=True)
        select = looper.run_policy
        monkeypatch.setattr(looper, "run_policy", lambda pool, n, policy, minima=None: select(pool, n, policy))
        assert trace_to_json(run_loop(cfg, real), canonical=True) == handed

    @pytest.mark.parametrize("paradigm", ["replace", "accumulate", "accumulate_subsample"])
    def test_a_run_after_an_unrelated_run_writes_the_bytes_of_a_cold_run(self, monkeypatch, paradigm):
        # Only the search of a set's distinct points outlives a call. A run
        # right after an unrelated one writes the bytes of the same run from
        # an empty search cache: under either feature map, with and without
        # a distance policy, at gamma 2 so that every iteration searches
        # D_{n+1}. The unrelated run is the first iteration on scaled data,
        # so its last search has the shape and ranks of the next run's first.
        real = PointSet(blob_data(17, 120).data[np.arange(120) % 100])
        kinds = [None] if paradigm == "accumulate" else [None, "greedy"]
        for fmap, kind in itertools.product([FeatureMap(), FeatureMap(kind="randproj", target_dim=2, seed=5)], kinds):
            metric = DistanceMetric(feature_map=fmap)
            selection = kind and SelectionPolicy(kind=kind, metric=metric)
            cfg = bootstrap_config(paradigm=paradigm, iterations=2, gamma=2, metric=metric, selection=selection)
            run_loop(dataclasses.replace(cfg, iterations=1), PointSet(real.data * 2.0))
            warm = trace_to_json(run_loop(cfg, real), canonical=True)
            monkeypatch.setattr(neighbors, "_memo", None)
            assert trace_to_json(run_loop(cfg, real), canonical=True) == warm, (fmap.kind, kind)


class TestCompare:
    def test_self_comparison_is_zero(self):
        trace = run_loop(bootstrap_config(), blob_data(16, 60))
        summary = compare_traces(trace, trace)
        for key, deltas in summary.deltas.items():
            assert all(d == 0.0 for d in deltas)
            assert summary.mean_delta[key] == 0.0
            assert summary.dominance[key] == "tie"

    def test_mismatched_traces_rejected(self):
        real = blob_data(17, 60)
        a = run_loop(bootstrap_config(iterations=2), real)
        b = run_loop(bootstrap_config(iterations=3), real)
        with pytest.raises(DimensionError):
            compare_traces(a, b)
        c = run_loop(bootstrap_config(paradigm="accumulate", iterations=2, pool_cap=10_000), real)
        with pytest.raises(DimensionError):
            compare_traces(a, c)

    def test_dominance_signs(self):
        real = blob_data(18, 80)
        greedy = run_loop(
            bootstrap_config(
                paradigm="accumulate_subsample",
                iterations=3,
                selection=SelectionPolicy(kind="greedy", seed=0),
            ),
            real,
        )
        vanilla = run_loop(
            bootstrap_config(
                paradigm="accumulate_subsample",
                iterations=3,
                selection=SelectionPolicy(kind="random", seed=0),
            ),
            real,
        )
        summary = compare_traces(greedy, vanilla)
        assert summary.dominance["entropy"] == "a"

    def test_deltas_of_both_signs_are_mixed(self):
        # Entropy and GS rise in one iteration and fall in the other; MNND never moves.
        a = _trace_with([_record_with(1, 1.0, 2.0), _record_with(2, 2.0, 1.0)])
        b = _trace_with([_record_with(1, 2.0, 1.0), _record_with(2, 1.0, 2.0)])
        summary = compare_traces(a, b)
        assert summary.deltas["gs"] == (1.0, -1.0)
        assert summary.dominance == {"entropy": "mixed", "gs": "mixed", "mnnd": "tie", "frechet_real": "tie"}


def _record_with(iteration, log_distance_sum, gs):
    """A record whose entropy estimate is a constant plus log_distance_sum / 10."""
    report = EntropyReport(gamma=1, duplicate_count=0, log_distance_sum=log_distance_sum, size=10, dim=1)
    return IterationRecord(
        iteration=iteration,
        entropy=report,
        gs=gs,
        mnnd=1.0,
        trace_cov=1.0,
        frechet_real=0.0,
        source_proportions={"real": 1.0},
    )


def _trace_with(records):
    cfg = bootstrap_config(iterations=len(records))
    real = PointSet(np.arange(120.0).reshape(60, 2))
    return dataclasses.replace(run_loop(bootstrap_config(iterations=1), real), records=records)


class TestCorrelate:
    def test_exact_log_linear_relation_gives_unit_r(self):
        records = [
            _record_with(i + 1, float(h), math.exp(h)) for i, h in enumerate((1.0, 2.0, 3.0))
        ]
        report = correlate_trace(_trace_with(records))
        assert report.r == 1.0
        assert report.point_count == 3
        assert report.excluded_count == 0

    def test_memorized_records_excluded(self):
        records = [
            _record_with(1, 1.0, math.e),
            _record_with(2, 2.0, math.e**2),
            _record_with(3, 3.0, math.e**3),
            _record_with(4, -20.0, 0.0),
        ]
        report = correlate_trace(_trace_with(records))
        assert report.point_count == 3
        assert report.excluded_count == 1
        assert report.r == 1.0

    def test_pooling_multiple_traces(self):
        t1 = _trace_with([_record_with(1, 1.0, math.e), _record_with(2, 2.0, math.e**2)])
        t2 = _trace_with([_record_with(1, 3.0, math.e**3)])
        report = correlate_trace([t1, t2])
        assert report.point_count == 3
        assert report.r == 1.0

    def test_too_few_usable_records_rejected(self):
        records = [_record_with(1, 1.0, 0.0), _record_with(2, 2.0, 1.0), _record_with(3, 3.0, 1.5)]
        with pytest.raises(InsufficientPointsError):
            correlate_trace(_trace_with(records))


class TestSerialization:
    def test_canonical_round_trip_byte_identical(self):
        cfg = bootstrap_config(
            iterations=3,
            paradigm="accumulate_subsample",
            selection=SelectionPolicy(kind="threshold_decay", tau0=2.0, alpha=0.5, seed=1),
            generator=GeneratorSpec(kind="gmm", components=2),
        )
        trace = run_loop(cfg, blob_data(19, 90))
        text = trace_to_json(trace, canonical=True)
        again = trace_to_json(trace_from_json(text), canonical=True)
        assert again == text

    def test_round_trip_preserves_records_exactly(self):
        trace = run_loop(bootstrap_config(iterations=3), blob_data(20, 60))
        back = trace_from_json(trace_to_json(trace, canonical=True))
        for a, b in zip(trace.records, back.records):
            assert a == b
        # the echo stores the effective multiplier, not the None default;
        # metric compares by identity, so check it structurally
        assert back.config.metric.kind == trace.config.metric.kind
        assert back.config.metric.feature_map.kind == trace.config.metric.feature_map.kind
        assert dataclasses.replace(back.config, metric=trace.config.metric) == dataclasses.replace(
            trace.config, generation_multiplier=trace.config.generation_multiplier
        )

    def test_canonical_omits_environment_fields(self):
        trace = run_loop(bootstrap_config(iterations=1), blob_data(21, 60))
        canonical = json.loads(trace_to_json(trace, canonical=True))
        full = json.loads(trace_to_json(trace))
        assert "timestamp" not in canonical
        assert "host" not in canonical
        assert "timestamp" in full
        assert "host" in full
        assert canonical["schema_version"] == 1

    @pytest.mark.parametrize("field, value", [("frechet_real", math.nan), ("gs", math.inf), ("mnnd", -math.inf)])
    def test_non_finite_value_is_numerical_error(self, field, value):
        # JSON has no NaN or infinity: the writer refuses them rather than
        # write a bare NaN token no strict reader accepts.
        trace = run_loop(bootstrap_config(iterations=2), blob_data(21, 60))
        records = (trace.records[0], dataclasses.replace(trace.records[1], **{field: value}))
        with pytest.raises(NumericalError, match="non-finite"):
            trace_to_json(dataclasses.replace(trace, records=records), canonical=True)
        trace_to_json(trace, canonical=True)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_is_format_error(self, token):
        # json.loads reads these tokens, and 1e999 as inf, unless told not to.
        doc = json.loads(trace_to_json(run_loop(bootstrap_config(iterations=2), blob_data(21, 60)), canonical=True))
        doc["records"][1]["mnnd"] = "here"
        with pytest.raises(FormatError, match="non-finite"):
            trace_from_json(json.dumps(doc).replace('"here"', token))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc["config"].update(iterations=10**12),
            lambda doc: doc["records"][1].update(duplicate_count=doc["records"][1]["duplicate_count"] + 1),
            lambda doc: doc["records"][1]["entropy"].update(size=10**400),
            lambda doc: doc["records"][1]["entropy"].update(dim=10**400),
            lambda doc: doc["real_reference"]["covariance"][0].__setitem__(1, -(10**400)),
        ],
        ids=["iterations-huge", "duplicate-count-not-entropy", "size-beyond-float", "dim-beyond-float",
             "covariance-beyond-float"],
    )
    def test_reader_refuses_with_format_error(self, damage):
        # Each is a FormatError from the library call, not a MemoryError or
        # an OverflowError.
        doc = json.loads(trace_to_json(run_loop(bootstrap_config(iterations=2), blob_data(21, 60)), canonical=True))
        damage(doc)
        with pytest.raises(FormatError):
            trace_from_json(json.dumps(doc))

    def test_config_echo_reports_effective_multiplier(self):
        cfg = bootstrap_config(selection=SelectionPolicy(kind="greedy", seed=0))
        doc = json.loads(trace_to_json(run_loop(cfg, blob_data(22, 60)), canonical=True))
        assert doc["config"]["generation_multiplier"] == 2.0

    def test_int_multiplier_echoes_as_a_float(self):
        trace = run_loop(bootstrap_config(iterations=1, generation_multiplier=2), blob_data(22, 60))
        assert trace.config.generation_multiplier == 2.0
        assert '"generation_multiplier": 2.0,' in trace_to_json(trace, canonical=True)

    def test_csv_shape_and_padding(self):
        cfg = bootstrap_config(iterations=3, train_size=50)
        text = trace_to_csv(run_loop(cfg, blob_data(23, 50)))
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header == [
            "iteration", "entropy", "duplicates", "gs", "mnnd", "trace_cov",
            "frechet_real", "frac_real", "frac_syn_1", "frac_syn_2", "frac_syn_3",
        ]
        assert len(lines) == 4
        first = lines[1].split(",")
        # replace paradigm: record 1 is all syn1, later origins padded with 0
        assert first[7] == "0.0"
        assert first[8] == "1.0"
        assert first[9] == "0.0"
        assert first[10] == "0.0"
        # accumulate keeps the real rows and every earlier origin, so both
        # kinds of fraction are non-zero; each cell is its record's value
        labels = {"frac_real": "real", "frac_syn_1": "syn1", "frac_syn_2": "syn2", "frac_syn_3": "syn3"}
        for paradigm in ("replace", "accumulate"):
            trace = run_loop(bootstrap_config(paradigm=paradigm, iterations=3, train_size=50), blob_data(23, 50))
            lines = trace_to_csv(trace).strip().split("\n")
            assert lines[0].split(",") == header
            for rec, line in zip(trace.records, lines[1:], strict=True):
                row = dict(zip(header, line.split(","), strict=True))
                assert set(rec.source_proportions) <= set(labels.values())
                for col, label in labels.items():
                    assert row[col] == repr(rec.source_proportions.get(label, 0.0))
        last = trace.records[-1].source_proportions
        assert set(last) == set(labels.values()) and all(v > 0 for v in last.values())


# The hand-written trace writer that to_doc replaced, kept as the oracle for
# the trace format: the round-trip tests above cannot see a format change,
# because the writer and the reader would change together.


def reference_feature_map_doc(fmap):
    if fmap.kind == "identity":
        return {"kind": "identity"}
    return {"kind": "randproj", "target_dim": fmap.target_dim, "seed": fmap.seed}


def reference_metric_doc(metric):
    return {"kind": metric.kind, "feature_map": reference_feature_map_doc(metric.feature_map)}


def reference_config_doc(config):
    gen = config.generator
    gen_doc = {"kind": gen.kind, "seed": gen.seed}
    if gen.kind == "gmm":
        gen_doc.update(components=gen.components, max_iters=gen.max_iters, tol=gen.tol)
    if gen.kind == "bootstrap":
        gen_doc.update(sigma=gen.sigma)
    sel = config.selection
    sel_doc = None
    if sel is not None:
        sel_doc = {"kind": sel.kind, "seed": sel.seed, "metric": reference_metric_doc(sel.metric)}
        if sel.kind == "threshold_decay":
            sel_doc.update(tau0=sel.tau0, alpha=sel.alpha)
        if sel.initial_index is not None:
            sel_doc.update(initial_index=sel.initial_index)
    return {
        "paradigm": config.paradigm,
        "iterations": config.iterations,
        "train_size": config.train_size,
        "generator": gen_doc,
        "selection": sel_doc,
        "generation_multiplier": config.generation_multiplier,
        "metric": reference_metric_doc(config.metric),
        "gamma": config.gamma,
        "master_seed": config.master_seed,
        "pool_cap": config.pool_cap,
    }


def reference_record_doc(rec):
    ent = rec.entropy
    return {
        "iteration": rec.iteration,
        "entropy": {
            "estimate": ent.estimate,
            "gamma": ent.gamma,
            "duplicate_count": ent.duplicate_count,
            "log_distance_sum": ent.log_distance_sum,
            "size": ent.size,
            "dim": ent.dim,
        },
        "gs": rec.gs,
        "mnnd": rec.mnnd,
        "trace_cov": rec.trace_cov,
        "frechet_real": rec.frechet_real,
        "source_proportions": rec.source_proportions,
        "duplicate_count": rec.duplicate_count,
    }


def reference_trace_to_json(trace):
    """Canonical trace bytes as the hand-written writer produced them."""
    doc = {"schema_version": 1}
    doc["config"] = reference_config_doc(trace.config)
    doc["real_reference"] = {
        "mean": [float(v) for v in trace.real_reference.mean],
        "covariance": [[float(v) for v in row] for row in trace.real_reference.covariance],
        "trace_cov": trace.real_reference.trace_cov,
    }
    doc["records"] = [reference_record_doc(r) for r in trace.records]
    return json.dumps(doc, indent=2) + "\n"


_GRID_REAL = blob_data(24, 40)
_GRID_GENERATORS = {
    "gaussian": GeneratorSpec(kind="gaussian"),
    "gmm:2": GeneratorSpec(kind="gmm", components=2),
    "gmm:1": GeneratorSpec(kind="gmm", components=1),
    "bootstrap:0.05": GeneratorSpec(kind="bootstrap", sigma=0.05),
    "bootstrap:0": GeneratorSpec(kind="bootstrap", sigma=0.0),
}
_RANDPROJ = FeatureMap(kind="randproj", target_dim=3, seed=7)
_RANDPROJ2 = FeatureMap(kind="randproj", target_dim=2, seed=5)


def _policy(name, metric):
    if name == "none":
        return None
    if name == "threshold":
        return SelectionPolicy(kind="threshold_decay", tau0=2.0, alpha=0.5, metric=metric)
    return SelectionPolicy(kind=name, metric=metric)


_PRODUCT = [
    (paradigm, gen, sel, mult)
    for paradigm, gen, sel, mult in itertools.product(
        ("replace", "accumulate", "accumulate_subsample"),
        _GRID_GENERATORS,
        ("none", "greedy", "random", "threshold"),
        (None, 1.5),
    )
    if not (paradigm == "accumulate" and sel != "none")
]


def _grid_config(paradigm, gen, sel, mult, fmap=None, kind="euclidean", gamma=1, **policy):
    metric = DistanceMetric(kind=kind, feature_map=fmap or FeatureMap())
    selection = _policy(sel, metric)
    if policy:
        selection = dataclasses.replace(selection, **policy)
    return LoopConfig(
        paradigm=paradigm,
        iterations=2,
        train_size=20,
        generator=_GRID_GENERATORS[gen],
        selection=selection,
        generation_multiplier=mult,
        metric=metric,
        gamma=gamma,
        master_seed=1,
    )


_FEATURE_CASES = {
    "randproj2": dict(paradigm="accumulate_subsample", gen="gmm:2", sel="threshold", mult=None, fmap=_RANDPROJ2),
    "randproj2-sq-gamma2": dict(
        paradigm="replace", gen="bootstrap:0.05", sel="greedy", mult=1.5, fmap=_RANDPROJ2, kind="sqeuclidean",
        gamma=2,
    ),
    "randproj2-accumulate": dict(paradigm="accumulate", gen="gaussian", sel="none", mult=None, fmap=_RANDPROJ2),
    "randproj": dict(paradigm="replace", gen="gmm:1", sel="random", mult=None, fmap=_RANDPROJ),
    "randproj-sq": dict(
        paradigm="accumulate_subsample", gen="bootstrap:0", sel="threshold", mult=1.5, fmap=_RANDPROJ,
        kind="sqeuclidean",
    ),
    "greedy-initial-index": dict(paradigm="replace", gen="gaussian", sel="greedy", mult=None, initial_index=0),
    "threshold-initial-index": dict(
        paradigm="accumulate_subsample", gen="bootstrap:0.05", sel="threshold", mult=None, initial_index=3,
        gamma=2,
    ),
    "random-initial-index": dict(paradigm="replace", gen="gmm:2", sel="random", mult=1.5, initial_index=5),
}


class TestTraceFormatMatchesHandWrittenWriter:
    @pytest.mark.parametrize("paradigm, gen, sel, mult", _PRODUCT)
    def test_product_grid(self, paradigm, gen, sel, mult):
        self.check(_grid_config(paradigm, gen, sel, mult))

    @pytest.mark.parametrize("case", sorted(_FEATURE_CASES))
    def test_feature_map_and_initial_index_cases(self, case):
        self.check(_grid_config(**_FEATURE_CASES[case]))

    @staticmethod
    def check(config):
        trace = run_loop(config, _GRID_REAL)
        expected = reference_trace_to_json(trace)
        assert trace_to_json(trace, canonical=True) == expected
        # A trace the hand-written writer produced reads back to the same bytes.
        assert trace_to_json(trace_from_json(expected), canonical=True) == expected

    def test_non_canonical_header_reads_back(self):
        trace = run_loop(_grid_config("replace", "gmm:2", "threshold", None), _GRID_REAL)
        text = trace_to_json(trace_from_json(trace_to_json(trace)), canonical=True)
        assert text == reference_trace_to_json(trace)

    def test_analysis_documents_match_hand_written_ones(self):
        a = run_loop(_grid_config("accumulate_subsample", "bootstrap:0.05", "greedy", None), _GRID_REAL)
        b = run_loop(_grid_config("accumulate_subsample", "bootstrap:0.05", "random", None), _GRID_REAL)
        summary = compare_traces(a, b)
        old_comparison = {
            "schema_version": 1,
            "iterations": summary.iterations,
            "deltas": {k: list(v) for k, v in summary.deltas.items()},
            "mean_delta": dict(summary.mean_delta),
            "dominance": dict(summary.dominance),
        }
        new_comparison = {"schema_version": SCHEMA_VERSION, **to_doc(summary)}
        assert json.dumps(new_comparison, indent=2) == json.dumps(old_comparison, indent=2)
        report = correlate_trace([a, b])
        old_correlation = {
            "schema_version": 1,
            "r": report.r,
            "point_count": report.point_count,
            "excluded_count": report.excluded_count,
        }
        new_correlation = {"schema_version": SCHEMA_VERSION, **to_doc(report)}
        assert json.dumps(new_correlation, indent=2) == json.dumps(old_correlation, indent=2)


class TestToDoc:
    def test_generator_writes_the_fields_of_its_kind(self):
        assert to_doc(GeneratorSpec(kind="gaussian", sigma=1.0)) == {"kind": "gaussian", "seed": 0}
        assert to_doc(GeneratorSpec(kind="gmm")) == {
            "kind": "gmm", "seed": 0, "components": 1, "max_iters": 200, "tol": 1e-8
        }
        assert to_doc(GeneratorSpec(kind="bootstrap", components=3)) == {"kind": "bootstrap", "seed": 0, "sigma": 0.0}

    def test_unknown_keys_are_rejected(self):
        cfg = bootstrap_config(iterations=1, selection=SelectionPolicy(kind="greedy"))
        text = trace_to_json(run_loop(cfg, blob_data(25, 60)), canonical=True)
        for path in (("records", 0), ("records", 0, "entropy"), ("config",), ("config", "generator"),
                     ("config", "selection"), ("config", "selection", "metric"), ("config", "metric"),
                     ("config", "metric", "feature_map"), ("real_reference",)):
            doc = json.loads(text)
            node = doc
            for key in path:
                node = node[key]
            node["unexpected"] = 1
            with pytest.raises(FormatError, match="not the one its trace writes"):
                trace_from_json(json.dumps(doc))


# --- a trace reads only if it writes back to itself ---------------------------

def _canonical_doc(config, real):
    return json.loads(trace_to_json(run_loop(config, real), canonical=True))


def _rebuild_estimate(entropy: dict) -> None:
    """Set an edited entropy document's estimate to the one its other fields
    build, so that only the edit itself can be refused."""
    entropy["estimate"] = EntropyReport(**{k: v for k, v in entropy.items() if k != "estimate"}).estimate


_READ_REAL = blob_data(29, 80)
_FUZZ_REAL = blob_data(31, 40, d=3)
_FUZZ_RANDPROJ = DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=5))
# Named loop runs whose canonical traces the tests below read. "read" is
# replace, gmm:2 and threshold decay, the trace the edits below damage; the
# others, one of each paradigm, seed the edit fuzz, and one projects 3 -> 2
# and selects by threshold decay.
_NAMED_RUNS = {
    "read": (bootstrap_config(
        train_size=40,
        generator=GeneratorSpec(kind="gmm", components=2),
        selection=SelectionPolicy(kind="threshold_decay", tau0=1.0, alpha=0.5),
        generation_multiplier=1.5,
    ), _READ_REAL),
    "replace-randproj-threshold": (bootstrap_config(
        train_size=20,
        generator=GeneratorSpec(kind="gmm", components=2),
        metric=_FUZZ_RANDPROJ,
        selection=SelectionPolicy(kind="threshold_decay", metric=_FUZZ_RANDPROJ, tau0=0.5, alpha=0.5, initial_index=2),
    ), _FUZZ_REAL),
    "accumulate-bootstrap0": (bootstrap_config(paradigm="accumulate", train_size=20, gamma=2), _FUZZ_REAL),
    "subsample-greedy": (bootstrap_config(
        paradigm="accumulate_subsample", train_size=20, selection=SelectionPolicy(kind="greedy"),
        generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
    ), _FUZZ_REAL),
}
_FUZZ_NAMES = sorted(set(_NAMED_RUNS) - {"read"})


@functools.cache
def named_trace(name):
    """The canonical trace text of _NAMED_RUNS[name], run on first use, so
    that a broken engine fails the tests that read it and not the module's
    collection."""
    config, real = _NAMED_RUNS[name]
    return trace_to_json(run_loop(config, real), canonical=True)


def _bump_upper_covariance(doc):
    doc["real_reference"]["covariance"][0][1] += 1


def _set_off_diagonal_covariance_100(doc):
    cov = doc["real_reference"]["covariance"]
    cov[0][1] = cov[1][0] = 100.0


def _set_record_gamma_with_its_estimate(doc):
    entropy = doc["records"][0]["entropy"]
    entropy["gamma"] = 2
    _rebuild_estimate(entropy)


# Single edits of the "read" trace, each a trace run_loop could not have written.
_REFUSED_EDITS = {
    # The round trip refuses these: the trace does not write the edited document.
    "gamma-missing": lambda doc: doc["config"].pop("gamma"),
    "master-seed-missing": lambda doc: doc["config"].pop("master_seed"),
    "selection-missing": lambda doc: doc["config"].pop("selection"),
    "multiplier-missing": lambda doc: doc["config"].pop("generation_multiplier"),
    "pool-cap-missing": lambda doc: doc["config"].pop("pool_cap"),
    "gmm-sigma-added": lambda doc: doc["config"]["generator"].update(sigma=0.5),
    "covariance-nan-string": lambda doc: doc["real_reference"]["covariance"][0].__setitem__(1, "nan"),
    "trace-cov-plus-one": lambda doc: doc["real_reference"].update(trace_cov=doc["real_reference"]["trace_cov"] + 1),
    # A derived value of equal value but another JSON type: false for 0, 0.0 for 0.
    "duplicate-count-false": lambda doc: doc["records"][0].update(duplicate_count=False),
    "duplicate-count-float": lambda doc: doc["records"][0].update(duplicate_count=0.0),
    # A round trip cannot see these; the record checks refuse them.
    "mean-scalar": lambda doc: doc["real_reference"].update(mean=3.0),
    "mean-entry-true": lambda doc: doc["real_reference"]["mean"].__setitem__(0, True),
    "covariance-asymmetric": _bump_upper_covariance,
    "covariance-indefinite": _set_off_diagonal_covariance_100,
    "record-gamma-with-its-estimate": _set_record_gamma_with_its_estimate,
    "selection-metric-other": lambda doc: doc["config"]["selection"]["metric"].update(kind="sqeuclidean"),
    "proportion-unknown-label": lambda doc: doc["records"][0].update(source_proportions={"a": 1.0}),
    "proportion-above-one": lambda doc: doc["records"][0].update(source_proportions={"syn1": 2.0}),
    "proportion-later-label": lambda doc: doc["records"][0].update(source_proportions={"syn2": 1.0}),
    "proportions-sum-below-one": lambda doc: doc["records"][0].update(source_proportions={"real": 0.5, "syn1": 0.25}),
    "train-size-huge": lambda doc: doc["config"].update(train_size=10**12),
    "train-size-beyond-float": lambda doc: doc["config"].update(train_size=10**400),
    "multiplier-huge": lambda doc: doc["config"].update(generation_multiplier=10**12),
}


class TestTraceWritesBackToItself:
    def test_canonical_trace_reads(self):
        text = named_trace("read")
        assert to_doc(trace_from_json(text)) == {k: v for k, v in json.loads(text).items() if k != "schema_version"}

    @pytest.mark.parametrize("name", list(_REFUSED_EDITS))
    def test_edit_is_format_error_and_exit_2(self, tmp_path, capsys, name):
        doc = json.loads(named_trace("read"))
        _REFUSED_EDITS[name](doc)
        text = json.dumps(doc)
        with pytest.raises(FormatError):
            trace_from_json(text)
        path = tmp_path / "t.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["analyze", "--mode", "compare", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a trace file") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "paradigm, selection, sizes",
        [
            ("replace", None, [60, 60, 60]),
            ("replace", "greedy", [40, 40, 40]),
            ("accumulate_subsample", None, [40, 40, 40]),
            ("accumulate_subsample", "greedy", [40, 40, 40]),
            ("accumulate", None, [140, 200, 260]),
        ],
    )
    def test_record_sizes_are_the_ones_the_config_implies(self, paradigm, selection, sizes):
        policy = None if selection is None else SelectionPolicy(kind=selection)
        config = bootstrap_config(
            paradigm=paradigm, train_size=40, selection=policy, generation_multiplier=1.5,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
        )
        doc = _canonical_doc(config, _READ_REAL)
        assert [r["entropy"]["size"] for r in doc["records"]] == sizes
        for shift in (-1, 1):
            edited = json.loads(json.dumps(doc))
            entropy = edited["records"][1]["entropy"]
            entropy["size"] += shift
            _rebuild_estimate(entropy)
            with pytest.raises(FormatError, match="size"):
                trace_from_json(json.dumps(edited))

    def test_accumulate_reads_any_real_size_from_train_size_up(self):
        # An accumulating trace says how much real data it started from: its
        # first record's size less one generation, at least train_size.
        config = bootstrap_config(paradigm="accumulate", train_size=40, generator=GeneratorSpec(kind="bootstrap"))
        doc = _canonical_doc(config, _READ_REAL.rows(np.arange(40)))
        for shift, reads in ((0, True), (5, True), (-1, False)):
            edited = json.loads(json.dumps(doc))
            for record in edited["records"]:
                record["entropy"]["size"] += shift
                _rebuild_estimate(record["entropy"])
            if reads:
                assert [r.entropy.size for r in trace_from_json(json.dumps(edited)).records] == [
                    80 + shift, 120 + shift, 160 + shift
                ]
            else:
                with pytest.raises(FormatError, match="size"):
                    trace_from_json(json.dumps(edited))

    def test_pool_cap_is_checked_at_the_real_size_the_trace_implies(self):
        # 80 real points and three generations of 40: a pool of 200.
        config = bootstrap_config(paradigm="accumulate", train_size=40, generator=GeneratorSpec(kind="bootstrap"))
        doc = _canonical_doc(config, _READ_REAL)
        doc["config"]["pool_cap"] = 200
        trace_from_json(json.dumps(doc))
        doc["config"]["pool_cap"] = 199
        with pytest.raises(FormatError, match="pool_cap"):
            trace_from_json(json.dumps(doc))

    def test_entropy_dim_is_the_feature_space_dimension(self):
        # run_loop measures real_reference and every record in feature space:
        # randproj 3 -> 2 gives 2 for both.
        metric = DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=5))
        doc = _canonical_doc(bootstrap_config(train_size=40, metric=metric), blob_data(30, 40, d=3))
        assert len(doc["real_reference"]["mean"]) == 2
        assert {r["entropy"]["dim"] for r in doc["records"]} == {2}
        entropy = doc["records"][0]["entropy"]
        entropy["dim"] = 3
        _rebuild_estimate(entropy)
        with pytest.raises(FormatError, match="dim"):
            trace_from_json(json.dumps(doc))

    def test_accumulate_proportions_read_every_label_up_to_their_iteration(self):
        config = bootstrap_config(paradigm="accumulate", train_size=40, generator=GeneratorSpec(kind="bootstrap"))
        doc = _canonical_doc(config, _READ_REAL)
        assert list(doc["records"][2]["source_proportions"]) == ["real", "syn1", "syn2", "syn3"]
        trace_from_json(json.dumps(doc))
        doc["records"][1]["source_proportions"]["syn3"] = 0.0
        with pytest.raises(FormatError, match="source_proportions"):
            trace_from_json(json.dumps(doc))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 10**7), min_size=1, max_size=60))
def test_proportions_of_any_partition_sum_to_one_within_the_reader_bound(counts):
    # The reader holds source_proportions to |fsum - 1| <= 2**-52. Each is a
    # correctly rounded quotient, so the exact sum is within 2**-53 of 1.
    total = sum(counts)
    assert abs(math.fsum(c / total for c in counts) - 1.0) <= 2**-53


def _node_paths(node, path=()):
    """The path of every key and list item below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_FUZZ_KEYS = sorted(
    {f.name for cls in (LoopConfig, GeneratorSpec, SelectionPolicy, DistanceMetric, FeatureMap, IterationRecord,
                        EntropyReport, metrics.MomentSummary) for f in dataclasses.fields(cls)}
    | {"real", "syn1", "syn2", "syn3", "syn4", "schema_version", "timestamp", "host"}
)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([10**12, 10**400, -(10**400)]),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3), st.lists(st.floats(-2, 2), max_size=3),
    st.just({}),
)


@st.composite
def edited_traces(draw):
    """A canonical trace document with one key or leaf deleted, added or
    given a value of a random JSON type."""
    doc = json.loads(named_trace(draw(st.sampled_from(_FUZZ_NAMES))))
    # Each section in turn, so that the short real_reference is edited as
    # often as the records.
    section = draw(st.sampled_from(list(doc)))
    *above, key = draw(st.sampled_from([path for path in _node_paths(doc) if path[0] == section]))
    parent = functools.reduce(operator.getitem, above, doc)
    edit = draw(st.sampled_from(["delete", "add", "retype"]))
    if edit == "delete":
        del parent[key]
    elif edit == "retype":
        parent[key] = draw(_JSON_VALUES)
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(_FUZZ_KEYS))] = draw(_JSON_VALUES)
    else:
        parent.insert(key, draw(_JSON_VALUES))
    return doc


def assert_run_loop_could_write(trace):
    """The record laws of every trace run_loop writes, stated apart from the
    reader."""
    config, rr, records = trace.config, trace.real_reference, trace.records
    d = config.metric.feature_map.output_dim(rr.mean.size)
    assert rr.mean.shape == (d,) and rr.covariance.shape == (d, d) and not rr.mean.flags.writeable
    assert rr.trace_cov == float(np.trace(rr.covariance))
    assert np.array_equal(rr.covariance, rr.covariance.T) and np.linalg.eigvalsh(rr.covariance).min() >= -1e-9
    assert [r.iteration for r in records] == list(range(1, config.iterations + 1))
    g = math.ceil(config.generation_multiplier * config.train_size)
    first = records[0].entropy.size
    for r in records:
        e = r.entropy
        assert (r.duplicate_count, e.gamma, e.dim) == (e.duplicate_count, config.gamma, d)
        if config.paradigm == "accumulate":
            assert e.size == first + g * (r.iteration - 1) and first >= config.train_size + g
        else:
            assert e.size == (g if config.paradigm == "replace" and config.selection is None else config.train_size)
        assert set(r.source_proportions) <= {"real", *(f"syn{i}" for i in range(1, r.iteration + 1))}
        assert all(0 <= p <= 1 for p in r.source_proportions.values())
        assert abs(math.fsum(r.source_proportions.values()) - 1.0) <= 2**-52
        rebuilt = EntropyReport(gamma=e.gamma, duplicate_count=e.duplicate_count,
                                log_distance_sum=e.log_distance_sum, size=e.size, dim=e.dim)
        assert repr(e.estimate) == repr(rebuilt.estimate)


@settings(max_examples=300, deadline=None)
@given(edited_traces())
def test_an_edited_trace_reads_only_as_a_trace_run_loop_could_write(doc):
    # The reader may refuse an edit or accept it, but only with a FormatError
    # and only as the trace the edited document is: nothing else may raise.
    try:
        trace = trace_from_json(json.dumps(doc))
    except FormatError:
        return
    assert to_doc(trace) == {k: v for k, v in doc.items() if k not in ("schema_version", "timestamp", "host")}
    assert_run_loop_could_write(trace)


_SHARED_REAL = blob_data(26, 300)
_SHARED_MAPS = {
    "identity": FeatureMap(),
    "randproj": FeatureMap(kind="randproj", target_dim=3, seed=7),
    "randproj2": FeatureMap(kind="randproj", target_dim=2, seed=5),
}
_SHARED_RUNS = {
    # accumulate with a memorizer: duplicates, and a pool on the grid path
    "accumulate": dict(generator=GeneratorSpec(kind="bootstrap", sigma=0.0)),
    "accumulate_subsample": dict(
        generator=GeneratorSpec(kind="bootstrap", sigma=0.05), selection="greedy"
    ),
    "replace": dict(generator=GeneratorSpec(kind="gmm", components=2), selection="threshold"),
}


class TestSharedNeighborSearch:
    @pytest.mark.parametrize("fmap", sorted(_SHARED_MAPS))
    @pytest.mark.parametrize("kind", ["euclidean", "sqeuclidean"])
    @pytest.mark.parametrize("gamma", [1, 3])
    @pytest.mark.parametrize("paradigm", sorted(_SHARED_RUNS))
    def test_matches_separate_searches(self, monkeypatch, paradigm, gamma, kind, fmap):
        # The reference is the loop before the search was shared: kl_entropy
        # and mnnd each search D_{n+1} themselves.
        metric = DistanceMetric(kind=kind, feature_map=_SHARED_MAPS[fmap])
        run = dict(_SHARED_RUNS[paradigm])
        selection = run.pop("selection", None)
        cfg = LoopConfig(
            paradigm=paradigm,
            iterations=2,
            train_size=150,
            selection=_policy(selection, metric) if selection else None,
            metric=metric,
            gamma=gamma,
            master_seed=4,
            **run,
        )
        shared = trace_to_json(run_loop(cfg, _SHARED_REAL), canonical=True)
        entropy, mean_nn = looper.kl_entropy, looper.mnnd
        monkeypatch.setattr(looper, "kl_entropy", lambda ps, g, m, squared: entropy(ps, g, m))
        monkeypatch.setattr(looper, "mnnd", lambda ps, m, squared: mean_nn(ps, m))
        assert shared == trace_to_json(run_loop(cfg, _SHARED_REAL), canonical=True)

    def test_set_too_small_for_gamma_meets_the_entropy_check(self):
        cfg = bootstrap_config(train_size=3, gamma=3)
        with pytest.raises(InsufficientPointsError, match="entropy with gamma=3 needs at least 4 points, got 3"):
            run_loop(cfg, blob_data(27, 10))


def all_pairs_kth(ps, k, metric=EUCLIDEAN, split=None):
    """kth_nn_within by brute force over all pairs of rows; a split is not read."""
    x = metric.feature_map.apply(ps.data)
    found = [metric.from_squared(brute_sq(x, x, j, True)) for j in (k if isinstance(k, tuple) else (k,))]
    return tuple(found) if isinstance(k, tuple) else found[0]


def all_pairs_cross(queries, refs, metric=EUCLIDEAN, split=None):
    """nn_cross by brute force over all pairs of rows; a split is not read."""
    d2 = brute_sq(metric.feature_map.apply(queries.data), metric.feature_map.apply(refs.data), 1, False)
    return metric.from_squared(d2)


class TestAllPairsReferee:
    @staticmethod
    def assert_matches_all_pairs(monkeypatch, paradigm, sigma, d, gamma, metric=EUCLIDEAN):
        # The trace must have the bytes of a loop whose every neighbor comes
        # from all pairs.
        cfg = LoopConfig(
            paradigm=paradigm,
            iterations=3,
            train_size=150,
            generator=GeneratorSpec(kind="bootstrap", sigma=sigma),
            metric=metric,
            gamma=gamma,
            master_seed=6,
        )
        real = blob_data(28, 400, d)
        fast = trace_to_json(run_loop(cfg, real), canonical=True)
        monkeypatch.setattr(metrics, "kth_nn_within", all_pairs_kth)
        monkeypatch.setattr(metrics, "nn_cross", all_pairs_cross)
        assert trace_to_json(run_loop(cfg, real), canonical=True) == fast

    @pytest.mark.parametrize("gamma", [1, 3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_memorizing_loop_matches_all_pairs_search(self, monkeypatch, d, gamma):
        # A bootstrap:0 accumulate loop fills its pool with copies: the
        # exact-match pass answers each generation, and each iteration
        # reuses the search of the last.
        self.assert_matches_all_pairs(monkeypatch, "accumulate", 0.0, d, gamma)

    @pytest.mark.parametrize("gamma", [1, 4])
    @pytest.mark.parametrize("paradigm, sigma", [("accumulate", 0.05), ("replace", 0.0)])
    def test_loop_matches_all_pairs_search(self, monkeypatch, paradigm, sigma, gamma):
        # New points at every iteration (sigma 0.05), and a replaced
        # training set of copies.
        self.assert_matches_all_pairs(monkeypatch, paradigm, sigma, 2, gamma)

    @pytest.mark.parametrize("gamma", [1, 3])
    def test_memorizing_loop_under_a_projection_matches_all_pairs_search(self, monkeypatch, gamma):
        # The loop grows each pool's split from the last one's, so the
        # features of the pool's leading rows must be the last pool's: a
        # row's features are a function of the row.
        metric = DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=5))
        self.assert_matches_all_pairs(monkeypatch, "accumulate", 0.0, 4, gamma, metric)
