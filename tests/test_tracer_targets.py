"""The benchmark's tracer (bench/tracer.py) wraps collapselab functions by
module attribute and reads some of their parameters by name. These checks
keep those targets in place, so a refactor cannot silently break
`python3 bench/run.py --trace 1`. The tracer source is only read here."""

import dataclasses
import inspect
import itertools
import types
from pathlib import Path

import numpy as np
import pytest

import collapselab.cli as cli
import collapselab.looper as looper
import collapselab.metrics as metrics
import collapselab.neighbors as neighbors
import collapselab.tensorset as tensorset
from collapselab import (
    DistanceMetric, FeatureMap, GeneratorSpec, LoopConfig, PointSet, SelectionPolicy, run_loop, trace_to_json,
)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
PROGRAM = types.SimpleNamespace(cli=cli, looper=looper, metrics=metrics, tensorset=tensorset)
# The parameters the tracer's counts read, by span name.
COUNTED = {
    "neighbors.kth_nn_within": ("ps", "k", "metric"),
    "neighbors.nn_cross": ("queries", "refs", "metric"),
    "selection.run_policy": ("policy",),
    "tensorset.load_pointset": ("path",),
}


def load_tracer():
    """bench/tracer.py as a module, compiled from its text so no bytecode is written."""
    module = types.ModuleType("collapselab_bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def accumulate_config(gamma=1, iterations=3):
    return LoopConfig(
        paradigm="accumulate",
        iterations=iterations,
        train_size=100,
        generator=GeneratorSpec(kind="bootstrap", sigma=0.0),
        gamma=gamma,
    )


def real_data(n=200):
    return PointSet(np.random.default_rng(5).standard_normal((n, 2)))


def test_every_target_resolves():
    tracer = load_tracer()
    for module, attr, name in tracer.TARGETS:
        owner = getattr(PROGRAM, module)
        assert callable(owner.__dict__.get(attr)), f"{module}.{attr} ({name}) is gone"
        params = inspect.signature(owner.__dict__[attr]).parameters
        for param in COUNTED.get(name, ()):
            assert param in params, f"{module}.{attr} lost its parameter {param!r}"
    assert isinstance(tensorset.PointSet.__dict__["concat"], staticmethod)


def test_traced_loop_searches_each_set_once():
    tracer_mod = load_tracer()
    cfg = accumulate_config()
    untraced = trace_to_json(run_loop(cfg, real_data()), canonical=True)
    tracer = tracer_mod.Tracer()
    tracer.install(PROGRAM)
    try:
        tracer.begin(1)
        traced = trace_to_json(looper.run_loop(cfg, real_data()), canonical=True)
        tracer.end()
    finally:
        tracer.remove()
    assert traced == untraced
    assert looper.kl_entropy is metrics.kl_entropy and metrics.kth_nn_within is neighbors.kth_nn_within
    layers = tracer_mod.layer_metrics(tracer.spans)
    assert layers["neighbors.kth_nn_within.calls"] == cfg.iterations
    assert layers["neighbors.nn_cross.calls"] == cfg.iterations
    assert layers["neighbors.kth_nn_within.repeat_frac"] == 0.0


@pytest.mark.parametrize("gamma", [1, 3])
@pytest.mark.parametrize("paradigm", ["replace", "accumulate", "accumulate_subsample"])
def test_one_within_set_search_per_iteration(monkeypatch, paradigm, gamma):
    # A loop searches D_{n+1} at most once per iteration, for ranks 1 and
    # gamma. Greedy and threshold decay hand it their members' minima, which
    # are that search's rank-1 answers under every feature map, so at gamma
    # 1 it makes no search at all.
    calls = []
    search = metrics.kth_nn_within

    def spy(ps, k, metric, split=None):
        calls.append(k)
        return search(ps, k, metric, split)

    monkeypatch.setattr(metrics, "kth_nn_within", spy)
    kinds = [None] if paradigm == "accumulate" else [None, "greedy", "threshold_decay", "random"]
    fmaps = [FeatureMap(), FeatureMap(kind="randproj", target_dim=2, seed=1)]
    for kind, fmap in itertools.product(kinds, fmaps):
        metric = DistanceMetric(feature_map=fmap)
        decay = {"tau0": 2.0, "alpha": 0.5} if kind == "threshold_decay" else {}
        selection = kind and SelectionPolicy(kind=kind, metric=metric, **decay)
        cfg = dataclasses.replace(accumulate_config(gamma), paradigm=paradigm, selection=selection, metric=metric)
        calls.clear()
        run_loop(cfg, real_data())
        handed = kind in ("greedy", "threshold_decay") and gamma == 1
        assert calls == ([] if handed else [(1, gamma)] * cfg.iterations), (kind, fmap.kind)


@pytest.mark.parametrize("gamma", [1, 3])
def test_memorizing_loop_splits_each_pool_once(monkeypatch, gamma):
    # Under accumulate, run_loop splits each pool once and hands the split
    # to nn_cross, whose stack is that pool, and to kth_nn_within. Each
    # later pool is the last pool plus copies of its points, so its split
    # grows from the last one: one full split per run. The held points are
    # keyed once, at the first growth; later growths key only the rows they
    # append.
    built, grown, keyed = [], [], []
    split, grow, row_keys = neighbors._split, neighbors._grow, neighbors._row_keys

    def split_spy(x):
        built.append(x.shape[0])
        return split(x)

    def grow_spy(record, x):
        found = grow(record, x)
        if found is not None:
            grown.append(x.shape[0])
        return found

    monkeypatch.setattr(neighbors, "_split", split_spy)
    monkeypatch.setattr(neighbors, "_grow", grow_spy)
    monkeypatch.setattr(neighbors, "_row_keys", lambda x: keyed.append(x.shape[0]) or row_keys(x))
    cfg = accumulate_config(gamma, iterations=4)
    real = real_data()
    run_loop(cfg, real)
    assert len(built) == 1
    assert len(grown) == cfg.iterations - 1
    # The real rows are the pool's points (no two coincide), and each
    # generation appends train_size copies.
    assert keyed == [real.size] + [cfg.train_size] * (cfg.iterations - 1)


def test_traced_gmm_loop_counts_the_em_diagnostics(monkeypatch):
    # The tracer reads log_likelihoods, converged and floored from the
    # diagnostics of each fit's result; a renamed field fails here.
    fits = []
    fit = looper.fit

    def spy(spec, training):
        gen = fit(spec, training)
        fits.append(gen.diagnostics)
        return gen

    monkeypatch.setattr(looper, "fit", spy)
    tracer_mod = load_tracer()
    # Rank-1 data: every fit floors its covariances.
    line = PointSet(np.random.default_rng(6).standard_normal((200, 1)) * np.array([[1.0, 2.0]]))
    cfg = LoopConfig(
        paradigm="replace",
        iterations=3,
        train_size=100,
        generator=GeneratorSpec(kind="gmm", components=2, seed=1),
    )
    tracer = tracer_mod.Tracer()
    tracer.install(PROGRAM)
    try:
        tracer.begin(1)
        looper.run_loop(cfg, line)
        tracer.end()
    finally:
        tracer.remove()
    layers = tracer_mod.layer_metrics(tracer.spans)
    assert len(fits) == cfg.iterations and all(diag.floored for diag in fits)
    assert layers["generators.fit.em_iters"] == sum(len(diag.log_likelihoods) for diag in fits)
    assert layers["generators.fit.floored"] == cfg.iterations
    assert layers["generators.fit.em_converged_frac"] == sum(diag.converged for diag in fits) / len(fits)
