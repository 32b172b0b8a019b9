"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with `pytest -s`). Tolerances are fixed here and mirror
the statistical margins measured during calibration; seeds are frozen
so every run sees the same draw.
"""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from collapselab import (
    EUCLIDEAN,
    GeneratorSpec,
    LoopConfig,
    PointSet,
    SelectionPolicy,
    correlate_trace,
    digamma,
    fit,
    frechet_gaussian_distance,
    generalization_score,
    kl_entropy,
    log_unit_ball_volume,
    mnnd,
    moment_summary,
    run_loop,
    sample,
    run_policy,
    save_pointset,
)
from collapselab.looper import ROLE_FIT, ROLE_SAMPLE, derive_seed

LN_2PIE = math.log(2.0 * math.pi * math.e)


def verdict(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def gaussian_blobs(rng, n, spread=4.0, d=2, scale=1.0):
    centers = rng.uniform(-spread, spread, size=(4, d))
    return PointSet(centers[rng.integers(0, 4, n)] + rng.standard_normal((n, d)) * scale)


def disc_blobs(rng, n, spread=4.0):
    centers = rng.uniform(-spread, spread, size=(4, 2))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    rad = np.sqrt(rng.uniform(0.0, 1.0, n))
    return PointSet(centers[rng.integers(0, 4, n)] + np.c_[rad * np.cos(ang), rad * np.sin(ang)])


def test_01_estimator_exactness():
    est = kl_entropy(PointSet([[0.0], [1.0]]), gamma=1).estimate
    err = abs(est - (1.0 + math.log(2.0)))
    assert verdict(1, "two-point entropy", err <= 1e-9, f"err={err:.3e}")


def test_02_estimator_consistency():
    start = time.monotonic()
    normal_vals, uniform_vals = [], []
    for seed in range(32):
        rng = np.random.default_rng([2, seed])
        normal_vals.append(kl_entropy(PointSet(rng.standard_normal((4096, 2)))).estimate)
        uniform_vals.append(kl_entropy(PointSet(rng.uniform(0, 1, size=(4096, 1)))).estimate)
    err_n = abs(float(np.mean(normal_vals)) - LN_2PIE)
    err_u = abs(float(np.mean(uniform_vals)))
    elapsed = time.monotonic() - start
    ok = err_n <= 0.05 and err_u <= 0.05 and elapsed < 60.0
    detail = f"normal_err={err_n:.4f} uniform_err={err_u:.4f} elapsed={elapsed:.1f}s"
    assert verdict(2, "consistency at n=4096", ok, detail)


def test_03_jensen_bound():
    rng = np.random.default_rng(3)
    worst = math.inf
    for _ in range(100):
        n = int(rng.integers(20, 200))
        d = int(rng.integers(1, 4))
        ps = PointSet(rng.standard_normal((n, d)) * rng.uniform(0.05, 20.0))
        rep = kl_entropy(ps, gamma=1)
        assert rep.duplicate_count == 0
        bound = math.exp(
            (rep.estimate - (digamma(float(n)) - digamma(1.0) + log_unit_ball_volume(d))) / d
        )
        worst = min(worst, mnnd(ps) - bound)
    assert verdict(3, "entropy lower-bounds MNND", worst >= -1e-12, f"min_slack={worst:.3e}")


def test_04_greedy_two_approximation():
    def min_pairwise(data, idx):
        return min(
            float(np.sqrt(np.sum((data[a] - data[b]) ** 2)))
            for a, b in itertools.combinations(idx, 2)
        )

    rng = np.random.default_rng(4)
    worst_ratio = math.inf
    for trial in range(50):
        data = rng.standard_normal((10, 2)) * rng.uniform(0.2, 10.0)
        opt = max(min_pairwise(data, c) for c in itertools.combinations(range(10), 4))
        got = min_pairwise(
            data, run_policy(PointSet(data), 4, SelectionPolicy(kind="greedy", seed=trial)).indices
        )
        worst_ratio = min(worst_ratio, got / opt)
    assert verdict(4, "greedy within 1/2 of optimum", worst_ratio >= 0.5 - 1e-12, f"worst_ratio={worst_ratio:.4f}")


def test_05_selection_entropy_dominance():
    start = time.monotonic()
    greedy_H, random_H = [], []
    for seed in range(20):
        rng = np.random.default_rng([5, seed])
        pool = gaussian_blobs(rng, 1024, spread=6.0)
        g = run_policy(pool, 256, SelectionPolicy(kind="greedy", seed=seed))
        r = run_policy(pool, 256, SelectionPolicy(kind="random", seed=seed))
        greedy_H.append(kl_entropy(pool.rows(g.indices)).estimate)
        random_H.append(kl_entropy(pool.rows(r.indices)).estimate)
    delta = float(np.mean(greedy_H) - np.mean(random_H))
    elapsed = time.monotonic() - start
    ok = delta > 0.0 and elapsed < 120.0
    detail = f"mean_delta={delta:.4f} elapsed={elapsed:.1f}s"
    assert verdict(5, "greedy subsets carry more entropy", ok, detail)


def test_06_threshold_decay_hand_trace():
    pool = PointSet([[0.0], [1.0], [9.0], [10.0]])
    res = run_policy(
        pool, 3, SelectionPolicy(kind="threshold_decay", tau0=5.0, alpha=0.5, initial_index=0)
    )
    vanilla = run_policy(
        pool, 3, SelectionPolicy(kind="threshold_decay", tau0=0.0, alpha=0.0, initial_index=0)
    )
    got = [int(i) for i in res.indices]
    got_vanilla = [int(i) for i in vanilla.indices]
    ok = got == [0, 2, 1] and got_vanilla == [0, 1, 2]
    assert verdict(6, "filter hand traces", ok, f"decay={got} vanilla={got_vanilla}")


def test_07_gaussian_variance_law():
    ratios = []
    for master in range(200):
        rng = np.random.default_rng([7, master])
        cfg = LoopConfig(
            paradigm="replace", iterations=20, train_size=100,
            generator=GeneratorSpec(kind="gaussian"), metric=EUCLIDEAN, master_seed=master,
        )
        trace = run_loop(cfg, PointSet(rng.standard_normal((100, 2))))
        tc = [rec.trace_cov for rec in trace.records]
        ratios.extend(b / a for a, b in zip(tc, tc[1:]))
    mean_ratio = float(np.mean(ratios))
    ok = abs(mean_ratio - 0.99) <= 0.02
    assert verdict(7, "covariance trace decays by 1/N per step", ok, f"mean_ratio={mean_ratio:.4f}")


def test_08_memorization_collapse():
    start = time.monotonic()
    # independent oracle: resampling identity chains, no metrics involved
    sim_rng = np.random.default_rng(88)
    sim_strict = 0
    sim_fracs = []
    for _ in range(2000):
        ident = np.arange(1000)
        dups = []
        for step in range(5):
            ident = ident[sim_rng.integers(0, 1000, 1000)]
            if step == 0:
                sim_fracs.append(len(np.unique(ident)) / 1000.0)
            _, counts = np.unique(ident, return_counts=True)
            dups.append(int(1000 - counts[counts == 1].size))
        if all(b > a for a, b in zip(dups, dups[1:])):
            sim_strict += 1
    sim_rate = sim_strict / 2000.0
    sim_frac = float(np.mean(sim_fracs))

    strict_both = 0
    fracs = []
    for master in range(50):
        rng = np.random.default_rng([8, master])
        real = gaussian_blobs(rng, 1000)
        cfg = LoopConfig(
            paradigm="replace", iterations=5, train_size=1000,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.0),
            metric=EUCLIDEAN, master_seed=master,
        )
        trace = run_loop(cfg, real)
        ents = [rec.entropy.estimate for rec in trace.records]
        dups = [rec.duplicate_count for rec in trace.records]
        if all(b < a for a, b in zip(ents, ents[1:])) and all(
            b > a for a, b in zip(dups, dups[1:])
        ):
            strict_both += 1
        gen = fit(
            dataclasses.replace(cfg.generator, seed=derive_seed(master, 1, ROLE_FIT)), real
        )
        first = sample(gen, 1000, derive_seed(master, 1, ROLE_SAMPLE))
        fracs.append(len(np.unique(first.data, axis=0)) / 1000.0)
    frac = float(np.mean(fracs))

    elapsed = time.monotonic() - start
    ok = (
        strict_both >= 45
        and 0.612 <= frac <= 0.652
        and sim_rate >= 0.9
        and 0.612 <= sim_frac <= 0.652
        and elapsed < 120.0
    )
    detail = (
        f"strict={strict_both}/50 distinct={frac:.4f} "
        f"oracle_rate={sim_rate:.3f} oracle_distinct={sim_frac:.4f} elapsed={elapsed:.1f}s"
    )
    assert verdict(8, "memorizer collapses support", ok, detail)


def test_09_entropy_gs_correlation():
    start = time.monotonic()
    traces = []
    for size in (380, 400, 420):
        rng = np.random.default_rng([0, size])
        real = gaussian_blobs(rng, size, spread=6.0)
        cfg = LoopConfig(
            paradigm="replace", iterations=8, train_size=size,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
            metric=EUCLIDEAN, master_seed=0,
        )
        traces.append(run_loop(cfg, real))
    report = correlate_trace(traces)
    elapsed = time.monotonic() - start
    ok = report.r >= 0.8 and report.point_count == 24 and elapsed < 180.0
    detail = f"r={report.r:.4f} elapsed={elapsed:.1f}s"
    assert verdict(9, "entropy tracks log GS across pooled runs", ok, detail)


def _mitigation_traces(master):
    rng = np.random.default_rng([77, master])
    real = disc_blobs(rng, 200)
    out = {}
    for arm in ("greedy", "random"):
        cfg = LoopConfig(
            paradigm="accumulate_subsample", iterations=8, train_size=150,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.0),
            selection=SelectionPolicy(kind=arm, seed=master),
            metric=EUCLIDEAN, master_seed=master,
        )
        out[arm] = run_loop(cfg, real)
    return out


def test_10_greedy_mitigation():
    start = time.monotonic()
    iters = 8
    dH = np.zeros((20, iters))
    dF = np.zeros((20, iters))
    for master in range(20):
        arms = _mitigation_traces(master)
        for i in range(iters):
            g, r = arms["greedy"].records[i], arms["random"].records[i]
            dH[master, i] = g.entropy.estimate - r.entropy.estimate
            dF[master, i] = g.frechet_real - r.frechet_real
    mean_dH = dH.mean(axis=0)
    final_dF = float(dF.mean(axis=0)[-1])
    elapsed = time.monotonic() - start
    ok = bool(np.all(mean_dH > 0.0)) and final_dF < 0.0 and elapsed < 300.0
    detail = (
        f"min_entropy_delta={mean_dH.min():.3f} "
        f"final_frechet_delta={final_dF:+.4f} elapsed={elapsed:.1f}s"
    )
    assert verdict(10, "greedy beats vanilla subsampling", ok, detail)


def test_11_provenance_curve():
    start = time.monotonic()
    n_real, N, iters = 600, 150, 6
    vanilla = np.zeros((20, iters))
    greedy = np.zeros((20, iters))
    for master in range(20):
        rng = np.random.default_rng([77, master])
        real = gaussian_blobs(rng, n_real)
        for arm, sink in (("random", vanilla), ("greedy", greedy)):
            cfg = LoopConfig(
                paradigm="accumulate_subsample", iterations=iters, train_size=N,
                generator=GeneratorSpec(kind="bootstrap", sigma=0.0),
                selection=SelectionPolicy(kind=arm, seed=master),
                metric=EUCLIDEAN, master_seed=master,
            )
            trace = run_loop(cfg, real)
            sink[master] = [rec.source_proportions.get("real", 0.0) for rec in trace.records]
    curve = np.array([n_real / (n_real + N * t) for t in range(1, iters + 1)])
    vanilla_dev = float(np.max(np.abs(vanilla.mean(axis=0) - curve)))
    greedy_final_lift = float(greedy.mean(axis=0)[-1] - curve[-1])
    elapsed = time.monotonic() - start
    ok = vanilla_dev <= 0.03 and greedy_final_lift > 0.0 and elapsed < 180.0
    detail = (
        f"vanilla_max_dev={vanilla_dev:.4f} "
        f"greedy_final_lift={greedy_final_lift:+.4f} elapsed={elapsed:.1f}s"
    )
    assert verdict(11, "real fraction follows pool share", ok, detail)


def test_12_frechet_exactness():
    m01 = moment_summary(PointSet([[-1.0], [1.0]]))
    m31 = moment_summary(PointSet([[2.0], [4.0]]))
    m04 = moment_summary(PointSet([[-2.0], [2.0]]))
    errs = (
        abs(frechet_gaussian_distance(m01, m01)),
        abs(frechet_gaussian_distance(m01, m31) - 9.0),
        abs(frechet_gaussian_distance(m04, m01) - 1.0),
    )
    worst = max(errs)
    assert verdict(12, "closed-form distances", worst <= 1e-10, f"max_err={worst:.3e}")


def test_13_cli_determinism(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(13)
    real = tmp_path / "real.csv"
    save_pointset(gaussian_blobs(rng, 150), real)

    outputs = []
    for blas, name in (("1", "b1"), ("2", "b2"), ("1", "b1-again")):
        prefix = tmp_path / name
        env = os.environ.copy()
        env["OPENBLAS_NUM_THREADS"] = blas
        proc = subprocess.run(
            [
                sys.executable, "-m", "collapselab", "loop",
                "--real", str(real), "--paradigm", "accumulate_subsample",
                "--iterations", "3", "--train-size", "60",
                "--generator", "bootstrap:0.05", "--selection", "greedy",
                "--seed", "13", "--canonical", "--out", str(prefix),
            ],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (prefix.with_suffix(".json").read_bytes(), prefix.with_suffix(".csv").read_bytes())
        )
    elapsed = time.monotonic() - start
    ok = outputs[0] == outputs[1] == outputs[2] and elapsed < 60.0
    records = json.loads(outputs[0][0])["records"]
    detail = f"records={len(records)} runs=3 elapsed={elapsed:.1f}s"
    assert verdict(13, "loop reruns are byte-identical", ok, detail)
