import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from collapselab import (
    ConfigError,
    GeneratorSpec,
    InsufficientPointsError,
    NumericalError,
    PointSet,
    fit,
    sample,
)
import collapselab.generators as generators
from collapselab.generators import _COV_FLOOR, FitDiagnostics, _kmeanspp_centers, _solve_2d, _solve_2d_matches_solve
from collapselab.metrics import _mle_moments, _psd_clip


def reference_log_density(data, mean, cov):
    d = data.shape[1]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise NumericalError("component covariance lost positive definiteness")
    solved = np.linalg.solve(cov, (data - mean).T).T
    maha = np.einsum("ij,ij->i", data - mean, solved)
    return -0.5 * (d * math.log(2.0 * math.pi) + logdet + maha)


def reference_gmm(spec, data):
    """The EM loop over one component at a time that the batched fit
    replaced, kept as its oracle: (weights, means, covariances, diagnostics)."""
    n, d = data.shape
    k = spec.components
    rng = np.random.default_rng(spec.seed)
    means = _kmeanspp_centers(data, k, rng)
    _, base_cov = _mle_moments(data)
    floored = bool(np.linalg.eigvalsh(base_cov).min() < _COV_FLOOR)
    if floored:
        base_cov = base_cov + _COV_FLOOR * np.eye(d)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)

    history = []
    converged = False
    for _ in range(spec.max_iters):
        log_comp = np.stack(
            [np.log(weights[j]) + reference_log_density(data, means[j], covs[j]) for j in range(k)],
            axis=1,
        )
        top = log_comp.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(log_comp - top).sum(axis=1))
        ll = float(log_norm.mean())
        resp = np.exp(log_comp - log_norm[:, None])

        mass = resp.sum(axis=0)
        weights = mass / n
        means = (resp.T @ data) / mass[:, None]
        for j in range(k):
            centered = data - means[j]
            cov_j = (resp[:, j][:, None] * centered).T @ centered / mass[j]
            cov_j = (cov_j + cov_j.T) / 2.0
            if np.linalg.eigvalsh(cov_j).min() < _COV_FLOOR:
                cov_j = cov_j + _COV_FLOOR * np.eye(d)
                floored = True
            covs[j] = cov_j

        history.append(ll)
        if len(history) > 1 and abs(history[-1] - history[-2]) < spec.tol:
            converged = True
            break
    return weights, means, covs, FitDiagnostics(tuple(history), floored=floored, converged=converged)


class TestSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(kind="vae")

    def test_gmm_fields_checked(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(kind="gmm", components=0)
        with pytest.raises(ConfigError):
            GeneratorSpec(kind="gmm", components=2, max_iters=0)
        with pytest.raises(ConfigError):
            GeneratorSpec(kind="gmm", components=2, tol=-1.0)

    def test_bootstrap_sigma_checked(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(kind="bootstrap", sigma=-0.1)

    @pytest.mark.parametrize("field", ["seed", "components", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, "3", True, None])
    def test_integer_fields_must_be_int(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GeneratorSpec(kind="gmm", **{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            GeneratorSpec(kind="gaussian", seed=-1)

    def test_fractional_components_never_reach_fit(self):
        with pytest.raises(ConfigError):
            fit(GeneratorSpec(kind="gmm", components=2.5), PointSet(np.zeros((4, 1))))

    @pytest.mark.parametrize("field", ["sigma", "tol"])
    @pytest.mark.parametrize("value", [True, "0.1", None, [0.1]])
    def test_float_fields_must_be_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GeneratorSpec(kind="gmm" if field == "tol" else "bootstrap", **{field: value})

    @pytest.mark.parametrize("field", ["sigma", "tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GeneratorSpec(kind="gmm" if field == "tol" else "bootstrap", **{field: value})


class TestGaussian:
    def test_mle_moments_hand_value(self):
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet([[-1.0], [1.0]]))
        assert gen.means[0][0] == 0.0
        assert gen.covariances[0][0, 0] == 1.0

    def test_population_normalization(self):
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet([[0.0], [1.0]]))
        assert gen.covariances[0][0, 0] == 0.25

    def test_sampling_deterministic(self):
        rng = np.random.default_rng(0)
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet(rng.standard_normal((50, 3))))
        a = sample(gen, 20, seed=5)
        b = sample(gen, 20, seed=5)
        assert np.array_equal(a.data, b.data)
        c = sample(gen, 20, seed=6)
        assert not np.array_equal(a.data, c.data)

    def test_sample_moments_match_fit(self):
        rng = np.random.default_rng(1)
        source = rng.standard_normal((400, 2)) @ np.array([[2.0, 0.3], [0.0, 0.5]]) + [1.0, -2.0]
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet(source))
        out = sample(gen, 65536, seed=2)
        assert np.max(np.abs(out.data.mean(axis=0) - gen.means[0])) <= 0.02
        emp_cov = np.cov(out.data, rowvar=False, bias=True)
        assert np.max(np.abs(emp_cov - gen.covariances[0])) <= 0.05

    def test_refit_contraction_law(self):
        # one resampling step shrinks the covariance trace by (m-1)/m on average
        ratios = []
        for rep in range(200):
            rng = np.random.default_rng([21, rep])
            base = fit(GeneratorSpec(kind="gaussian"), PointSet(rng.standard_normal((100, 2))))
            refit = fit(GeneratorSpec(kind="gaussian"), sample(base, 100, seed=rep))
            ratios.append(
                float(np.trace(refit.covariances[0])) / float(np.trace(base.covariances[0]))
            )
        assert abs(float(np.mean(ratios)) - 0.99) <= 0.02

    def test_fit_is_a_one_component_mixture(self):
        data = np.random.default_rng(7).standard_normal((40, 3))
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet(data))
        mean, cov = _mle_moments(data)
        assert gen.weights.tolist() == [1.0]
        assert gen.means.tobytes() == mean[None].tobytes()
        assert gen.covariances.tobytes() == cov[None].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 17])
    @pytest.mark.parametrize("m", [1, 7, 1000])
    def test_sample_bits_match_the_single_gaussian_formula(self, d, m):
        # The sampler before the gaussian became a one-component mixture:
        # no component labels, then mean + z @ a.T on the whole draw.
        for seed in range(5):
            rng = np.random.default_rng([d, seed])
            data = rng.standard_normal((30, d)) @ rng.standard_normal((d, d))
            gen = fit(GeneratorSpec(kind="gaussian"), PointSet(data))
            w, v = np.linalg.eigh(gen.covariances[0])
            a = v * np.sqrt(_psd_clip(w, "covariance"))
            z = np.random.default_rng(seed).standard_normal((m, d))
            assert sample(gen, m, seed).data.tobytes() == (gen.means[0] + z @ a.T).tobytes()

    def test_needs_two_points(self):
        with pytest.raises(InsufficientPointsError):
            fit(GeneratorSpec(kind="gaussian"), PointSet([[1.0]]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_data_is_numerical_error(self, d):
        # The covariance of points near 1e155 overflows; sampling from it
        # would give NaN rows at d = 2 and fail in eigh at d = 3.
        data = np.random.default_rng(d).standard_normal((30, d)) * 1e155
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            fit(GeneratorSpec(kind="gaussian"), PointSet(data))


class TestGmm:
    def test_single_component_matches_gaussian(self):
        rng = np.random.default_rng(3)
        data = PointSet(rng.standard_normal((80, 2)) * 2.0 + 5.0)
        g1 = fit(GeneratorSpec(kind="gmm", components=1), data)
        g0 = fit(GeneratorSpec(kind="gaussian"), data)
        np.testing.assert_allclose(g1.means[0], g0.means[0], rtol=1e-10)
        np.testing.assert_allclose(g1.covariances[0], g0.covariances[0], rtol=1e-8, atol=1e-12)
        assert g1.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(4)
        blobs = np.concatenate(
            [rng.standard_normal((60, 2)) - 5.0, rng.standard_normal((60, 2)) + 5.0]
        )
        gen = fit(GeneratorSpec(kind="gmm", components=2, seed=1), PointSet(blobs))
        lls = gen.diagnostics.log_likelihoods
        assert len(lls) >= 2
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-9
        assert gen.diagnostics.converged

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(5)
        blobs = np.concatenate(
            [rng.standard_normal((100, 1)) * 0.3 - 10.0, rng.standard_normal((100, 1)) * 0.3 + 10.0]
        )
        gen = fit(GeneratorSpec(kind="gmm", components=2, seed=2), PointSet(blobs))
        centers = sorted(float(m[0]) for m in gen.means)
        assert centers[0] == pytest.approx(-10.0, abs=0.3)
        assert centers[1] == pytest.approx(10.0, abs=0.3)
        assert min(gen.weights) >= 0.35

    def test_covariance_floor_flagged_on_degenerate_data(self):
        data = PointSet(np.zeros((10, 2)))
        gen = fit(GeneratorSpec(kind="gmm", components=1), data)
        assert gen.diagnostics.floored
        out = sample(gen, 5, seed=0)
        assert np.all(np.isfinite(out.data))

    def test_sampling_deterministic(self):
        rng = np.random.default_rng(6)
        blobs = np.concatenate([rng.standard_normal((40, 2)), rng.standard_normal((40, 2)) + 8.0])
        gen = fit(GeneratorSpec(kind="gmm", components=2, seed=3), PointSet(blobs))
        assert np.array_equal(sample(gen, 30, seed=9).data, sample(gen, 30, seed=9).data)

    def test_needs_enough_points(self):
        with pytest.raises(InsufficientPointsError):
            fit(GeneratorSpec(kind="gmm", components=5), PointSet(np.zeros((4, 1))))

    def test_a_floor_lost_in_rounding_is_numerical_error(self):
        # Three iterations fit with no floor. The fourth M-step leaves one
        # component with an eigenvalue near -1.8e7 beside one near 1.9e24, so
        # the 1e-9 floor is lost in rounding and the fit stops there, before
        # an E-step on that matrix leaves the component without mass.
        data = PointSet(np.random.default_rng(22).standard_normal((5, 3)) * 1e12)
        assert not fit(GeneratorSpec(kind="gmm", components=2, max_iters=3), data).diagnostics.floored
        with pytest.raises(NumericalError, match="component covariance lost positive definiteness"):
            fit(GeneratorSpec(kind="gmm", components=2, max_iters=4), data)

    def test_a_component_left_without_mass_is_numerical_error(self):
        # Six rows within 1e-14 of 1e100. After three iterations component 1
        # has condition number near 2e18, and the fourth E-step gives rows
        # log densities up to 8e46 under it, so every responsibility of
        # components 0 and 3 underflows to 0: their mass is 0 and their
        # means are 0/0.
        data = PointSet(1e100 * (1.0 + 1e-14 * np.random.default_rng(25).standard_normal((6, 3))))
        with np.errstate(invalid="ignore"):
            assert fit(GeneratorSpec(kind="gmm", components=4, max_iters=3), data).diagnostics.floored
            with pytest.raises(NumericalError, match="component covariance is not finite"):
                fit(GeneratorSpec(kind="gmm", components=4, max_iters=4), data)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_data_is_numerical_error(self, d, k):
        # Squared distances near 1e310 overflow: k-means++ sees an infinite
        # total at k >= 2, and the data covariance is not finite at k = 1.
        data = np.random.default_rng(d).standard_normal((30, d)) * 1e155
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            fit(GeneratorSpec(kind="gmm", components=k), PointSet(data))


def em_layouts(d, k):
    """Data sets for one (d, k): separated blobs, duplicated rows, a
    collapsed set, rank-1 data, a 1e6 offset, a 1e-7 scale, k and k + 1
    points, and a rank-1 cluster beside a full-rank one."""
    rng = np.random.default_rng([d, k])
    n = 4 * k + 7
    base = rng.standard_normal((n, d)) + 6.0 * (np.arange(n) % 3)[:, None]
    yield "blobs", base
    yield "duplicated", np.repeat(base[: -(-n // 4)], 4, axis=0)[:n]
    yield "collapsed", np.repeat(base[:1], n, axis=0)
    yield "rank1", rng.standard_normal((n, 1)) * rng.standard_normal((1, d))
    yield "offset", base + 1e6
    yield "tiny", base * 1e-7
    yield "k_points", base[:k]
    yield "k_plus_one_points", base[: k + 1]
    yield "line_beside_blob", np.concatenate([base[: n // 2, :1] * rng.standard_normal((1, d)), base[n // 2 :] + 50.0])


class TestBatchedEmMatchesComponentLoop:
    # k = 7 and k = 8 sit on either side of the fit's layout switch for the
    # sum over components (below 8 terms numpy sums left to right).
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 8, 9])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 12])
    def test_bit_identical(self, d, k):
        for name, data in em_layouts(d, k):
            # 40 iterations at the default tol, and 3 that stop unconverged.
            for max_iters, tol in ((40, 1e-8), (3, 1e-300)):
                spec = GeneratorSpec(kind="gmm", components=k, seed=d + k, max_iters=max_iters, tol=tol)
                weights, means, covs, diagnostics = reference_gmm(spec, data)
                gen = fit(spec, PointSet(data))
                assert gen.weights.tobytes() == weights.tobytes(), name
                assert gen.means.tobytes() == means.tobytes(), name
                assert gen.covariances.tobytes() == covs.tobytes(), name
                assert gen.diagnostics == diagnostics, name
            if name in ("collapsed", "tiny"):
                assert diagnostics.floored

    @pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3, 8) for k in (4, 9)] + [(2, 7), (2, 8)])
    def test_bit_identical_at_benchmark_scale(self, d, k):
        # At n = 1000 every sum over the rows runs past numpy's 128-element
        # pairwise blocks, so a layout change in any of them moves bits.
        rng = np.random.default_rng([1000, d, k])
        data = rng.standard_normal((1000, d)) + 4.0 * (np.arange(1000) % k)[:, None]
        spec = GeneratorSpec(kind="gmm", components=k, seed=d + k, max_iters=4, tol=1e-300)
        weights, means, covs, diagnostics = reference_gmm(spec, data)
        gen = fit(spec, PointSet(data))
        assert gen.weights.tobytes() == weights.tobytes()
        assert gen.means.tobytes() == means.tobytes()
        assert gen.covariances.tobytes() == covs.tobytes()
        assert gen.diagnostics == diagnostics
        assert len(diagnostics.log_likelihoods) == 4

    @pytest.mark.parametrize(
        "layout, d, k",
        [(layout, d, k) for layout in ("rank1", "collapsed") for d in (2, 3, 8) for k in (1, 3)]
        # Only the line's component turns singular.
        + [("line_beside_blob", d, 2) for d in (3, 8)],
    )
    def test_numerical_error_stays_numerical_error(self, layout, d, k):
        # At 1e150 the covariance floor is lost in rounding, so a
        # rank-deficient covariance stays singular.
        data = dict(em_layouts(d, k))[layout] * 1e150
        spec = GeneratorSpec(kind="gmm", components=k, seed=d + k, max_iters=40)
        with pytest.raises(NumericalError) as expected:
            reference_gmm(spec, data)
        with pytest.raises(NumericalError, match=str(expected.value)):
            fit(spec, PointSet(data))


@st.composite
def responsibilities(draw):
    """An (n, k) array of values in [0, 1], laid out as the fit's resp, with
    exact zeros, subnormals and ones among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((draw(st.integers(1, 3000)), draw(st.integers(2, 16)))) ** draw(st.sampled_from([1.0, 8.0, 600.0]))
    for value in (0.0, 5e-324, 2.2e-308, 1.0):
        a[rng.random(a.shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = value
    return a


@settings(max_examples=200, deadline=None)
@given(responsibilities())
def test_mass_sums_each_column_in_row_order(resp):
    # The fit's mass, from two columns up, is the row-by-row sum the
    # component loop's resp.sum(axis=0) takes.
    rows = functools.reduce(np.add, resp)
    assert np.array_equal(np.einsum("ij->j", resp).view(np.uint64), rows.view(np.uint64))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_component_has_weight_exactly_one(d):
    # Every responsibility of one component is exactly 1.0, so its mass is n
    # whatever the summation order.
    for name, data in [*em_layouts(d, 1), ("n1000", np.random.default_rng(d).standard_normal((1000, d)))]:
        gen = fit(GeneratorSpec(kind="gmm", components=1, seed=d, max_iters=5), PointSet(data))
        assert gen.weights.tolist() == [1.0], name


@st.composite
def solve_2d_cases(draw):
    """A (k, 2, 2) covariance stack and (k, 2, n) centered right-hand sides,
    laid out as the fit passes them, at a data scale from 1e-7 to 1e150.
    Each covariance is SPD, or rank one plus the 1e-9 floor, or tied
    (|a10| = |a00|, no pivot); a rotation steeper than 45 degrees makes
    getf2 pivot. Some right-hand sides hold zeros of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 5))
    n = draw(st.sampled_from([2, 3, 8, 9, 127, 1000, 1200]) | st.integers(2, 1200))
    scale = 10.0 ** draw(st.integers(-7, 150))
    covs = np.empty((k, 2, 2))
    for i in range(k):
        kind = draw(st.sampled_from(["spd", "floored", "tied"]))
        a = scale**2 * 10.0 ** rng.uniform(-2, 2)
        if kind == "tied":
            c = rng.choice([-a, a])
            covs[i] = [[a, c], [c, a * rng.uniform(1.01, 5.0)]]
            continue
        angle = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        low = 0.0 if kind == "floored" else a * 10.0 ** rng.uniform(-6, 0)
        cov = rot @ np.diag([a, low]) @ rot.T
        cov = (cov + cov.T) / 2.0
        covs[i] = cov + _COV_FLOOR * np.eye(2) if np.linalg.eigvalsh(cov).min() < _COV_FLOOR else cov
    # The fit solves only after slogdet's sign check; at large scales the
    # floor is lost in rounding and a rank-one covariance fails it.
    assume(np.all(np.linalg.slogdet(covs)[0] > 0))
    centered = rng.standard_normal((k, n, 2)) * scale
    zeros = draw(st.sampled_from([0.0, 0.1, 1.0]))
    centered[rng.random(centered.shape) < zeros] = 0.0
    if draw(st.booleans()):
        centered[rng.random(centered.shape) < zeros] = -0.0
    return covs, centered


@pytest.mark.skipif(not _solve_2d_matches_solve(), reason="this BLAS fails the probe, so the fit keeps solve")
@settings(max_examples=300, deadline=None)
@given(solve_2d_cases())
def test_solve_2d_has_the_bits_of_solve(case):
    covs, centered = case
    rhs = centered.transpose(0, 2, 1)
    # A -0.0 on the right reads as +0.0; otherwise every bit, zeros' signs included.
    assert _solve_2d(covs, rhs).tobytes() == np.linalg.solve(covs, rhs + 0.0).tobytes()


def test_replace_gmm_shaped_fit_matches_component_loop():
    # d = 2, k = 4, n = 1000 and 200 EM iterations, as the replace-gmm benchmark fits.
    rng = np.random.default_rng(7)
    data = rng.uniform(-4, 4, (4, 2))[rng.integers(0, 4, 1000)] + rng.standard_normal((1000, 2))
    spec = GeneratorSpec(kind="gmm", components=4, seed=3, max_iters=200, tol=1e-300)
    weights, means, covs, diagnostics = reference_gmm(spec, data)
    gen = fit(spec, PointSet(data))
    assert gen.weights.tobytes() == weights.tobytes()
    assert gen.means.tobytes() == means.tobytes()
    assert gen.covariances.tobytes() == covs.tobytes()
    assert gen.diagnostics == diagnostics
    assert len(diagnostics.log_likelihoods) == 200


def test_failed_probe_keeps_solve(monkeypatch):
    def refuse(covs, rhs):
        raise AssertionError("_solve_2d ran after a failed probe")

    monkeypatch.setattr(generators, "_solve_2d_matches_solve", lambda: False)
    monkeypatch.setattr(generators, "_solve_2d", refuse)
    for name, data in em_layouts(2, 3):
        spec = GeneratorSpec(kind="gmm", components=3, seed=5, max_iters=40)
        weights, means, covs, diagnostics = reference_gmm(spec, data)
        gen = fit(spec, PointSet(data))
        assert gen.means.tobytes() == means.tobytes(), name
        assert gen.covariances.tobytes() == covs.tobytes(), name
        assert gen.diagnostics == diagnostics, name


class TestBootstrap:
    def test_zero_sigma_returns_training_rows_bit_exact(self):
        rng = np.random.default_rng(7)
        training = rng.standard_normal((50, 3))
        gen = fit(GeneratorSpec(kind="bootstrap", sigma=0.0), PointSet(training))
        out = sample(gen, 200, seed=1)
        train_rows = {row.tobytes() for row in training}
        assert all(row.tobytes() in train_rows for row in out.data)

    def test_positive_sigma_never_reproduces_rows(self):
        rng = np.random.default_rng(8)
        training = rng.standard_normal((50, 3))
        gen = fit(GeneratorSpec(kind="bootstrap", sigma=0.2), PointSet(training))
        out = sample(gen, 200, seed=1)
        train_rows = {row.tobytes() for row in training}
        assert not any(row.tobytes() in train_rows for row in out.data)

    def test_distinct_fraction_after_one_step(self):
        # resampling n of n keeps about 1 - 1/e distinct rows
        fracs = []
        for seed in range(50):
            rng = np.random.default_rng([22, seed])
            gen = fit(GeneratorSpec(kind="bootstrap", sigma=0.0), PointSet(rng.standard_normal((1000, 2))))
            out = sample(gen, 1000, seed=seed)
            fracs.append(len(np.unique(out.data, axis=0)) / 1000.0)
        assert 0.612 <= float(np.mean(fracs)) <= 0.652

    def test_sampling_deterministic(self):
        gen = fit(GeneratorSpec(kind="bootstrap", sigma=0.1), PointSet(np.arange(20.0).reshape(10, 2)))
        assert np.array_equal(sample(gen, 15, seed=4).data, sample(gen, 15, seed=4).data)

    def test_needs_one_point(self):
        with pytest.raises(InsufficientPointsError):
            fit(GeneratorSpec(kind="bootstrap"), PointSet(np.empty((0, 2))))


class TestSampleContract:
    def test_sample_size_and_tags(self):
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet([[-1.0], [1.0]]))
        out = sample(gen, 7, seed=0)
        assert out.size == 7
        assert out.proportions() == {"real": 1.0}

    def test_a_component_that_draws_no_point_is_skipped(self):
        rng = np.random.default_rng(8)
        blobs = PointSet(np.concatenate([rng.standard_normal((40, 2)) - 10.0, rng.standard_normal((40, 2)) + 10.0]))
        gen = fit(GeneratorSpec(kind="gmm", components=2, seed=1), blobs)
        gen = dataclasses.replace(gen, weights=np.array([1.0, 0.0]))
        out = sample(gen, 9, seed=0)
        assert out.size == 9 and out.dim == 2
        assert out.proportions() == {"real": 1.0}
        # Every row is drawn from component 0, none from the empty one.
        near = np.square(out.data[:, None, :] - gen.means[None]).sum(axis=2).argmin(axis=1)
        assert np.isfinite(out.data).all() and not near.any()

    def test_zero_samples_rejected(self):
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet([[-1.0], [1.0]]))
        with pytest.raises(ConfigError):
            sample(gen, 0, seed=0)
