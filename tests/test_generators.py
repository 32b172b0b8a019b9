import math

import numpy as np
import pytest

from collapselab import (
    ConfigError,
    GeneratorSpec,
    InsufficientPointsError,
    NumericalError,
    PointSet,
    fit,
    sample,
)
from collapselab.generators import _COV_FLOOR, FitDiagnostics, _kmeanspp_centers
from collapselab.metrics import _mle_moments


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
        assert gen.mean[0] == 0.0
        assert gen.covariance[0, 0] == 1.0

    def test_population_normalization(self):
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet([[0.0], [1.0]]))
        assert gen.covariance[0, 0] == 0.25

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
        assert np.max(np.abs(out.data.mean(axis=0) - gen.mean)) <= 0.02
        emp_cov = np.cov(out.data, rowvar=False, bias=True)
        assert np.max(np.abs(emp_cov - gen.covariance)) <= 0.05

    def test_refit_contraction_law(self):
        # one resampling step shrinks the covariance trace by (m-1)/m on average
        ratios = []
        for rep in range(200):
            rng = np.random.default_rng([21, rep])
            base = fit(GeneratorSpec(kind="gaussian"), PointSet(rng.standard_normal((100, 2))))
            refit = fit(GeneratorSpec(kind="gaussian"), sample(base, 100, seed=rep))
            ratios.append(
                float(np.trace(refit.covariance)) / float(np.trace(base.covariance))
            )
        assert abs(float(np.mean(ratios)) - 0.99) <= 0.02

    def test_needs_two_points(self):
        with pytest.raises(InsufficientPointsError):
            fit(GeneratorSpec(kind="gaussian"), PointSet([[1.0]]))


class TestGmm:
    def test_single_component_matches_gaussian(self):
        rng = np.random.default_rng(3)
        data = PointSet(rng.standard_normal((80, 2)) * 2.0 + 5.0)
        g1 = fit(GeneratorSpec(kind="gmm", components=1), data)
        g0 = fit(GeneratorSpec(kind="gaussian"), data)
        np.testing.assert_allclose(g1.means[0], g0.mean, rtol=1e-10)
        np.testing.assert_allclose(g1.covariances[0], g0.covariance, rtol=1e-8, atol=1e-12)
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
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
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

    @pytest.mark.parametrize("k", [4, 9])
    @pytest.mark.parametrize("d", [2, 3, 8])
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

    def test_zero_samples_rejected(self):
        gen = fit(GeneratorSpec(kind="gaussian"), PointSet([[-1.0], [1.0]]))
        with pytest.raises(ConfigError):
            sample(gen, 0, seed=0)
