import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from collapselab import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    EmptyDatasetError,
    EntropyReport,
    EPS_FLOOR,
    EUCLIDEAN,
    FeatureMap,
    DistanceMetric,
    InsufficientPointsError,
    MomentSummary,
    NumericalError,
    PointSet,
    digamma,
    frechet_gaussian_distance,
    generalization_score,
    kl_entropy,
    kth_nn_within,
    log_unit_ball_volume,
    mnnd,
    moment_summary,
    pearson,
)

LN_2PIE = math.log(2.0 * math.pi * math.e)


class TestKlEntropy:
    def test_two_point_hand_value(self):
        est = kl_entropy(PointSet([[0.0], [1.0]]), gamma=1).estimate
        assert est == pytest.approx(1.0 + math.log(2.0), abs=1e-12)

    def test_report_fields(self):
        rep = kl_entropy(PointSet([[0.0], [1.0], [3.0]]), gamma=1)
        assert rep.size == 3
        assert rep.dim == 1
        assert rep.gamma == 1
        assert rep.duplicate_count == 0
        # eps = (1, 1, 2)
        assert rep.log_distance_sum == pytest.approx(math.log(2.0), abs=1e-15)

    def test_reconstruction_is_bit_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ps = PointSet(rng.standard_normal((int(rng.integers(5, 60)), int(rng.integers(1, 5)))))
            rep = kl_entropy(ps, gamma=int(rng.integers(1, 4)))
            rebuilt = EntropyReport(gamma=rep.gamma, duplicate_count=rep.duplicate_count,
                                    log_distance_sum=rep.log_distance_sum, size=rep.size, dim=rep.dim)
            assert rebuilt.estimate.hex() == rep.estimate.hex()

    @pytest.mark.parametrize("name", ["gamma", "size", "dim"])
    def test_report_refuses_a_count_beyond_the_float_range(self, name):
        # The constructor computes the estimate in floats, so it refuses such
        # a count with ConfigError, not a bare OverflowError.
        fields = dict(gamma=1, duplicate_count=0, log_distance_sum=0.0, size=2, dim=1)
        with pytest.raises(ConfigError, match="float range"):
            EntropyReport(**{**fields, name: 10**400})

    def test_duplicates_clamped_and_counted(self):
        rep = kl_entropy(PointSet([[0.0], [0.0], [1.0]]), gamma=1)
        assert rep.duplicate_count == 2
        assert rep.log_distance_sum == pytest.approx(2.0 * math.log(EPS_FLOOR), abs=1e-12)
        assert rep.estimate < -10.0

    def test_gamma_two_matches_manual_assembly(self):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.standard_normal((50, 2)))
        rep = kl_entropy(ps, gamma=2)
        eps = kth_nn_within(ps, k=2)
        manual = (
            digamma(50.0)
            - digamma(2.0)
            + log_unit_ball_volume(2)
            + (2.0 / 50.0) * float(np.sum(np.log(eps)))
        )
        assert rep.estimate == pytest.approx(manual, rel=1e-12)

    def test_scale_shift_law(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((80, 3))
        base = kl_entropy(PointSet(data)).estimate
        for s in (0.1, 2.0, 25.0):
            scaled = kl_entropy(PointSet(data * s)).estimate
            assert scaled == pytest.approx(base + 3.0 * math.log(s), abs=1e-9)

    def test_feature_map_changes_working_dimension(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((40, 6))
        fm = FeatureMap(kind="randproj", target_dim=2, seed=9)
        metric = DistanceMetric(feature_map=fm)
        direct = kl_entropy(PointSet(data), metric=metric)
        projected = kl_entropy(PointSet(fm.apply(data)))
        assert direct.dim == 2
        assert direct.estimate == pytest.approx(projected.estimate, rel=1e-12)

    def test_squared_metric_gives_the_euclidean_report(self):
        # The estimator takes logs of radii; squared radii once gave -4.32
        # here against a true entropy of log(2*pi*e) = 2.838.
        rng = np.random.default_rng(4)
        data = rng.standard_normal((4000, 2))
        data[:50] = data[50]
        ps = PointSet(data)
        fm = FeatureMap(kind="randproj", target_dim=2, seed=9)
        for gamma in (1, 3):
            pairs = ((EUCLIDEAN, DistanceMetric("sqeuclidean")), (DistanceMetric(feature_map=fm), DistanceMetric("sqeuclidean", fm)))
            for euclid, squared in pairs:
                a, b = kl_entropy(ps, gamma, euclid), kl_entropy(ps, gamma, squared)
                assert a == b
                assert a.estimate.hex() == b.estimate.hex()
        clean = PointSet(data[50:])
        assert kl_entropy(clean, metric=DistanceMetric("sqeuclidean")).estimate == pytest.approx(LN_2PIE, abs=0.05)

    def test_uniform_single_seed_sanity(self):
        rng = np.random.default_rng(6)
        est = kl_entropy(PointSet(rng.uniform(0.0, 1.0, size=(4096, 1)))).estimate
        assert abs(est) <= 0.1

    def test_consistency_ladder_2d_normal(self):
        # mean over 32 seeds approaches ln(2*pi*e); sampling noise halves
        # per size step, so the frozen seed set keeps the ordering stable
        errors = []
        for n in (512, 2048, 8192):
            vals = []
            for seed in range(32):
                rng = np.random.default_rng([11, n, seed])
                vals.append(kl_entropy(PointSet(rng.standard_normal((n, 2)))).estimate)
            errors.append(abs(float(np.mean(vals)) - LN_2PIE))
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] <= 0.05
        assert errors[2] <= 0.01

    def test_validation(self):
        ps = PointSet([[0.0], [1.0]])
        with pytest.raises(DomainError):
            kl_entropy(ps, gamma=0)
        with pytest.raises(InsufficientPointsError):
            kl_entropy(ps, gamma=2)


class TestGeneralizationScore:
    def test_hand_values(self):
        train = PointSet([[0.0], [1.0]])
        assert generalization_score(PointSet([[0.5]]), train) == 0.5
        assert generalization_score(PointSet([[2.0]]), train) == 1.0

    def test_zero_iff_every_point_memorized(self):
        train = PointSet([[0.25], [0.75]])
        same = PointSet([[0.75], [0.25]])
        assert generalization_score(same, train) == 0.0
        nudged = PointSet([[0.75], [0.25 + 1e-9]])
        assert generalization_score(nudged, train) > 0.0

    def test_mean_of_min_distances(self):
        train = PointSet([[0.0], [10.0]])
        gen = PointSet([[1.0], [8.0], [10.0]])
        assert generalization_score(gen, train) == pytest.approx((1.0 + 2.0 + 0.0) / 3.0, rel=1e-15)

    def test_scale_law(self):
        rng = np.random.default_rng(7)
        train = rng.standard_normal((30, 2))
        gen = rng.standard_normal((10, 2))
        base = generalization_score(PointSet(gen), PointSet(train))
        scaled = generalization_score(PointSet(gen * 3.0), PointSet(train * 3.0))
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            generalization_score(PointSet([[0.0]]), PointSet([[0.0, 1.0]]))

    def test_empty_sets(self):
        for generated, training in ((np.empty((0, 2)), [[0.0, 1.0]]), ([[0.0, 1.0]], np.empty((0, 2)))):
            with pytest.raises(EmptyDatasetError):
                generalization_score(PointSet(generated), PointSet(training))


class TestMnnd:
    def test_hand_values(self):
        assert mnnd(PointSet([[0.0], [1.0], [3.0]])) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert mnnd(PointSet([[0.0], [1.0]])) == 1.0

    def test_scale_law(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((25, 3))
        assert mnnd(PointSet(data * 7.0)) == pytest.approx(7.0 * mnnd(PointSet(data)), rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(InsufficientPointsError):
            mnnd(PointSet([[0.0]]))


class TestJensenBound:
    def test_lower_bound_holds_on_random_sets(self):
        # exp((H_1 - B)/d) <= MNND, B = psi(n) - psi(1) + log c_d
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(20, 200))
            d = int(rng.integers(1, 4))
            ps = PointSet(rng.standard_normal((n, d)) * rng.uniform(0.05, 20.0))
            rep = kl_entropy(ps, gamma=1)
            assert rep.duplicate_count == 0
            bound = math.exp(
                (rep.estimate - (digamma(float(n)) - digamma(1.0) + log_unit_ball_volume(d))) / d
            )
            assert mnnd(ps) - bound >= -1e-12


class TestMoments:
    def test_hand_values(self):
        ms = moment_summary(PointSet([[0.0], [1.0]]))
        assert ms.mean[0] == 0.5
        # population normalization, not n-1
        assert ms.covariance[0, 0] == 0.25
        assert ms.trace_cov == 0.25

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(10)
        ms = moment_summary(PointSet(rng.standard_normal((50, 4))))
        assert np.array_equal(ms.covariance, ms.covariance.T)
        assert np.min(np.linalg.eigvalsh(ms.covariance)) >= -1e-12
        assert ms.trace_cov == pytest.approx(float(np.trace(ms.covariance)), rel=1e-15)

    @pytest.mark.parametrize(
        "data",
        [
            np.random.default_rng(2).standard_normal((30, 2)) * 1e155,
            np.random.default_rng(3).standard_normal((30, 3)) * 1e155,
            # Each entry is 1.44e308, finite; symmetrizing doubles it past the largest float.
            [[-1.2e154, -1.2e154], [1.2e154, 1.2e154]],
        ],
        ids=["1e155-d2", "1e155-d3", "finite-until-symmetrized"],
    )
    def test_overflowing_covariance_is_numerical_error(self, data):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            moment_summary(PointSet(data))


class TestFrechetGaussian:
    def test_pinned_one_dimensional_values(self):
        m01 = moment_summary(PointSet([[-1.0], [1.0]]))  # mean 0, var 1
        m31 = moment_summary(PointSet([[2.0], [4.0]]))  # mean 3, var 1
        m04 = moment_summary(PointSet([[-2.0], [2.0]]))  # mean 0, var 4
        assert frechet_gaussian_distance(m01, m31) == pytest.approx(9.0, abs=1e-10)
        assert frechet_gaussian_distance(m04, m01) == pytest.approx(1.0, abs=1e-10)
        assert frechet_gaussian_distance(m01, m01) == pytest.approx(0.0, abs=1e-10)

    def test_matches_scipy_sqrtm_route(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            d = int(rng.integers(1, 6))
            a = moment_summary(PointSet(rng.standard_normal((60, d)) @ rng.uniform(0.2, 1.5, (d, d)) + rng.uniform(-3, 3, d)))
            b = moment_summary(PointSet(rng.standard_normal((60, d)) @ rng.uniform(0.2, 1.5, (d, d)) + rng.uniform(-3, 3, d)))
            cross = scipy.linalg.sqrtm(a.covariance @ b.covariance)
            ref = float(
                np.sum((a.mean - b.mean) ** 2)
                + np.trace(a.covariance + b.covariance - 2.0 * np.real(cross))
            )
            ours = frechet_gaussian_distance(a, b)
            assert ours == pytest.approx(max(ref, 0.0), rel=1e-8, abs=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(12)
        a = moment_summary(PointSet(rng.standard_normal((40, 3)) * 2.0 + 1.0))
        b = moment_summary(PointSet(rng.standard_normal((40, 3))))
        assert frechet_gaussian_distance(a, b) == pytest.approx(
            frechet_gaussian_distance(b, a), rel=1e-10
        )

    def test_never_negative(self):
        rng = np.random.default_rng(13)
        a = moment_summary(PointSet(rng.standard_normal((30, 2))))
        jitter = moment_summary(PointSet(rng.standard_normal((30, 2)) * (1.0 + 1e-14)))
        assert frechet_gaussian_distance(a, jitter) >= 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_cross_term_is_numerical_error(self, d):
        # Covariances near 1e300 are finite, but S_a^{1/2} S_b S_a^{1/2} is
        # not: at d = 2 it used to give NaN and at d = 3 a failed
        # eigensolver, each after overflow warnings.
        rng = np.random.default_rng(40 + d)
        a = moment_summary(PointSet(rng.standard_normal((60, d)) * 1e150))
        b = moment_summary(PointSet(rng.standard_normal((60, d)) * 1e150))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="cross term is not finite"):
                frechet_gaussian_distance(a, b)

    def test_overflowing_mean_term_is_numerical_error(self):
        # Collapsed sets with finite means 2e160 apart: the cross term is 0
        # but the squared distance of the means is inf.
        a = moment_summary(PointSet([[1e160], [1e160]]))
        b = moment_summary(PointSet([[-1e160], [-1e160]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="distance is not finite"):
                frechet_gaussian_distance(a, b)

    def test_failed_eigensolver_is_numerical_error(self, monkeypatch):
        def fail(_matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        a = moment_summary(PointSet([[-1.0], [1.0]]))
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            frechet_gaussian_distance(a, a)

    @staticmethod
    def orthogonal_lines(d, scale):
        """Moments of 500 points on a random line through the origin, and of
        500 on a line orthogonal to it: two rank-1 covariances."""
        rng = np.random.default_rng(d)
        u, v = np.linalg.qr(rng.standard_normal((d, d)))[0].T[:2]
        return [moment_summary(PointSet(np.outer(rng.standard_normal(500), w) * scale)) for w in (u, v)]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e8])
    def test_collapsed_sets_at_any_scale_are_measured(self, d, scale):
        # With an absolute -1e-9 tolerance, F(A, A) raised at 1e3 (d = 3,
        # cross term) and at 1e6 (d = 2 and 3). F(A, A) is 0, and F(A, B)
        # for A orthogonal to B is the mean term plus both traces. Over 60
        # seeds F(A, A) reached 2.2e-15 of the trace. F(A, B) reached
        # 3.6e-8 relative: the cross term's roundoff, about eps times
        # lambda_a lambda_b, enters through a square root.
        a, b = self.orthogonal_lines(d, scale)
        assert 0.0 <= frechet_gaussian_distance(a, a) <= 1e-13 * a.trace_cov
        expect = float(np.square(a.mean - b.mean).sum()) + a.trace_cov + b.trace_cov
        assert frechet_gaussian_distance(a, b) == pytest.approx(expect, rel=1e-6)
        assert frechet_gaussian_distance(b, a) == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_indefinite_covariance_is_refused_at_any_scale(self, scale):
        # A negative eigenvalue 1e-6 of the largest one: the absolute
        # tolerance let it pass at 1e-6.
        good = moment_summary(PointSet(np.random.default_rng(5).standard_normal((40, 2)) * scale))
        bad = MomentSummary(mean=np.zeros(2), covariance=np.diag([1.0, -1e-6]) * scale**2)
        for pair in ((good, bad), (bad, good)):
            with pytest.raises(NumericalError, match="not positive semidefinite"):
                frechet_gaussian_distance(*pair)

    def test_non_psd_covariance_rejected(self):
        good = moment_summary(PointSet([[-1.0], [1.0]]))
        bad = MomentSummary(mean=np.zeros(1), covariance=np.array([[-1.0]]))
        with pytest.raises(NumericalError):
            frechet_gaussian_distance(good, bad)
        with pytest.raises(NumericalError):
            frechet_gaussian_distance(bad, good)


class TestPearson:
    def test_pinned_value(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == 0.9819805060619659

    def test_exact_affine_correlation(self):
        x = [0.0, 1.0, 2.0, 5.0]
        assert pearson(x, [2.0 * v + 3.0 for v in x]) == 1.0
        assert pearson(x, [-2.0 * v + 1.0 for v in x]) == -1.0

    def test_bounded(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            assert -1.0 <= pearson(x, y) <= 1.0

    def test_errors(self):
        with pytest.raises(DimensionError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InsufficientPointsError):
            pearson([1.0], [2.0])
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
