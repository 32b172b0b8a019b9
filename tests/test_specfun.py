import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from collapselab import (
    DomainError,
    digamma,
    log_gamma,
    log_unit_ball_volume,
)


class TestDigamma:
    def test_negative_euler_at_one(self):
        # accuracy contract is 1e-10 absolute (4-term tail series)
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-10)

    def test_pinned_values(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-10)
        assert digamma(2.0) == pytest.approx(0.4227843350984671, abs=1e-10)
        assert digamma(0.5) == pytest.approx(-1.9635100260214235, abs=1e-10)

    def test_matches_scipy_on_wide_grid(self):
        xs = np.concatenate([np.logspace(-3, 6, 400), np.linspace(0.01, 50.0, 400)])
        worst = max(abs(digamma(float(x)) - scipy.special.digamma(x)) for x in xs)
        assert worst <= 1e-10

    def test_recurrence_on_random_arguments(self):
        rng = np.random.default_rng(1234)
        for x in rng.uniform(1e-3, 100.0, size=1000):
            step = digamma(float(x) + 1.0) - digamma(float(x))
            assert step == pytest.approx(1.0 / x, rel=1e-10, abs=1e-10)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    def test_recurrence_property(self, x):
        step = digamma(x + 1.0) - digamma(x)
        assert step == pytest.approx(1.0 / x, rel=1e-9, abs=1e-9)

    @given(st.floats(min_value=0.1, max_value=1e4), st.floats(min_value=1e-3, max_value=10.0))
    def test_strictly_increasing(self, x, gap):
        assert digamma(x + gap) > digamma(x)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                digamma(bad)
        with pytest.raises(DomainError):
            digamma(float("nan"))


class TestLogGamma:
    def test_integer_factorials(self):
        for n in range(1, 20):
            assert log_gamma(float(n)) == pytest.approx(math.lgamma(n), rel=1e-13, abs=1e-13)

    def test_half_integer_reflection(self):
        # gamma(1/2) = sqrt(pi), below the reflection cutoff
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
        assert log_gamma(0.25) == pytest.approx(scipy.special.gammaln(0.25), rel=1e-12)

    def test_matches_scipy_on_grid(self):
        xs = np.concatenate([np.logspace(-3, 4, 300), np.linspace(0.05, 30.0, 300)])
        for x in xs:
            assert log_gamma(float(x)) == pytest.approx(
                scipy.special.gammaln(x), rel=1e-12, abs=1e-12
            )

    @given(st.floats(min_value=0.01, max_value=1e3))
    def test_functional_equation(self, x):
        # log gamma(x + 1) = log gamma(x) + log x
        assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-11, abs=1e-11)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.2)


class TestLogUnitBallVolume:
    def test_low_dimensions(self):
        assert log_unit_ball_volume(1) == pytest.approx(math.log(2.0), abs=1e-12)
        assert log_unit_ball_volume(2) == pytest.approx(math.log(math.pi), abs=1e-12)
        assert log_unit_ball_volume(3) == pytest.approx(math.log(4.0 * math.pi / 3.0), abs=1e-12)

    def test_volume_peaks_at_dimension_five(self):
        vols = [log_unit_ball_volume(d) for d in range(1, 14)]
        assert max(vols) == vols[4]
        for lo, hi in zip(vols[4:], vols[5:]):
            assert lo > hi
        assert vols[4] > vols[12]

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            log_unit_ball_volume(0)
        with pytest.raises(DomainError):
            log_unit_ball_volume(-2)
