"""Collapse diagnostics: nearest-neighbor entropy, generalization score,
mean nearest-neighbor distance, Gaussian moments, and the Frechet distance
between moment summaries.

The entropy estimator is the gamma-th nearest-neighbor form

    H(D) = psi(n) - psi(gamma) + log c_d + (d/n) * sum_x log eps_gamma(x)

where eps_gamma(x) is the distance from x to its gamma-th neighbor within
D and c_d is the unit-ball volume. Duplicate points drive eps to zero, so
distances below EPS_FLOOR are clamped and counted: collapse shows up as a
crashing estimate plus a rising duplicate count rather than -inf.
EntropyReport and MomentSummary compute the estimate and the covariance
trace from their other fields, so neither can disagree with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    InsufficientPointsError,
    NumericalError,
    check_fields,
    is_number,
)
from .neighbors import kth_nn_within, nn_cross
from .specfun import digamma, log_unit_ball_volume
from .tensorset import EUCLIDEAN, DistanceMetric, PointSet

EPS_FLOOR = 1e-12
# Relative to the scale of its matrices, a roundoff negative eigenvalue
# reached 5.3e-16 on 500-point lines in d = 2 and 3 at scales 1 to 1e8.
_PSD_TOL = 1e-9


@dataclass(frozen=True)
class EntropyReport:
    """Entropy estimate plus the pieces it is built from; the constructor
    computes it from them, so a report is its own reconstruction."""

    estimate: float = field(init=False)
    gamma: int
    duplicate_count: int
    log_distance_sum: float
    size: int
    dim: int

    def __post_init__(self) -> None:
        check_fields(self)
        if not all(map(is_number, (self.gamma, self.size, self.dim))):
            raise ConfigError("gamma, size and dim must lie within the float range")
        if min(self.gamma, self.size, self.dim) < 1:
            raise ConfigError(f"gamma, size and dim must be >= 1, got {self.gamma}, {self.size}, {self.dim}")
        if not 0 <= self.duplicate_count <= self.size:
            raise ConfigError(f"duplicate_count must lie in [0, size {self.size}], got {self.duplicate_count}")
        estimate = digamma(self.size) - digamma(self.gamma) + log_unit_ball_volume(self.dim)
        object.__setattr__(self, "estimate", estimate + (self.dim / self.size) * self.log_distance_sum)


def kl_entropy(ps: PointSet, gamma: int = 1, metric: DistanceMetric = DistanceMetric(), squared=None) -> EntropyReport:
    """Entropy estimate of ps; `squared` holds its squared gamma-th neighbor
    distances when the caller has searched it (run_loop shares one search)."""
    if not is_number(gamma, int) or gamma < 1:
        raise DomainError(f"gamma must be a positive integer, got {gamma!r}")
    if ps.size <= gamma:
        raise InsufficientPointsError(f"entropy with gamma={gamma} needs at least {gamma + 1} points, got {ps.size}")
    if squared is None:
        squared = kth_nn_within(ps, gamma, replace(metric, kind="sqeuclidean"))
    # The estimator is defined on euclidean radii, whatever the metric's units.
    eps = EUCLIDEAN.from_squared(squared)
    clamped = eps < EPS_FLOOR
    duplicate_count = int(np.count_nonzero(clamped))
    log_sum = float(np.log(np.where(clamped, EPS_FLOOR, eps)).sum())
    dim = metric.feature_map.output_dim(ps.dim)
    return EntropyReport(
        gamma=gamma,
        duplicate_count=duplicate_count,
        log_distance_sum=log_sum,
        size=ps.size,
        dim=dim,
    )


def generalization_score(generated: PointSet, training: PointSet, metric: DistanceMetric = DistanceMetric()) -> float:
    """Mean distance from each generated point to its nearest training point.

    Zero means every generated point coincides with a training point: pure
    memorization. Self-matches are not excluded by design. nn_cross
    refuses an empty set and mismatched dimensions.
    """
    return float(nn_cross(generated, training, metric).mean())


def mnnd(ps: PointSet, metric: DistanceMetric = DistanceMetric(), squared=None) -> float:
    """Mean nearest-neighbor distance within a set, self excluded; `squared`
    as for kl_entropy, of the nearest neighbors."""
    if ps.size < 2:
        raise InsufficientPointsError(f"mean neighbor distance needs at least 2 points, got {ps.size}")
    if squared is None:
        squared = kth_nn_within(ps, 1, replace(metric, kind="sqeuclidean"))
    return float(metric.from_squared(squared).mean())


@dataclass(frozen=True, eq=False)
class MomentSummary:
    """Mean vector, maximum-likelihood (1/n) covariance, and the covariance's trace, computed on construction."""

    mean: np.ndarray
    covariance: np.ndarray
    trace_cov: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trace_cov", float(np.trace(self.covariance)))


def _mle_moments(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and symmetrized maximum-likelihood (1/n) covariance of the rows;
    a covariance that overflows is a NumericalError."""
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / data.shape[0]
    cov = (cov + cov.T) / 2.0
    if not np.all(np.isfinite(cov)):
        raise NumericalError("covariance is not finite")
    return mean, cov


def moment_summary(ps: PointSet) -> MomentSummary:
    if ps.size < 2:
        raise InsufficientPointsError(f"moment summary needs at least 2 points, got {ps.size}")
    mean, cov = _mle_moments(ps.data)
    mean.setflags(write=False)
    cov.setflags(write=False)
    return MomentSummary(mean=mean, covariance=cov)


def _psd_clip(w: np.ndarray, what: str, scale: float | None = None) -> np.ndarray:
    """Eigenvalues w of a symmetric matrix with roundoff negatives clamped to
    zero; an eigenvalue below -_PSD_TOL * scale is a NumericalError naming
    `what`. The scale defaults to max|w|, the matrix's own."""
    if w.min() < -_PSD_TOL * (np.abs(w).max() if scale is None else scale):
        raise NumericalError(f"{what} is not positive semidefinite (min eigenvalue {w.min():.3e})")
    return np.clip(w, 0.0, None)


def frechet_gaussian_distance(a: MomentSummary, b: MomentSummary) -> float:
    """Frechet distance between the Gaussians defined by two moment summaries.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken through the symmetric eigendecomposition of
    S_a^{1/2} S_b S_a^{1/2}. Eigenvalues below -1e-9 of their scale (a
    covariance's max |eigenvalue|, S_a's times S_b's for the cross term,
    whose own is about 0 when A is orthogonal to B) are an error; roundoff
    negatives clamp to zero. A cross term or distance that overflows, or an
    eigensolver that fails, is a NumericalError.
    """
    if a.mean.shape != b.mean.shape:
        raise DimensionError(f"moment summaries of dimension {a.mean.shape[0]} vs {b.mean.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            wa, va = np.linalg.eigh(a.covariance)
            wa = _psd_clip(wa, "first covariance")
            wb = _psd_clip(np.linalg.eigvalsh(b.covariance), "second covariance")
            root_a = (va * np.sqrt(wa)) @ va.T
            inner = root_a @ b.covariance @ root_a
            inner = (inner + inner.T) / 2.0
            if not np.isfinite(inner).all():
                raise NumericalError("Frechet cross term is not finite")
            wm = _psd_clip(np.linalg.eigvalsh(inner), "cross term", float(wa.max()) * float(wb.max()))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Frechet distance: {exc}") from None
        mean_term = float(np.square(a.mean - b.mean).sum())
        value = mean_term + float(np.trace(a.covariance) + np.trace(b.covariance)) - 2.0 * float(np.sqrt(wm).sum())
    if not np.isfinite(value):
        raise NumericalError("Frechet distance is not finite")
    return max(value, 0.0)


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise DimensionError(f"series of length {x.size} vs {y.size}")
    if x.size < 2:
        raise InsufficientPointsError(f"correlation needs at least 2 points, got {x.size}")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.square(xc).sum())
    syy = float(np.square(yc).sum())
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("correlation of a constant series is undefined")
    r = float(np.dot(xc, yc)) / np.sqrt(sxx * syy)
    return float(min(1.0, max(-1.0, r)))
