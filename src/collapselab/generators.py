"""Toy generative models for loop experiments.

Three fit/sample families, all deterministic given their seeds:

  gaussian  -- maximum-likelihood Gaussian (mean, 1/n covariance), sampled
               through the symmetric eigendecomposition of the covariance.
  gmm       -- full-covariance Gaussian mixture fit by EM with a seeded
               k-means++-style initialization; collapsing component
               covariances are floored at 1e-9 I and flagged.
  bootstrap -- resample training rows with replacement and add isotropic
               Gaussian jitter sigma; sigma=0 is a pure memorizer whose
               samples are bit-exact training rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InsufficientPointsError, NumericalError, check_fields, is_number
from .metrics import _mle_moments, _psd_clip
from .tensorset import PointSet

# The fields each kind uses besides kind and seed, in the order the CLI
# spec kind:v1:v2... gives them; a trace writes only these.
GENERATOR_FIELDS = {"gaussian": (), "gmm": ("components", "max_iters", "tol"), "bootstrap": ("sigma",)}
_COV_FLOOR = 1e-9


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    seed: int = 0
    components: int = 1
    max_iters: int = 200
    tol: float = 1e-8
    sigma: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in GENERATOR_FIELDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.components < 1:
            raise ConfigError(f"components must be >= 1, got {self.components}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if not 0.0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be non-negative and finite, got {self.sigma}")


@dataclass(frozen=True)
class FitDiagnostics:
    """EM trajectory: mean log-likelihood per iteration, floor flag, convergence."""

    log_likelihoods: tuple[float, ...] = ()
    floored: bool = False
    converged: bool = True


@dataclass(frozen=True, eq=False)
class FittedGenerator:
    spec: GeneratorSpec
    dim: int
    # gaussian
    mean: np.ndarray | None = None
    covariance: np.ndarray | None = None
    # gmm
    weights: np.ndarray | None = None
    means: np.ndarray | None = None
    covariances: np.ndarray | None = None
    # bootstrap
    training: np.ndarray | None = None
    diagnostics: FitDiagnostics = field(default_factory=FitDiagnostics)


def _sample_transform(cov: np.ndarray) -> np.ndarray:
    """Matrix A with A A^T = cov, from the symmetric eigendecomposition."""
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(_psd_clip(w, "covariance"))


def _kmeanspp_centers(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    d2 = np.square(data - centers[0]).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if not math.isfinite(total):
            raise NumericalError("squared distances overflow in the k-means++ initialization")
        if total <= 0.0:
            # All mass sits on already-chosen centers; fall back to uniform.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = data[idx]
        np.minimum(d2, np.square(data - centers[j]).sum(axis=1), out=d2)
    return centers


def _fit_gmm(spec: GeneratorSpec, data: np.ndarray) -> FittedGenerator:
    n, d = data.shape
    k = spec.components
    rng = np.random.default_rng(spec.seed)
    means = _kmeanspp_centers(data, k, rng)
    _, base_cov = _mle_moments(data)
    if not np.all(np.isfinite(base_cov)):
        raise NumericalError("component covariance is not finite")
    floored = bool(np.linalg.eigvalsh(base_cov).min() < _COV_FLOOR)
    if floored:
        base_cov = base_cov + _COV_FLOOR * np.eye(d)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)

    # Every stack below is filled by numpy loops that run along the n data
    # rows, never along the short d or k axes, and every value is the result
    # of the same rounded operations, in the same order, as in the loop over
    # one component at a time (tests/test_generators.py, reference_gmm). Two
    # layouts carry bits and must stay:
    #   - the covariance matmul reads both operands from (k, n, d) arrays; a
    #     C-ordered (k, d, n) left operand sends BLAS down another path, which
    #     rounds differently;
    #   - the row sum of exp(log_comp - top) runs over an (n, k) array: from
    #     8 terms up numpy sums pairwise, so an axis-0 sum of (k, n) differs.
    columns = np.ascontiguousarray(data.T)
    centered = np.empty((k, n, d))
    weighted = np.empty((k, n, d))
    shifted = np.empty((n, k))
    resp = np.empty((n, k))

    def center(means: np.ndarray) -> None:
        for j in range(d):
            np.subtract(columns[j], means[:, j, None], out=centered[:, :, j])

    # The M-step centres on the means the next E-step uses, so centered
    # carries over from one iteration to the next.
    center(means)
    history: list[float] = []
    converged = False
    for _ in range(spec.max_iters):
        sign, logdet = np.linalg.slogdet(covs)
        if not np.all(sign > 0):
            raise NumericalError("component covariance lost positive definiteness")
        terms = np.linalg.solve(covs, centered.transpose(0, 2, 1))
        terms *= centered.transpose(0, 2, 1)
        # log_comp is built in place: the Mahalanobis sum one coordinate at
        # a time, then the log normalizer and the log weight.
        log_comp = terms[:, 0].copy()
        for j in range(1, d):
            log_comp += terms[:, j]
        log_comp += d * math.log(2.0 * math.pi) + logdet[:, None]
        log_comp *= -0.5
        log_comp += np.log(weights)[:, None]
        top = log_comp.max(axis=0)
        np.subtract(log_comp, top, out=shifted.T)
        log_norm = top + np.log(np.exp(shifted, out=shifted).sum(axis=1))
        ll = float(log_norm.mean())
        np.subtract(log_comp, log_norm, out=resp.T)
        np.exp(resp, out=resp)

        mass = resp.sum(axis=0)
        weights = mass / n
        means = (resp.T @ data) / mass[:, None]
        center(means)
        for j in range(d):
            np.multiply(resp.T, centered[:, :, j], out=weighted[:, :, j])
        covs = weighted.transpose(0, 2, 1) @ centered / mass[:, None, None]
        covs = (covs + covs.transpose(0, 2, 1)) / 2.0
        if not np.all(np.isfinite(covs)):
            raise NumericalError("component covariance is not finite")
        low = np.linalg.eigvalsh(covs).min(axis=1) < _COV_FLOOR
        if low.any():
            covs[low] += _COV_FLOOR * np.eye(d)
            floored = True

        history.append(ll)
        if len(history) > 1 and abs(history[-1] - history[-2]) < spec.tol:
            converged = True
            break

    return FittedGenerator(
        spec=spec,
        dim=d,
        weights=weights,
        means=means,
        covariances=covs,
        diagnostics=FitDiagnostics(tuple(history), floored=floored, converged=converged),
    )


def fit(spec: GeneratorSpec, training: PointSet) -> FittedGenerator:
    data = training.data
    if spec.kind == "gaussian":
        if training.size < 2:
            raise InsufficientPointsError(f"gaussian fit needs at least 2 points, got {training.size}")
        mean, cov = _mle_moments(data)
        return FittedGenerator(spec=spec, dim=training.dim, mean=mean, covariance=cov)
    if spec.kind == "gmm":
        if training.size < spec.components:
            raise InsufficientPointsError(
                f"gmm fit needs at least {spec.components} points, got {training.size}"
            )
        return _fit_gmm(spec, data)
    if training.size < 1:
        raise InsufficientPointsError("bootstrap fit needs at least 1 point")
    return FittedGenerator(spec=spec, dim=training.dim, training=data)


def sample(gen: FittedGenerator, m: int, seed: int) -> PointSet:
    """Draw m points; rows come back tagged real (0), callers retag."""
    if not is_number(m, int) or m < 1:
        raise ConfigError(f"sample count must be a positive integer, got {m!r}")
    rng = np.random.default_rng(seed)
    if gen.spec.kind == "gaussian":
        a = _sample_transform(gen.covariance)
        z = rng.standard_normal((m, gen.dim))
        return PointSet(gen.mean + z @ a.T)
    if gen.spec.kind == "gmm":
        comp = rng.choice(gen.weights.shape[0], size=m, p=gen.weights)
        z = rng.standard_normal((m, gen.dim))
        out = np.empty((m, gen.dim), dtype=np.float64)
        for j in range(gen.weights.shape[0]):
            mask = comp == j
            if not mask.any():
                continue
            a = _sample_transform(gen.covariances[j])
            out[mask] = gen.means[j] + z[mask] @ a.T
        return PointSet(out)
    idx = rng.integers(0, gen.training.shape[0], size=m)
    out = gen.training[idx]
    if gen.spec.sigma > 0.0:
        out = out + gen.spec.sigma * rng.standard_normal((m, gen.dim))
    return PointSet(out)
