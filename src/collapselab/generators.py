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
        if total <= 0.0:
            # All mass sits on already-chosen centers; fall back to uniform.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = data[idx]
        np.minimum(d2, np.square(data - centers[j]).sum(axis=1), out=d2)
    return centers


def _gaussian_log_density(data: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = data.shape[1]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise NumericalError("component covariance lost positive definiteness")
    solved = np.linalg.solve(cov, (data - mean).T).T
    maha = np.einsum("ij,ij->i", data - mean, solved)
    return -0.5 * (d * math.log(2.0 * math.pi) + logdet + maha)


def _fit_gmm(spec: GeneratorSpec, data: np.ndarray) -> FittedGenerator:
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

    history: list[float] = []
    converged = False
    for _ in range(spec.max_iters):
        log_comp = np.stack(
            [np.log(weights[j]) + _gaussian_log_density(data, means[j], covs[j]) for j in range(k)],
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
