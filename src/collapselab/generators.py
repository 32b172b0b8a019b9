"""Toy generative models for loop experiments.

Three fit/sample families, all deterministic given their seeds:

  gaussian  -- maximum-likelihood Gaussian (mean, 1/n covariance), kept as
               a one-component mixture.
  gmm       -- full-covariance Gaussian mixture fit by EM with a seeded
               k-means++-style initialization; collapsing component
               covariances are floored at 1e-9 I, flagged, and refused if
               still not positive definite. At d = 2 the E-step solves with
               two batched matmuls that give the bits of np.linalg.solve
               (_solve_2d), once a one-time probe has seen them agree on
               this BLAS; otherwise, and at d != 2 or n = 1, it calls solve.
               The M-step sums each component's responsibilities in row
               order through einsum, the bits of the per-component loop's
               column sum. A mixture samples each component through the
               symmetric eigendecomposition of its covariance.
  bootstrap -- resample training rows with replacement and add isotropic
               Gaussian jitter sigma; sigma=0 is a pure memorizer whose
               samples are bit-exact training rows.
"""

from __future__ import annotations

import functools
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
    # gaussian and gmm
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


def _solve_2d(covs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve(covs, rhs + 0.0) for a (k, 2, 2) stack and (k, 2, n)
    right-hand sides, n >= 2, bit for bit on a BLAS that passes
    _solve_2d_matches_solve.

    LAPACK's dgesv factors each matrix with getf2. The pivot row p is row 1
    when |a10| > |a00| and row 0 otherwise; q is the other row. The factors
    r0 = 1/a_p0, l = a_q0 r0 and r1 = 1/(a_q1 - l a_p1) are unfused (trsm
    keeps the reciprocal of each diagonal), and the two triangular solves
    give x1 = fma(-l, b_p, b_q) r1 and x0 = fma(-a_p1, x1, b_p) r0. numpy has
    no fma, but the dgemm kernel behind a batched matmul sums its K axis in
    order with FMA from a zeroed register, so [[0, 1], [1, -l]] @ [b_q; b_p]
    gives [b_p; fma(-l, b_p, b_q)] and [[1, -a_p1], [0, 1]] @ [b_p; x1] gives
    [fma(-a_p1, x1, b_p); x1]. The register adds +0.0 to each first term, so
    a -0.0 on the right reads as +0.0; x1 is copied, not taken from the
    second product, so it keeps the sign of a zero.

    No pivot is subnormal in a fit: the 1e-9 covariance floor keeps
    |a_p0| >= a00 >= ~1e-9, so getf2 never takes its divide branch. The fit
    keeps slogdet and its sign check, which refuse a singular stack first.
    """
    k, _, n = rhs.shape
    swapped = np.empty((k, 2, n))
    work = np.empty((k, 2, n))
    lower = np.zeros((k, 2, 2))
    lower[:, 0, 1] = lower[:, 1, 0] = 1.0
    upper = np.zeros((k, 2, 2))
    upper[:, 0, 0] = upper[:, 1, 1] = 1.0
    scale = np.empty((2, k, 1))
    for i, (p, q) in enumerate(covs.tolist()):
        if abs(q[0]) > abs(p[0]):
            p, q = q, p
            swapped[i] = rhs[i]
        else:
            swapped[i, 0] = rhs[i, 1]
            swapped[i, 1] = rhs[i, 0]
        scale[0, i] = r0 = 1.0 / p[0]
        l = q[0] * r0
        scale[1, i] = 1.0 / (q[1] - l * p[1])
        lower[i, 1, 1] = -l
        upper[i, 0, 1] = -p[1]
    np.matmul(lower, swapped, out=work)
    work[:, 1] *= scale[1]
    np.matmul(upper, work, out=swapped)
    swapped[:, 0] *= scale[0]
    swapped[:, 1] = work[:, 1]
    return swapped


@functools.cache
def _solve_2d_matches_solve() -> bool:
    """Whether _solve_2d gives np.linalg.solve's bits here, on a fixed stack:
    an unpivoted, a pivoted, a tied and a floored matrix against 37 columns,
    every fifth one zero. A BLAS that does not fuse, or that pivots
    otherwise, keeps solve."""
    covs = np.array([[[2.0, 0.6], [0.6, 1.5]], [[0.5, 1.5], [1.5, 5.0]], [[3.0, -3.0], [-3.0, 4.0]], _COV_FLOOR * np.eye(2)])
    rhs = np.random.default_rng(2).standard_normal((4, 2, 37)) * np.array([1.0, 1e3, 1e-3, 1e-5])[:, None, None]
    rhs[:, :, ::5] = 0.0
    return _solve_2d(covs, rhs).tobytes() == np.linalg.solve(covs, rhs).tobytes()


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

    # Every stack below is filled by numpy loops that run along the n data
    # rows, never along the short d or k axes, and every value is the result
    # of the same rounded operations, in the same order, as in the loop over
    # one component at a time (tests/test_generators.py, reference_gmm). The
    # sums over components and rows carry bits through their layouts:
    #   - the covariance matmul reads both operands from (k, n, d) arrays; a
    #     C-ordered (k, d, n) left operand sends BLAS down another path, which
    #     rounds differently;
    #   - the oracle sums exp(log_comp - top) along each row of an (n, k)
    #     array. numpy sums fewer than 8 terms left to right and from 8 up
    #     pairwise, so below 8 components the (k, n) stack summed over axis
    #     0 gives the same bits at a fraction of the cost; from 8 up the
    #     stack is a (k, n) view of an (n, k) array, which numpy sums along
    #     its rows in memory order;
    #   - mass sums each column of the (n, k) resp in row order, as the
    #     oracle's resp.sum(axis=0) does: einsum adds down the rows for
    #     k >= 2, at a third of the reduce's cost, and at k = 1 every
    #     responsibility is exactly 1.0 (log_comp - log_norm is 0), so any
    #     order gives n.
    # At d = 2 and n >= 2 the E-step solves with _solve_2d once the
    # one-time probe has passed; at n = 1 LAPACK takes a one-column path
    # that rounds otherwise. _solve_2d reads a -0.0 in centered (a -0.0
    # coordinate at a mean of exactly +0.0) as +0.0. That can flip only the
    # sign of a zero Mahalanobis sum, which adding d log(2 pi) + logdet
    # hides unless that constant is exactly zero.
    columns = np.ascontiguousarray(data.T)
    centered = np.empty((k, n, d))
    weighted = np.empty((k, n, d))
    shifted = np.empty((k, n)) if k < 8 else np.empty((n, k)).T
    resp = np.empty((n, k))
    solve = _solve_2d if d == 2 and n > 1 and _solve_2d_matches_solve() else np.linalg.solve

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
        if not (sign > 0).all():
            raise NumericalError("component covariance lost positive definiteness")
        terms = solve(covs, centered.transpose(0, 2, 1))
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
        np.subtract(log_comp, top, out=shifted)
        log_norm = top + np.log(np.exp(shifted, out=shifted).sum(axis=0))
        # The sum and the division of log_norm.mean(), without its wrapper.
        ll = float(np.add.reduce(log_norm)) / n
        np.subtract(log_comp, log_norm, out=resp.T)
        np.exp(resp, out=resp)

        mass = np.einsum("ij->j", resp)
        weights = mass / n
        means = (resp.T @ data) / mass[:, None]
        center(means)
        for j in range(d):
            np.multiply(resp.T, centered[:, :, j], out=weighted[:, :, j])
        covs = weighted.transpose(0, 2, 1) @ centered / mass[:, None, None]
        covs = (covs + covs.transpose(0, 2, 1)) / 2.0
        if not np.isfinite(covs).all():
            raise NumericalError("component covariance is not finite")
        # eigvalsh returns each stack's eigenvalues in ascending order.
        low = np.linalg.eigvalsh(covs)[:, 0] < _COV_FLOOR
        if low.any():
            covs[low] += _COV_FLOOR * np.eye(d)
            # Beside a large eigenvalue the floor is lost in rounding.
            if not (np.linalg.eigvalsh(covs[low])[:, 0] > 0).all():
                raise NumericalError("component covariance lost positive definiteness")
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
        return FittedGenerator(
            spec=spec, dim=training.dim, weights=np.array([1.0]), means=mean[None], covariances=cov[None]
        )
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
    if gen.spec.kind != "bootstrap":
        # A gaussian draws no component labels, so its samples keep their bits; gmm:1 draws them.
        comp = np.zeros(m, np.intp) if gen.spec.kind == "gaussian" else rng.choice(len(gen.weights), m, p=gen.weights)
        z = rng.standard_normal((m, gen.dim))
        out = np.empty((m, gen.dim), dtype=np.float64)
        for j in range(len(gen.weights)):
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
