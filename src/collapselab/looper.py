"""Self-consuming training-loop harness.

One iteration n: fit the generator on the current training set D_n, sample
a generation G_n (tagged syn n), build the candidate pool for the chosen
paradigm, and select the next training set D_{n+1}. The record written for
iteration n measures D_{n+1} (entropy, MNND, covariance trace, Frechet
distance to the real reference, origin mix) plus the generalization score
of G_n against D_n. Models are refit from scratch every iteration; nothing
carries over except data.

Paradigms:
  replace               D_{n+1} comes from G_n alone.
  accumulate            D_{n+1} is the whole pool: real data plus every
                        generation so far.
  accumulate_subsample  D_{n+1} is a fixed-size subset of that pool
                        (random when no selection policy is given).

Every generation has ceil(generation_multiplier * train_size) points, and
the largest pool a run holds (the generation under replace, the final
accumulated pool otherwise) must fit in pool_cap, or the run is refused
before its first fit.

Per-iteration seeds derive from master_seed via SplitMix64:
seed = splitmix64(master_seed ^ (iteration * GOLDEN) ^ role), with role
constants fit=1, sample=2, select=3.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import metrics
from .errors import (
    ConfigError, DimensionError, FormatError, InsufficientPointsError, NumericalError, check_fields, is_number
)
from .generators import GENERATOR_FIELDS, GeneratorSpec, fit, sample
from .metrics import (
    EntropyReport,
    MomentSummary,
    frechet_gaussian_distance,
    generalization_score,
    kl_entropy,
    mnnd,
    moment_summary,
    pearson,
)
from .selection import SelectionPolicy, run_policy
from .tensorset import (
    DistanceMetric,
    FeatureMap,
    PointSet,
    apply_feature_map,
    source_label,
)

SCHEMA_VERSION = 1

_PARADIGMS = ("replace", "accumulate", "accumulate_subsample")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
ROLE_FIT = 1
ROLE_SAMPLE = 2
ROLE_SELECT = 3


def splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, iteration: int, role: int) -> int:
    return splitmix64((master_seed ^ ((iteration * _GOLDEN) & _MASK64) ^ role) & _MASK64)


@dataclass(frozen=True)
class LoopConfig:
    paradigm: str
    iterations: int
    train_size: int
    generator: GeneratorSpec
    selection: SelectionPolicy | None = None
    # None resolves to 2.0 for replace with a policy and to 1.0 otherwise;
    # the field holds the float the loop runs with.
    generation_multiplier: float | None = None
    metric: DistanceMetric = DistanceMetric()
    gamma: int = 1
    master_seed: int = 0
    pool_cap: int = 1_000_000

    def __post_init__(self) -> None:
        check_fields(self)
        if self.paradigm not in _PARADIGMS:
            raise ConfigError(f"unknown paradigm {self.paradigm!r} (expected {', '.join(_PARADIGMS)})")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.train_size < 1:
            raise ConfigError(f"train_size must be >= 1, got {self.train_size}")
        if self.gamma < 1:
            raise ConfigError(f"gamma must be >= 1, got {self.gamma}")
        if self.generation_multiplier is not None and not 0.0 < self.generation_multiplier < math.inf:
            raise ConfigError(f"generation_multiplier must be positive and finite, got {self.generation_multiplier}")
        if self.pool_cap < 1:
            raise ConfigError(f"pool_cap must be >= 1, got {self.pool_cap}")
        if self.paradigm == "accumulate" and self.selection is not None:
            raise ConfigError("accumulate trains on the full pool; a selection policy is contradictory")
        default = 2.0 if (self.paradigm == "replace" and self.selection is not None) else 1.0
        multiplier = default if self.generation_multiplier is None else self.generation_multiplier
        object.__setattr__(self, "generation_multiplier", float(multiplier))


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    entropy: EntropyReport
    gs: float
    mnnd: float
    trace_cov: float
    frechet_real: float
    source_proportions: dict[str, float]
    duplicate_count: int

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True, eq=False)
class LoopTrace:
    config: LoopConfig
    records: tuple[IterationRecord, ...]
    real_reference: MomentSummary


def run_loop(config: LoopConfig, real_data: PointSet, progress=None) -> LoopTrace:
    n = config.train_size
    if real_data.size < n:
        raise InsufficientPointsError(f"need at least {n} real points, got {real_data.size}")
    if real_data.size and int(real_data.sources.max()) != 0:
        raise ConfigError("real_data must be tagged real (source code 0) throughout")
    # The largest pool is one generation under replace and the real data
    # plus every generation otherwise. The unrounded generation is held to
    # its share of the cap, which is exact for integer sizes and keeps an
    # overflowing product (inf) away from ceil.
    share = config.generation_multiplier * n
    cap = config.pool_cap
    if share > (cap if config.paradigm == "replace" else (cap - real_data.size) // config.iterations):
        raise ConfigError(
            f"generation_multiplier {config.generation_multiplier:g} x train_size {n} would grow "
            f"the pool beyond pool_cap {cap}"
        )
    g_size = math.ceil(share)

    fmap = config.metric.feature_map
    squared = dataclasses.replace(config.metric, kind="sqeuclidean")
    real_ref = moment_summary(apply_feature_map(real_data, fmap))

    current = real_data if config.paradigm == "accumulate" else real_data.rows(np.arange(n))
    pool = real_data  # accumulating paradigms: real data, then generations 1..it
    records: list[IterationRecord] = []

    for it in range(1, config.iterations + 1):
        try:
            fit_seed = derive_seed(config.master_seed, it, ROLE_FIT)
            sample_seed = derive_seed(config.master_seed, it, ROLE_SAMPLE)
            select_seed = derive_seed(config.master_seed, it, ROLE_SELECT)

            gen = fit(dataclasses.replace(config.generator, seed=fit_seed), current)
            generation = sample(gen, g_size, sample_seed).with_sources(it)
            gs_value = generalization_score(generation, current, config.metric)

            pool = generation if config.paradigm == "replace" else PointSet.concat([pool, generation])

            if config.paradigm == "accumulate":
                nxt = pool
            elif config.selection is not None or config.paradigm == "accumulate_subsample":
                policy = config.selection or SelectionPolicy(kind="random")
                nxt = pool.rows(run_policy(pool, n, dataclasses.replace(policy, seed=select_seed)).indices)
            else:
                nxt = pool

            # One search of D_{n+1} gives entropy its gamma-th neighbors and
            # MNND its first; a set too small for it meets kl_entropy's check.
            first = kth = None
            if nxt.size > config.gamma:
                first, kth = (r.distances for r in metrics.kth_nn_within(nxt, (1, config.gamma), squared))
            entropy = kl_entropy(nxt, config.gamma, config.metric, kth)
            mnnd_value = mnnd(nxt, config.metric, first)
            moments = moment_summary(apply_feature_map(nxt, fmap))
            frechet = frechet_gaussian_distance(moments, real_ref)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc

        record = IterationRecord(
            iteration=it,
            entropy=entropy,
            gs=gs_value,
            mnnd=mnnd_value,
            trace_cov=moments.trace_cov,
            frechet_real=frechet,
            source_proportions=nxt.proportions(),
            duplicate_count=entropy.duplicate_count,
        )
        records.append(record)
        if progress is not None:
            progress(record)
        current = nxt

    return LoopTrace(config=config, records=tuple(records), real_reference=real_ref)


# --- comparison and correlation -------------------------------------------

_DELTA_METRICS = ("entropy", "gs", "mnnd", "frechet_real")


@dataclass(frozen=True)
class ComparisonSummary:
    """Per-iteration deltas (a - b) and a sign summary per metric."""

    iterations: int
    deltas: dict[str, tuple[float, ...]]
    mean_delta: dict[str, float]
    dominance: dict[str, str]


def _record_value(record: IterationRecord, key: str) -> float:
    return record.entropy.estimate if key == "entropy" else getattr(record, key)


def compare_traces(a: LoopTrace, b: LoopTrace) -> ComparisonSummary:
    if len(a.records) != len(b.records):
        raise DimensionError(f"traces of length {len(a.records)} vs {len(b.records)} are not comparable")
    if a.config.paradigm != b.config.paradigm:
        raise DimensionError(
            f"traces of paradigm {a.config.paradigm!r} vs {b.config.paradigm!r} are not comparable"
        )
    deltas: dict[str, tuple[float, ...]] = {}
    mean_delta: dict[str, float] = {}
    dominance: dict[str, str] = {}
    for key in _DELTA_METRICS:
        ds = tuple(_record_value(ra, key) - _record_value(rb, key) for ra, rb in zip(a.records, b.records))
        deltas[key] = ds
        mean_delta[key] = sum(ds) / len(ds)
        pos = sum(1 for d in ds if d > 0)
        neg = sum(1 for d in ds if d < 0)
        if pos and not neg:
            dominance[key] = "a"
        elif neg and not pos:
            dominance[key] = "b"
        elif not pos and not neg:
            dominance[key] = "tie"
        else:
            dominance[key] = "mixed"
    return ComparisonSummary(
        iterations=len(a.records), deltas=deltas, mean_delta=mean_delta, dominance=dominance
    )


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson r between entropy and log generalization score."""

    r: float
    point_count: int
    excluded_count: int


def correlate_trace(traces) -> CorrelationReport:
    if isinstance(traces, LoopTrace):
        traces = [traces]
    entropies: list[float] = []
    log_gs: list[float] = []
    excluded = 0
    for trace in traces:
        for rec in trace.records:
            if rec.gs == 0.0:
                excluded += 1
                continue
            entropies.append(rec.entropy.estimate)
            log_gs.append(math.log(rec.gs))
    if len(entropies) < 3:
        raise InsufficientPointsError(
            f"correlation needs at least 3 records with nonzero scores, got {len(entropies)}"
        )
    return CorrelationReport(r=pearson(entropies, log_gs), point_count=len(entropies), excluded_count=excluded)


# --- serialization ----------------------------------------------------------
#
# A document is its dataclass's fields in declaration order, each key the
# field's name (to_doc), and it is read back by calling the dataclass
# constructors on it, which check its number fields (errors.check_fields).
# Only two choices are not generic:
#   - a generator writes only the fields its kind uses, GENERATOR_FIELDS
#     (so gmm:1 still writes components: 1);
#   - the config echo writes selection: null when there is no policy.


def to_doc(obj):
    """A dataclass as a dict in field order, an ndarray as nested lists,
    anything else as it is; a field that is None is left out."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if not dataclasses.is_dataclass(obj):
        return obj
    names = [f.name for f in dataclasses.fields(obj)]
    if isinstance(obj, GeneratorSpec):
        names = ["kind", "seed", *GENERATOR_FIELDS[obj.kind]]
    values = ((name, getattr(obj, name)) for name in names)
    return {name: to_doc(value) for name, value in values if value is not None}


def trace_to_json(trace: LoopTrace, canonical: bool = False) -> str:
    """Serialize a trace; canonical mode drops the timestamp and host so
    that identical runs produce identical bytes."""
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if not canonical:
        doc["timestamp"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        doc["host"] = platform.node()
    # Every config field has its key, so an absent selection stays as null.
    doc["config"] = {**dict.fromkeys(f.name for f in dataclasses.fields(LoopConfig)), **to_doc(trace.config)}
    doc["real_reference"] = to_doc(trace.real_reference)
    doc["records"] = [to_doc(r) for r in trace.records]
    return json_text(doc)


def json_text(doc) -> str:
    """doc as indented JSON text. JSON has no NaN or infinity, so a
    non-finite float is a NumericalError, not a bare NaN token."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"a non-finite value cannot be written as JSON ({exc})") from None


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise FormatError(f"a trace holds no non-finite number, got {token}")
    return value


def trace_from_json(text: str) -> LoopTrace:
    """The trace `text` holds; a FormatError for a non-finite number, for
    records that do not run 1..config.iterations in order, or for an entropy
    whose gamma is not the config's or whose estimate is not its
    reconstruction, bit for bit. The dataclasses refuse the rest."""
    doc = json.loads(text, parse_constant=_finite, parse_float=_finite)
    version = doc.get("schema_version")
    if not (is_number(version, int) and version == SCHEMA_VERSION):
        raise FormatError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    unknown = doc.keys() - {"schema_version", "timestamp", "host", "config", "real_reference", "records"}
    if unknown:
        raise FormatError(f"unknown trace keys {sorted(unknown)}")

    def metric(d: dict) -> DistanceMetric:
        return DistanceMetric(**{**d, "feature_map": FeatureMap(**d["feature_map"])})

    def record(d: dict) -> IterationRecord:
        return IterationRecord(**{**d, "entropy": EntropyReport(**d["entropy"])})

    c = doc["config"]
    sel = c.get("selection")
    config = LoopConfig(**{
        **c,
        "generator": GeneratorSpec(**c["generator"]),
        "selection": None if sel is None else SelectionPolicy(**{**sel, "metric": metric(sel["metric"])}),
        "metric": metric(c["metric"]),
    })
    rr = doc["real_reference"]
    arrays = {key: np.array(rr[key], dtype=np.float64) for key in ("mean", "covariance")}
    for a in arrays.values():
        a.setflags(write=False)
    records = tuple(record(r) for r in doc["records"])
    if [r.iteration for r in records] != list(range(1, config.iterations + 1)):
        raise FormatError(f"record iterations must run 1..{config.iterations} in order")
    for r in records:
        gamma, estimate, rebuilt = r.entropy.gamma, r.entropy.estimate, r.entropy.reconstruct()
        if gamma != config.gamma:
            raise FormatError(f"iteration {r.iteration}: entropy gamma {gamma} is not the config's {config.gamma}")
        if estimate != rebuilt or math.copysign(1.0, estimate) != math.copysign(1.0, rebuilt):
            raise FormatError(f"iteration {r.iteration}: entropy estimate {estimate!r} is not its reconstruction {rebuilt!r}")
    return LoopTrace(config=config, records=records, real_reference=MomentSummary(**{**rr, **arrays}))


def trace_to_csv(trace: LoopTrace) -> str:
    """Flat per-iteration table; syn fraction columns run 1..iterations,
    padded with zeros where an origin is absent."""
    n_iter = trace.config.iterations
    cols = ["iteration", "entropy", "duplicates", "gs", "mnnd", "trace_cov", "frechet_real", "frac_real"]
    cols += [f"frac_syn_{i}" for i in range(1, n_iter + 1)]
    lines = [",".join(cols)]
    for rec in trace.records:
        props = rec.source_proportions
        row = [
            str(rec.iteration),
            repr(rec.entropy.estimate),
            str(rec.duplicate_count),
            repr(rec.gs),
            repr(rec.mnnd),
            repr(rec.trace_cov),
            repr(rec.frechet_real),
        ]
        row += [repr(props.get(source_label(i), 0.0)) for i in range(n_iter + 1)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
