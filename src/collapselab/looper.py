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
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import metrics
from .errors import (
    CollapseLabError, ConfigError, DimensionError, FormatError, InsufficientPointsError, NumericalError, check_fields,
    field_types, is_number,
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
from .neighbors import split_of
from .selection import SelectionPolicy, run_policy
from .tensorset import DistanceMetric, PointSet, apply_feature_map, source_label

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
        if self.selection is not None and to_doc(self.selection.metric) != to_doc(self.metric):
            raise ConfigError("the selection policy must use the loop's metric")
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
    duplicate_count: int = field(init=False)

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "duplicate_count", self.entropy.duplicate_count)


@dataclass(frozen=True, eq=False)
class LoopTrace:
    config: LoopConfig
    real_reference: MomentSummary
    records: tuple[IterationRecord, ...]


def _generation_size(config: LoopConfig, real_size: int) -> int:
    """ceil(generation_multiplier * train_size), the points in a generation;
    a ConfigError when the largest pool, one generation under replace and
    real_size points plus every generation otherwise, would exceed pool_cap.
    The unrounded generation is held to its share of the cap, which is exact
    for integer sizes and keeps an overflowing product (inf) away from ceil."""
    share = config.generation_multiplier * config.train_size
    cap = config.pool_cap
    if share > (cap if config.paradigm == "replace" else (cap - real_size) // config.iterations):
        raise ConfigError(
            f"generation_multiplier {config.generation_multiplier:g} x train_size {config.train_size} would grow "
            f"the pool beyond pool_cap {cap}"
        )
    return math.ceil(share)


def run_loop(config: LoopConfig, real_data: PointSet, progress=None) -> LoopTrace:
    n = config.train_size
    if real_data.size < n:
        raise InsufficientPointsError(f"need at least {n} real points, got {real_data.size}")
    if real_data.size and int(real_data.sources.max()) != 0:
        raise ConfigError("real_data must be tagged real (source code 0) throughout")
    g_size = _generation_size(config, real_data.size)

    fmap = config.metric.feature_map
    squared = dataclasses.replace(config.metric, kind="sqeuclidean")
    real_ref = moment_summary(apply_feature_map(real_data, fmap))

    current = real_data if config.paradigm == "accumulate" else real_data.rows(np.arange(n))
    pool = real_data  # accumulating paradigms: real data, then generations 1..it
    split = None  # accumulate: the pool's split record
    records: list[IterationRecord] = []

    for it in range(1, config.iterations + 1):
        try:
            fit_seed = derive_seed(config.master_seed, it, ROLE_FIT)
            sample_seed = derive_seed(config.master_seed, it, ROLE_SAMPLE)
            select_seed = derive_seed(config.master_seed, it, ROLE_SELECT)

            gen = fit(dataclasses.replace(config.generator, seed=fit_seed), current)
            generation = sample(gen, g_size, sample_seed).with_sources(it)
            pool = generation if config.paradigm == "replace" else PointSet.concat([pool, generation])
            # An accumulate pool is D_n stacked over G_n, as the score splits
            # them, and D_{n+1}: one split, grown from the last, serves both.
            if config.paradigm == "accumulate":
                split = split_of(pool, config.metric, split)
            gs_value = generalization_score(generation, current, config.metric, split)

            # LoopConfig refuses a policy under accumulate.
            minima: list = []
            if config.selection is None and config.paradigm != "accumulate_subsample":
                nxt = pool
            else:
                policy = config.selection or SelectionPolicy(kind="random")
                nxt = pool.rows(run_policy(pool, n, dataclasses.replace(policy, seed=select_seed), minima).indices)

            # One search of D_{n+1} gives entropy its gamma-th neighbors and
            # MNND its first; a set too small for it meets kl_entropy's check.
            # At gamma 1 the minima a distance policy hands over are that
            # search's answers, bit for bit.
            first = kth = None
            if nxt.size > config.gamma:
                if minima and config.gamma == 1:
                    first = kth = minima[0]
                else:
                    first, kth = metrics.kth_nn_within(nxt, (1, config.gamma), squared, split)
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
        )
        records.append(record)
        if progress is not None:
            progress(record)
        current = nxt

    return LoopTrace(config=config, real_reference=real_ref, records=tuple(records))


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
# field's name (to_doc). from_doc passes the fields a constructor takes to
# it, and it checks them (errors.check_fields) and computes the rest. Only
# two choices are not generic:
#   - a generator writes only the fields its kind uses, GENERATOR_FIELDS
#     (so gmm:1 still writes components: 1);
#   - the config echo writes selection: null when there is no policy.


def to_doc(obj):
    """A dataclass as a dict in field order, an ndarray or a tuple as a
    list, anything else as it is; a field that is None is left out."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return [to_doc(item) for item in obj]
    if not dataclasses.is_dataclass(obj):
        return obj
    names = [f.name for f in dataclasses.fields(obj)]
    if isinstance(obj, GeneratorSpec):
        names = ["kind", "seed", *GENERATOR_FIELDS[obj.kind]]
    kept = "selection" if isinstance(obj, LoopConfig) else None
    values = ((name, getattr(obj, name)) for name in names)
    return {name: to_doc(value) for name, value in values if value is not None or name == kept}


def from_doc(kind, doc):
    """The value of type kind that to_doc writes as doc: a dataclass built
    from the fields its constructor takes, an ndarray as a read-only float64
    array of numbers within the float range, a tuple[X, ...] item by item
    and an X | None as either; anything else as it is."""
    if dataclasses.is_dataclass(kind):
        if not isinstance(doc, dict):
            raise FormatError(f"{kind.__name__} must be a JSON object, got {type(doc).__name__}")
        return kind(**{name: from_doc(t, doc[name]) for name, t in field_types(kind).items() if name in doc})
    if kind is np.ndarray:
        entries = np.array(doc, dtype=object)
        if not all(map(is_number, entries.flat)):
            raise FormatError("an array must hold only numbers within the float range")
        array = entries.astype(np.float64)
        array.setflags(write=False)
        return array
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return tuple(from_doc(args[0], item) for item in doc)
    return from_doc(args[0], doc) if type(None) in args and doc is not None else doc


def trace_to_json(trace: LoopTrace, canonical: bool = False) -> str:
    """Serialize a trace; canonical mode drops the timestamp and host so
    that identical runs produce identical bytes."""
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if not canonical:
        doc["timestamp"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        doc["host"] = platform.node()
    return json_text({**doc, **to_doc(trace)})


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
    """The trace `text` holds, read by from_doc. It must write back to itself
    (to_doc of it is, as JSON up to key order, the document less
    schema_version, timestamp and host), hold schema_version SCHEMA_VERSION
    and pass the checks README "Trace JSON" lists; any failure to read it is
    a FormatError."""
    try:
        doc = json.loads(text, parse_constant=_finite, parse_float=_finite)
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        if not (is_number(version, int) and version == SCHEMA_VERSION):
            raise FormatError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        body = {key: value for key, value in doc.items() if key not in ("schema_version", "timestamp", "host")}
        trace = from_doc(LoopTrace, body)
        if json.dumps(to_doc(trace), sort_keys=True) != json.dumps(body, sort_keys=True):
            raise FormatError("the document is not the one its trace writes: a key or a value differs")
        config, rr, records = trace.config, trace.real_reference, trace.records
        if len(records) != config.iterations or any(r.iteration != i for i, r in enumerate(records, 1)):
            raise FormatError(f"record iterations must run 1..{config.iterations} in order")
        d = config.metric.feature_map.output_dim(rr.mean.size)
        if rr.mean.shape != (d,) or rr.covariance.shape != (d, d):
            raise FormatError(f"real_reference must hold a mean of length {d} and a {d} x {d} covariance")
        # run_loop writes a symmetrized covariance, and frechet_gaussian_distance
        # holds it to the PSD rule at every iteration.
        if not np.array_equal(rr.covariance, rr.covariance.T):
            raise FormatError("real_reference covariance must be symmetric")
        metrics._psd_clip(np.linalg.eigvalsh(rr.covariance), "real_reference covariance")
        # Each record's size, from the smallest real size the trace allows:
        # train_size, or under accumulate the first record's less a generation.
        n = config.train_size
        g = _generation_size(config, n)
        if config.paradigm == "accumulate":
            real = max(n, records[0].entropy.size - g)
            _generation_size(config, real)
            sizes = [real + g * i for i in range(1, len(records) + 1)]
        else:
            sizes = [g if config.selection is None and config.paradigm == "replace" else n] * len(records)
        labels = [source_label(i) for i in range(len(records) + 1)]
        for r, size in zip(records, sizes):
            e, props, at = r.entropy, r.source_proportions, f"iteration {r.iteration}:"
            if e.gamma != config.gamma:
                raise FormatError(f"{at} entropy gamma {e.gamma} is not the config's {config.gamma}")
            if (e.size, e.dim) != (size, d):
                raise FormatError(f"{at} entropy size {e.size} and dim {e.dim} are not the config's {size} and {d}")
            # Each proportion is a correctly rounded quotient count / size, so
            # their exact sum lies within 2**-53 of 1, and fsum rounds it once.
            labelled = props.keys() <= set(labels[: r.iteration + 1]) and all(0 <= p <= 1 for p in props.values())
            if not (labelled and abs(math.fsum(props.values()) - 1.0) <= 2**-52):
                raise FormatError(
                    f"{at} source_proportions {props} must map labels of 0..{r.iteration} into [0, 1] and sum to 1"
                )
    except (ValueError, TypeError, OverflowError, CollapseLabError) as exc:
        raise FormatError(str(exc) if isinstance(exc, FormatError) else f"{type(exc).__name__}: {exc}") from None
    return trace


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
