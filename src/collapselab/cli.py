"""Command-line interface.

Commands: entropy, gs, mnnd, frechet, select, gen, loop, analyze.

Exit codes are a stable contract: 0 on success, otherwise the exit_code
of the error class raised (see errors.py); OSError and the ValueError for
non-finite data are I/O errors (2).

All result JSON goes to stdout and carries a schema_version field;
progress and error text go to stderr. The analyze command maps a
mismatched compare (a precondition everywhere else) to exit 4, because
there the mismatch is an operator mistake in what was asked for.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import looper
from .errors import CollapseLabError, ConfigError, DimensionError, FormatError, number_type
from .generators import GENERATOR_FIELDS, GeneratorSpec, fit, sample
from .metrics import (
    frechet_gaussian_distance,
    generalization_score,
    kl_entropy,
    mnnd,
    moment_summary,
)
from .selection import SelectionPolicy, run_policy
from .tensorset import (
    DistanceMetric,
    FeatureMap,
    apply_feature_map,
    load_pointset,
    save_pointset,
)

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _emit(result) -> None:
    """Print a result (a dict or a dataclass) as JSON, schema_version first."""
    doc = {"schema_version": looper.SCHEMA_VERSION, **looper.to_doc(result)}
    sys.stdout.write(looper.json_text(doc))


def _convert(cls, name: str, value):
    """value as the int or float that field `name` of dataclass cls is
    annotated with; a field of any other type takes value as it is."""
    convert = number_type(cls, name)
    try:
        return value if convert is None else convert(value)
    except ValueError:
        raise ConfigError(f"malformed {name} {value!r} (expected {convert.__name__})") from None


# The WORD:v1:v2... grammars of --generator, --feature and --selection: the
# dataclass each builds, the kind and fields of each word (v1, v2... fill
# the fields in order), and the help naming the specs.
_SPECS = {
    "generator": (
        GeneratorSpec,
        {kind: (kind, fields) for kind, fields in GENERATOR_FIELDS.items()},
        "gaussian, gmm:K[:MAXITERS[:TOL]], or bootstrap:SIGMA",
    ),
    "feature": (
        FeatureMap,
        {"identity": ("identity", ()), "randproj": ("randproj", ("target_dim", "seed"))},
        "identity or randproj:DIM:SEED",
    ),
    "selection": (
        SelectionPolicy,
        {"greedy": ("greedy", ()), "random": ("random", ()), "threshold": ("threshold_decay", ("tau0", "alpha"))},
        "greedy, random, or threshold:TAU0:ALPHA",
    ),
}


def parse_spec(grammar: str, text: str, **settings):
    """The dataclass a WORD:v1:v2... spec of grammar describes. The first
    value is required and the dataclass supplies the rest; settings are
    passed on to it."""
    cls, words, expected = _SPECS[grammar]
    word, *values = text.split(":")
    kind, fields = words.get(word, (None, ()))
    if kind is None or not min(len(fields), 1) <= len(values) <= len(fields):
        raise ConfigError(f"unknown {grammar} spec {text!r} (expected {expected})")
    settings.update((name, _convert(cls, name, v)) for name, v in zip(fields, values))
    return cls(kind=kind, **settings)


def _metric_for(args) -> DistanceMetric:
    return DistanceMetric(feature_map=parse_spec("feature", args.feature))


def cmd_entropy(args) -> int:
    ps = load_pointset(args.input, args.format)
    _emit(kl_entropy(ps, args.gamma, _metric_for(args)))
    return 0


def cmd_gs(args) -> int:
    generated = load_pointset(args.input, args.format)
    training = load_pointset(args.training, args.format)
    value = generalization_score(generated, training, _metric_for(args))
    _emit({"gs": value})
    return 0


def cmd_mnnd(args) -> int:
    ps = load_pointset(args.input, args.format)
    value = mnnd(ps, _metric_for(args))
    _emit({"mnnd": value})
    return 0


def cmd_frechet(args) -> int:
    fmap = parse_spec("feature", args.feature)
    a = moment_summary(apply_feature_map(load_pointset(args.input, args.format), fmap))
    b = moment_summary(apply_feature_map(load_pointset(args.other, args.format), fmap))
    value = frechet_gaussian_distance(a, b)
    _emit({"frechet": value})
    return 0


def cmd_select(args) -> int:
    policy = parse_spec(
        "selection", args.selection, seed=args.seed, metric=_metric_for(args), initial_index=args.start_index
    )
    pool = load_pointset(args.input, args.format)
    result = run_policy(pool, args.n, policy)
    if args.out:
        save_pointset(pool.rows(result.indices), args.out, args.format)
    _emit(result)
    return 0


def cmd_gen(args) -> int:
    if args.tag_iteration < 0:
        raise ConfigError(f"--tag-iteration must be non-negative, got {args.tag_iteration}")
    training = load_pointset(args.input, args.format)
    spec = parse_spec("generator", args.generator)
    fit_seed = looper.derive_seed(args.seed, 0, looper.ROLE_FIT)
    sample_seed = looper.derive_seed(args.seed, 0, looper.ROLE_SAMPLE)
    generator = fit(dataclasses.replace(spec, seed=fit_seed), training)
    out = sample(generator, args.m, sample_seed).with_sources(args.tag_iteration)
    save_pointset(out, args.out, args.format)
    _emit({"written": str(args.out), "count": out.size, "dim": out.dim})
    return 0


_CONFIG_KEYS = (*(f.name for f in dataclasses.fields(looper.LoopConfig)), "feature")


def load_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _build_loop_config(args) -> looper.LoopConfig:
    """LoopConfig from the flags laid over the --config file values, both
    text keyed by field name; the annotations give the types and the
    dataclasses supply every default."""
    values = load_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in _CONFIG_KEYS if getattr(args, key) is not None)
    for f in dataclasses.fields(looper.LoopConfig):
        if f.default is dataclasses.MISSING and f.name not in values:
            raise ConfigError(f"loop requires {f.name} (flag or config file)")
    metric = {}
    if "metric" in values:
        metric["kind"] = values["metric"]
    if "feature" in values:
        metric["feature_map"] = parse_spec("feature", values.pop("feature"))
    values["metric"] = DistanceMetric(**metric)
    selection = values.pop("selection", "none")
    if selection != "none":
        values["selection"] = parse_spec("selection", selection, metric=values["metric"])
    values["generator"] = parse_spec("generator", values["generator"])
    return looper.LoopConfig(**{name: _convert(looper.LoopConfig, name, v) for name, v in values.items()})


def cmd_loop(args) -> int:
    config = _build_loop_config(args)
    real = load_pointset(args.real, args.format)
    sys.stderr.write(
        f"loop: paradigm={config.paradigm} iterations={config.iterations} "
        f"train_size={config.train_size} generator={config.generator.kind} "
        f"selection={config.selection.kind if config.selection else 'none'} "
        f"seed={config.master_seed}\n"
    )

    def progress(rec):
        sys.stderr.write(
            f"[iter {rec.iteration}/{config.iterations}] entropy={rec.entropy.estimate:.6f} "
            f"gs={rec.gs:.6f} mnnd={rec.mnnd:.6f} duplicates={rec.duplicate_count}\n"
        )

    trace = looper.run_loop(config, real, progress=progress)
    json_path = Path(f"{args.out}.json")
    csv_path = Path(f"{args.out}.csv")
    json_path.write_text(looper.trace_to_json(trace, canonical=args.canonical))
    csv_path.write_text(looper.trace_to_csv(trace))
    _emit({"trace_json": str(json_path), "trace_csv": str(csv_path), "iterations": config.iterations})
    return 0


def _read_trace(path) -> looper.LoopTrace:
    text = Path(path).read_text()
    try:
        return looper.trace_from_json(text)
    except (AttributeError, KeyError, TypeError, ValueError, CollapseLabError) as exc:
        # Wrong JSON types, missing or unknown keys, and values the reader
        # or the dataclasses refuse.
        raise FormatError(f"{path}: not a trace file ({type(exc).__name__}: {exc})") from None


def cmd_analyze(args) -> int:
    if args.mode == "compare":
        if len(args.traces) != 2:
            raise ConfigError(f"compare needs exactly 2 trace files, got {len(args.traces)}")
        try:
            summary = looper.compare_traces(_read_trace(args.traces[0]), _read_trace(args.traces[1]))
        except DimensionError as exc:
            # Mismatched traces are an operator mistake here, not a data problem.
            raise ConfigError(str(exc)) from None
        _emit(summary)
        return 0
    traces = [_read_trace(p) for p in args.traces]
    if not traces:
        raise ConfigError("correlate needs at least one trace file")
    _emit(looper.correlate_trace(traces))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="collapselab", description="Entropy tracking and data selection for self-consuming loops.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--input", required=True, help="input dataset path")
        p.add_argument("--format", choices=("csv", "rawbin"), default="csv")
        p.add_argument("--feature", default="identity", help=_SPECS["feature"][2])
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("entropy", help="nearest-neighbor entropy of a dataset")
    common(p, seed=False)
    p.add_argument("--gamma", type=int, default=1)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("gs", help="generalization score of generated points against a training set")
    common(p, seed=False)
    p.add_argument("--training", required=True, help="training dataset path")
    p.set_defaults(func=cmd_gs)

    p = sub.add_parser("mnnd", help="mean nearest-neighbor distance within a dataset")
    common(p, seed=False)
    p.set_defaults(func=cmd_mnnd)

    p = sub.add_parser("frechet", help="Frechet Gaussian distance between two datasets")
    common(p, seed=False)
    p.add_argument("--other", required=True, help="second dataset path")
    p.set_defaults(func=cmd_frechet)

    p = sub.add_parser("select", help="select a subset of a candidate pool")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--selection", required=True, help=_SPECS["selection"][2])
    p.add_argument("--start-index", type=int, default=None, help="pin the initial pick")
    p.add_argument("--out", default=None, help="write the selected subset here (input's format)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("gen", help="fit a generator and sample from it")
    common(p)
    p.add_argument("--generator", required=True, help=_SPECS["generator"][2])
    p.add_argument("--m", type=int, required=True, help="number of points to sample")
    p.add_argument("--tag-iteration", type=int, default=1, help="source tag for sampled rows")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("loop", help="run a self-consuming training loop", description="--selection also takes none.")
    p.add_argument("--real", required=True, help="real dataset path")
    p.add_argument("--format", choices=("csv", "rawbin"), default="csv")
    p.add_argument("--config", default=None, help="key=value file mirroring the loop config")
    for key in _CONFIG_KEYS:
        flag = "--seed" if key == "master_seed" else "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, help=_SPECS[key][2] if key in _SPECS else None)
    p.add_argument("--canonical", action="store_true", help="omit timestamp/host for byte-stable output")
    p.add_argument("--out", required=True, help="output prefix; writes PREFIX.json and PREFIX.csv")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("analyze", help="compare two traces or correlate entropy with log GS")
    p.add_argument("--mode", choices=("compare", "correlate"), required=True)
    p.add_argument("traces", nargs="*", help="trace JSON files")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Every non-finite result is refused by an explicit check with its
        # own error line, so numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (CollapseLabError, OSError, ValueError) as exc:
        # Non-finite data is rejected at load time with the stock ValueError.
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code if isinstance(exc, CollapseLabError) else FormatError.exit_code


def entry() -> None:
    sys.exit(main())
