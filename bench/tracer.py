"""Spans around collapselab's public functions, recorded from outside.

`Tracer.install` replaces each target attribute with a wrapper, in the
namespace where its caller looks it up (`looper.fit` is what run_loop
calls, `metrics.kth_nn_within` what kl_entropy and mnnd call).
`Tracer.remove` puts the original objects back. Spans are kept in memory
(name, start, end, parent span, execution id, counts) and written out
when the run ends. Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

# (module attribute of the program namespace, attribute, span name)
TARGETS = (
    ("looper", "fit", "generators.fit"),
    ("looper", "sample", "generators.sample"),
    ("looper", "generalization_score", "metrics.generalization_score"),
    ("looper", "run_policy", "selection.run_policy"),
    ("looper", "kl_entropy", "metrics.kl_entropy"),
    ("looper", "mnnd", "metrics.mnnd"),
    ("looper", "moment_summary", "metrics.moment_summary"),
    ("looper", "frechet_gaussian_distance", "metrics.frechet_gaussian_distance"),
    ("looper", "trace_to_json", "looper.trace_to_json"),
    ("looper", "trace_to_csv", "looper.trace_to_csv"),
    ("looper", "run_loop", "looper.run_loop"),
    ("metrics", "kth_nn_within", "neighbors.kth_nn_within"),
    ("metrics", "nn_cross", "neighbors.nn_cross"),
    ("cli", "load_pointset", "tensorset.load_pointset"),
    ("cli", "main", "cli.main"),
)


def _counts(name: str, bound: inspect.BoundArguments, result) -> tuple[str, dict]:
    """Span name (selection spans are named by policy) and the counts at this boundary."""
    a = bound.arguments
    if name == "neighbors.kth_nn_within":
        ps = a["ps"]
        key = (hashlib.sha256(ps.data.tobytes()).hexdigest(), a["k"], repr(a["metric"]))
        return name, {"rows": ps.size, "key": key}
    if name == "neighbors.nn_cross":
        return name, {"pairs": a["queries"].size * a["refs"].size}
    if name == "selection.run_policy":
        extra = {"picks": len(result.indices)}
        if result.passes is not None:
            extra["passes"] = result.passes
        return f"selection.select_{a['policy'].kind}", extra
    if name == "metrics.kl_entropy":
        return name, {"duplicates": result.duplicate_count, "size": result.size}
    if name == "generators.fit":
        diag = result.diagnostics
        return name, {
            "em_iters": len(diag.log_likelihoods),
            "converged": int(diag.converged),
            "floored": int(diag.floored),
        }
    if name == "generators.sample":
        return name, {"points": result.size}
    if name == "tensorset.load_pointset":
        return name, {"bytes": Path(a["path"]).stat().st_size}
    if name == "tensorset.PointSet.concat":
        return name, {"bytes": result.data.nbytes + result.sources.nbytes}
    if name in ("looper.trace_to_json", "looper.trace_to_csv"):
        return name, {"bytes": len(result.encode())}
    return name, {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.execution: int | None = None
        self.iteration = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.execution is None:
                return fn(*args, **kwargs)
            if name == "generators.fit":
                self.iteration += 1
            span = {"id": len(self.spans), "name": name, "execution": self.execution,
                    "iteration": self.iteration, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span["name"], span["counts"] = _counts(name, bound, result)
            return result

        return wrapper

    def begin(self, execution: int) -> None:
        """Record spans under `execution` until `end`; calls outside are not traced."""
        self.execution = execution
        self.iteration = 0

    def end(self) -> None:
        self.execution = None

    def install(self, prog: SimpleNamespace) -> None:
        for module, attr, name in TARGETS:
            owner = getattr(prog, module)
            self._replace(owner, attr, self._wrap(name, getattr(owner, attr)))
        point_set = prog.tensorset.PointSet
        concat = point_set.__dict__["concat"]
        self._replace(point_set, "concat", staticmethod(self._wrap("tensorset.PointSet.concat", concat.__func__)))

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# Per-layer metrics that are a sum per execution: (metric, span name, field)
# where field is "s", "self_s", "calls" or a count recorded at the span.
_SUMS = (
    ("neighbors.kth_nn_within.s", "neighbors.kth_nn_within", "s"),
    ("neighbors.kth_nn_within.calls", "neighbors.kth_nn_within", "calls"),
    ("neighbors.kth_nn_within.rows", "neighbors.kth_nn_within", "rows"),
    ("neighbors.nn_cross.s", "neighbors.nn_cross", "s"),
    ("neighbors.nn_cross.calls", "neighbors.nn_cross", "calls"),
    ("neighbors.nn_cross.pairs", "neighbors.nn_cross", "pairs"),
    ("metrics.kl_entropy.self_s", "metrics.kl_entropy", "self_s"),
    ("metrics.mnnd.self_s", "metrics.mnnd", "self_s"),
    ("metrics.generalization_score.self_s", "metrics.generalization_score", "self_s"),
    ("metrics.moment_summary.s", "metrics.moment_summary", "s"),
    ("metrics.frechet_gaussian_distance.s", "metrics.frechet_gaussian_distance", "s"),
    ("selection.select_greedy.s", "selection.select_greedy", "s"),
    ("selection.select_greedy.picks", "selection.select_greedy", "picks"),
    ("selection.select_threshold_decay.s", "selection.select_threshold_decay", "s"),
    ("selection.select_threshold_decay.passes", "selection.select_threshold_decay", "passes"),
    ("selection.select_threshold_decay.picks", "selection.select_threshold_decay", "picks"),
    ("generators.fit.s", "generators.fit", "s"),
    ("generators.fit.em_iters", "generators.fit", "em_iters"),
    ("generators.fit.floored", "generators.fit", "floored"),
    ("generators.sample.s", "generators.sample", "s"),
    ("generators.sample.points", "generators.sample", "points"),
    ("tensorset.load_pointset.s", "tensorset.load_pointset", "s"),
    ("tensorset.load_pointset.bytes", "tensorset.load_pointset", "bytes"),
    ("tensorset.PointSet.concat.s", "tensorset.PointSet.concat", "s"),
    ("tensorset.PointSet.concat.bytes", "tensorset.PointSet.concat", "bytes"),
    ("looper.run_loop.self_s", "looper.run_loop", "self_s"),
    ("looper.trace_to_json.s", "looper.trace_to_json", "s"),
    ("looper.trace_to_json.bytes", "looper.trace_to_json", "bytes"),
    ("looper.trace_to_csv.s", "looper.trace_to_csv", "s"),
    ("looper.trace_to_csv.bytes", "looper.trace_to_csv", "bytes"),
    ("cli.main.self_s", "cli.main", "self_s"),
)


def unit(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field in ("s", "self_s"):
        return "s"
    if field == "bytes":
        return "bytes"
    return "fraction" if field.endswith("frac") else "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from recorded spans: sums per execution, reported
    as the median over executions, plus ratios over all executions."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    executions = sorted({span["execution"] for span in spans})
    per_exec = {e: {metric: 0 for metric, _, _ in _SUMS} for e in executions}
    fields_by_name: dict[str, list[tuple[str, str]]] = {}
    for metric, name, field in _SUMS:
        fields_by_name.setdefault(name, []).append((metric, field))
    for span in spans:
        s = span["end"] - span["start"]
        values = {"s": s, "self_s": s - _covered(children.get(span["id"], [])), "calls": 1, **span["counts"]}
        for metric, field in fields_by_name.get(span["name"], ()):
            per_exec[span["execution"]][metric] += values.get(field, 0)
    out = {metric: statistics.median(per_exec[e][metric] for e in executions) for metric, _, _ in _SUMS}

    seen: set = set()
    knn_calls = repeats = 0
    fits = converged = duplicates = sizes = 0
    for span in spans:
        counts = span["counts"]
        if span["name"] == "neighbors.kth_nn_within":
            # A repeat is a call already answered within the same loop
            # iteration; iterations are told apart by their fit call.
            knn_calls += 1
            key = (span["execution"], span["iteration"], *counts["key"])
            repeats += key in seen
            seen.add(key)
        elif span["name"] == "generators.fit":
            fits += 1
            converged += counts["converged"]
        elif span["name"] == "metrics.kl_entropy":
            duplicates += counts["duplicates"]
            sizes += counts["size"]
    out["neighbors.kth_nn_within.repeat_frac"] = _ratio(repeats, knn_calls)
    out["generators.fit.em_converged_frac"] = _ratio(converged, fits)
    out["metrics.duplicate_frac"] = _ratio(duplicates, sizes)
    return out
