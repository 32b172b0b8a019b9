"""Benchmark workloads: inputs made from a seed, one execution, its canonical bytes.

Every workload is a closed loop over one public entry point of collapselab:
`looper.run_loop` for the library workloads, `cli.main(["loop", ...])` for
the command-line one. The program receives only the generated point sets
or CSV file; the seed also becomes the loop's master seed.

Real data is a 4-blob Gaussian mixture: centres uniform in [-4, 4]^d, unit
variance. Why each workload exists is written in BENCHMARK.json and
bench/NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Shape:
    real_points: int
    train_size: int
    iterations: int


@dataclass(frozen=True)
class Spec:
    name: str
    dim: int
    full: Shape
    tiny: Shape


SPECS = {
    s.name: s
    for s in (
        Spec("accumulate-bootstrap0", 2, Shape(1000, 500, 5), Shape(200, 60, 2)),
        Spec("subsample-greedy", 8, Shape(2000, 1000, 8), Shape(200, 60, 2)),
        Spec("replace-gmm", 2, Shape(2000, 1000, 8), Shape(200, 60, 2)),
        Spec("cli-replace-threshold", 2, Shape(200_000, 1000, 8), Shape(400, 60, 2)),
    )
}


def load_program(src: Path) -> SimpleNamespace:
    """Import collapselab from `src` afresh and return its modules.

    Earlier imports are dropped first, so the import cost is paid again;
    set-up is timed several times per run and each repetition must do the
    same work.
    """
    for mod in [m for m in sys.modules if m == "collapselab" or m.startswith("collapselab.")]:
        del sys.modules[mod]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("collapselab")
    if Path(pkg.__file__).resolve().parent != (src / "collapselab").resolve():
        raise ImportError(f"collapselab was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(
        pkg=pkg,
        cli=importlib.import_module("collapselab.cli"),
        looper=importlib.import_module("collapselab.looper"),
        metrics=importlib.import_module("collapselab.metrics"),
        tensorset=importlib.import_module("collapselab.tensorset"),
    )


def blobs(seed: int, n: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-4.0, 4.0, size=(4, d))
    return centres[rng.integers(0, 4, n)] + rng.standard_normal((n, d))


def write_real_csv(data: np.ndarray, path: Path) -> None:
    """Write `data` as CSV with a header and a source column, all rows real."""
    cols = [f"x{j}" for j in range(data.shape[1])] + ["source"]
    rows = (",".join(repr(float(v)) for v in row) + ",real" for row in data)
    path.write_text(",".join(cols) + "\n" + "\n".join(rows) + "\n")


@dataclass
class Execution:
    """One prepared workload: `run` is the timed call, `canonical` turns its
    result into the canonical trace JSON bytes (not timed)."""

    run: Callable[[], object]
    canonical: Callable[[object], bytes]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare(prog: SimpleNamespace, name: str, seed: int, workdir: Path, tiny: bool = False) -> Execution:
    spec = SPECS[name]
    shape = spec.tiny if tiny else spec.full
    real = blobs(seed, shape.real_points, spec.dim)
    if name == "cli-replace-threshold":
        return _prepare_cli(prog, real, shape, seed, workdir)

    lab = prog.pkg
    if name == "accumulate-bootstrap0":
        config = lab.LoopConfig(
            paradigm="accumulate",
            iterations=shape.iterations,
            train_size=shape.train_size,
            generator=lab.GeneratorSpec(kind="bootstrap", sigma=0.0),
            master_seed=seed,
        )
    elif name == "subsample-greedy":
        config = lab.LoopConfig(
            paradigm="accumulate_subsample",
            iterations=shape.iterations,
            train_size=shape.train_size,
            generator=lab.GeneratorSpec(kind="bootstrap", sigma=0.05),
            selection=lab.SelectionPolicy(kind="greedy"),
            master_seed=seed,
        )
    else:
        config = lab.LoopConfig(
            paradigm="replace",
            iterations=shape.iterations,
            train_size=shape.train_size,
            # tol=1e-300 is below any change in log-likelihood EM can make, so
            # EM stops only at the 200-iteration cap or an exact fixed point and the work barely
            # depends on the seed (at the default 1e-8 the EM iteration count
            # varied by 17% between seeds).
            generator=lab.GeneratorSpec(kind="gmm", components=4, max_iters=200, tol=1e-300),
            gamma=4,
            master_seed=seed,
        )
    points = lab.PointSet(real)
    looper = prog.looper
    # Attribute lookups happen at call time so that traced runs see the wrappers.
    return Execution(
        run=lambda: looper.run_loop(config, points),
        canonical=lambda trace: looper.trace_to_json(trace, canonical=True).encode(),
    )


def _prepare_cli(prog, real: np.ndarray, shape: Shape, seed: int, workdir: Path) -> Execution:
    csv_path = workdir / "real.csv"
    prefix = workdir / "loop"
    write_real_csv(real, csv_path)
    argv = [
        "loop", "--real", str(csv_path), "--paradigm", "replace",
        "--generator", "bootstrap:0.05", "--selection", "threshold:5.0:0.9",
        "--train-size", str(shape.train_size), "--iterations", str(shape.iterations),
        "--seed", str(seed), "--canonical", "--out", str(prefix),
    ]
    cli = prog.cli
    json_path = prefix.with_suffix(".json")

    def run() -> int:
        json_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"collapselab loop exited with {code}: {err.getvalue().strip()}")
        return code

    return Execution(run=run, canonical=lambda _code: json_path.read_bytes())
