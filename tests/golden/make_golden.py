"""Write the golden canonical traces in this directory.

    PYTHONPATH=src python3 tests/golden/make_golden.py [CASE...]

Each case is a small loop over blob points, run by `run_loop` or, for a
case given as `collapselab loop` flags, by the CLI on those points written
as CSV. Its canonical trace is written as `<case>.json`. With no
arguments every case is written, and `taken_under.json` records the numpy,
BLAS and CPU the traces were taken under. Named cases are written alone,
so adding a case rewrites no other trace; that is refused on a machine
other than the one `taken_under.json` names. tests/test_golden.py runs the same cases and compares the bytes
where the machine matches. Re-run this script only in a change that means
to move trace bytes, and name each moved file and why: `pytest -v
tests/test_golden.py` names each case whose bytes a change moved, and
writes nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from collapselab import (
    DistanceMetric,
    FeatureMap,
    GeneratorSpec,
    LoopConfig,
    PointSet,
    SelectionPolicy,
    cli,
    run_loop,
    trace_to_json,
)

HERE = Path(__file__).resolve().parent

# Each case is (the loop, the dimension of its real points); a loop given as
# a list is the flags of `collapselab loop`.
# - gmm:4 with gamma 4 runs EM's component-major log-sum-exp (k < 8); gmm:9
#   runs the row-major one (k >= 8). tol=1e-300 stops a fit only at its
#   iteration cap or an exact fixed point, so each trace holds the bits of
#   many EM iterations.
# - A memorizing accumulate loop at gamma 2 grows each pool's split of
#   copies, answers ranks 1 and 2 by the multiplicity rule, and answers
#   nn_cross by the exact-match join.
# - accumulate_subsample with greedy selection at d = 8 runs the einsum
#   kernel, the one-cell screen and the selection tracker.
# - replace with threshold selection at d = 2 searches duplicate-free sets
#   on a grid of at least 4 cells per axis.
# - The gaussian generator, the random policy and a randproj feature map
#   each run once.
# - Greedy under sqeuclidean and threshold decay under randproj, both at
#   gamma 1, measure the selected set as a distance policy leaves it.
# - `collapselab loop` with threshold selection reads its real points from
#   a CSV with a header, a source column, a blank line and CRLF line ends.
CASES = {
    "replace-gmm4-gamma4": (
        LoopConfig(
            paradigm="replace", iterations=4, train_size=250, gamma=4,
            generator=GeneratorSpec(kind="gmm", components=4, max_iters=100, tol=1e-300),
        ),
        2,
    ),
    "replace-gmm9": (
        LoopConfig(
            paradigm="replace", iterations=4, train_size=250,
            generator=GeneratorSpec(kind="gmm", components=9, max_iters=100, tol=1e-300),
        ),
        2,
    ),
    "accumulate-bootstrap0-gamma2": (
        LoopConfig(
            paradigm="accumulate", iterations=4, train_size=250, gamma=2,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.0),
        ),
        2,
    ),
    "subsample-greedy-d8": (
        LoopConfig(
            paradigm="accumulate_subsample", iterations=3, train_size=150,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
            selection=SelectionPolicy(kind="greedy"),
        ),
        8,
    ),
    "replace-threshold-d2": (
        LoopConfig(
            paradigm="replace", iterations=4, train_size=250,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
            selection=SelectionPolicy(kind="threshold_decay", tau0=5.0, alpha=0.9),
        ),
        2,
    ),
    "replace-gaussian-d3": (
        LoopConfig(paradigm="replace", iterations=4, train_size=250, generator=GeneratorSpec(kind="gaussian")),
        3,
    ),
    "subsample-random": (
        LoopConfig(
            paradigm="accumulate_subsample", iterations=3, train_size=150,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
            selection=SelectionPolicy(kind="random", seed=5),
        ),
        2,
    ),
    "replace-randproj-gamma2": (
        LoopConfig(
            paradigm="replace", iterations=3, train_size=250, gamma=2,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
            metric=DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=3)),
        ),
        4,
    ),
    "replace-greedy-sqeuclidean-d3": (
        LoopConfig(
            paradigm="replace", iterations=3, train_size=250,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
            metric=DistanceMetric(kind="sqeuclidean"),
            selection=SelectionPolicy(kind="greedy", metric=DistanceMetric(kind="sqeuclidean")),
        ),
        3,
    ),
    "subsample-threshold-randproj": (
        LoopConfig(
            paradigm="accumulate_subsample", iterations=3, train_size=150,
            generator=GeneratorSpec(kind="bootstrap", sigma=0.05),
            metric=DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=3)),
            selection=SelectionPolicy(
                kind="threshold_decay", tau0=5.0, alpha=0.9,
                metric=DistanceMetric(feature_map=FeatureMap(kind="randproj", target_dim=2, seed=3)),
            ),
        ),
        4,
    ),
    "cli-loop-threshold-csv": (
        [
            "--paradigm", "replace", "--generator", "bootstrap:0.05", "--selection", "threshold:5.0:0.9",
            "--train-size", "250", "--iterations", "3", "--seed", "11",
        ],
        2,
    ),
}


def real_points(dim: int) -> PointSet:
    """300 points from four unit-variance blobs in [-4, 4]^dim."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(-4.0, 4.0, size=(4, dim))
    return PointSet(centres[rng.integers(0, 4, 300)] + rng.standard_normal((300, dim)))


def cli_trace(flags: list[str], real: PointSet) -> bytes:
    """The canonical trace `collapselab loop` writes for real points read from CSV."""
    rows = [",".join(map(repr, row)) + ",real" for row in real.data.tolist()]
    text = "\r\n".join([",".join(f"x{j}" for j in range(real.dim)) + ",source", *rows[:100], "", *rows[100:]])
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, prefix = Path(tmp) / "real.csv", Path(tmp) / "loop"
        csv_path.write_bytes(f"{text}\r\n".encode())
        argv = ["loop", "--real", str(csv_path), *flags, "--canonical", "--out", str(prefix)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"collapselab loop exited with {code}: {err.getvalue().strip()}")
        return prefix.with_suffix(".json").read_bytes()


def canonical_trace(case: str) -> bytes:
    config, dim = CASES[case]
    if isinstance(config, list):
        return cli_trace(config, real_points(dim))
    return trace_to_json(run_loop(config, real_points(dim)), canonical=True).encode()


def machine() -> dict:
    """The facts that choose the BLAS kernels, and with them the bytes."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "cpu": cpu}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; the cases are {', '.join(CASES)}", file=sys.stderr)
        return 2
    if names and json.loads((HERE / "taken_under.json").read_text()) != machine():
        print("named cases are written only on the machine taken_under.json names", file=sys.stderr)
        return 2
    for case in names or CASES:
        (HERE / f"{case}.json").write_bytes(canonical_trace(case))
    if not names:
        (HERE / "taken_under.json").write_text(json.dumps(machine(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
