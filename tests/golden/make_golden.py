"""Write the golden canonical traces in this directory.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Each case is a small loop over blob points; its canonical trace is written
as `<case>.json`, and `taken_under.json` records the numpy, BLAS and CPU
the traces were taken under. tests/test_golden.py runs the same cases and
compares the bytes where the machine matches. Re-run this script only in a
change that means to move trace bytes, and name each moved file and why:
`pytest -v tests/test_golden.py` names each case whose bytes a change
moved, and writes nothing.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from collapselab import GeneratorSpec, LoopConfig, PointSet, SelectionPolicy, run_loop, trace_to_json

HERE = Path(__file__).resolve().parent

# Each case is (the loop, the dimension of its real points).
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
}


def real_points(dim: int) -> PointSet:
    """300 points from four unit-variance blobs in [-4, 4]^dim."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(-4.0, 4.0, size=(4, dim))
    return PointSet(centres[rng.integers(0, 4, 300)] + rng.standard_normal((300, dim)))


def canonical_trace(case: str) -> bytes:
    config, dim = CASES[case]
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


def main() -> int:
    for case in CASES:
        (HERE / f"{case}.json").write_bytes(canonical_trace(case))
    (HERE / "taken_under.json").write_text(json.dumps(machine(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
