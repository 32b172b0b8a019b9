"""Write the golden canonical traces in this directory.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Each case is a tiny d = 2 `replace` loop; its canonical trace is written
as `<case>.json`, and `taken_under.json` records the numpy, BLAS and CPU
the traces were taken under. tests/test_golden.py runs the same cases and
compares the bytes where the machine matches. Re-run this script only in a
change that means to move trace bytes, and name each moved file and why.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from collapselab import GeneratorSpec, LoopConfig, PointSet, run_loop, trace_to_json

HERE = Path(__file__).resolve().parent

# gmm:4 with gamma 4 runs EM's component-major log-sum-exp (k < 8);
# gmm:9 runs the row-major one (k >= 8). tol=1e-300 stops a fit only at its
# iteration cap or an exact fixed point, so each trace holds the bits of many
# EM iterations.
CASES = {
    "replace-gmm4-gamma4": (GeneratorSpec(kind="gmm", components=4, max_iters=100, tol=1e-300), 4),
    "replace-gmm9": (GeneratorSpec(kind="gmm", components=9, max_iters=100, tol=1e-300), 1),
}


def real_points() -> PointSet:
    """300 points from four unit-variance blobs in [-4, 4]^2."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(-4.0, 4.0, size=(4, 2))
    return PointSet(centres[rng.integers(0, 4, 300)] + rng.standard_normal((300, 2)))


def canonical_trace(case: str) -> bytes:
    generator, gamma = CASES[case]
    config = LoopConfig(paradigm="replace", iterations=4, train_size=250, generator=generator, gamma=gamma)
    return trace_to_json(run_loop(config, real_points()), canonical=True).encode()


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
