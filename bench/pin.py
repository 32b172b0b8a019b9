"""Write bench/pinned.json: the sha256 of each workload's canonical trace
at the default seed, with the numpy, BLAS and CPU it was taken under.

    python3 bench/pin.py

Re-pin only when a change to the trace bytes is intended; the canonical
traces are a contract (see README "Determinism").
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    threads = run.set_threads(run.LAB_THREADS)
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    prog = workloads.load_program(run.SRC)
    env = run.environment(prog, threads)
    sha = {}
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for name in workloads.SPECS:
            ex = workloads.prepare(prog, name, workloads.DEFAULT_SEED, Path(tmp))
            sha[name] = workloads.digest(ex.canonical(ex.run()))
    doc = {
        "seed": workloads.DEFAULT_SEED,
        "taken_under": {k: env[k] for k in ("numpy", "blas", "cpu")},
        "taken_at_commit": env["git_commit"],
        "sha256": sha,
    }
    (run.BENCH_DIR / "pinned.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
