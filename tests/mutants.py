"""Mutation register: each entry breaks one guard, and some test should fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py              # every entry
    python tests/mutants.py NAME ...     # the named entries
    python tests/mutants.py --list

Each entry is applied to its own copy of the repository in a temporary
directory, and its tests run there with pytest, with that copy's `src` on
PYTHONPATH. An entry is killed when pytest exits non-zero, by a failing test
or a failed collection. The same tests first run once on an unmutated copy,
which must pass. The runner prints one line per entry and exits 1 if an
entry marked `gate` survives; the others are reported only. A change that
claims a mutation result adds its entry here.

pytest collects only `test_*.py`, so tier-1 never runs this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CSV_TESTS = ("tests/test_tensorset.py", "tests/test_cli.py")
NEIGHBOR_TESTS = (
    "tests/test_neighbors.py",
    "tests/test_selection.py",
    "tests/test_golden.py",
    "tests/test_looper.py",
    "tests/test_acceptance.py",
    "tests/test_metrics.py",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    gate: bool


MUTANTS = (
    Mutant(
        "csv-full-width-tag",
        "src/collapselab/tensorset.py",
        "if not text.isascii() or len(text) >= _TAG_WIDTH:",
        "if not text.isascii():",
        CSV_TESTS,
        gate=True,
    ),
    Mutant(
        "csv-non-ascii-tag",
        "src/collapselab/tensorset.py",
        "if not text.isascii() or len(text) >= _TAG_WIDTH:",
        "if len(text) >= _TAG_WIDTH:",
        CSV_TESTS,
        gate=True,
    ),
    Mutant(
        "csv-compressed-suffix",
        "src/collapselab/tensorset.py",
        'if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):',
        "if path.suffix in ():",
        CSV_TESTS,
        gate=True,
    ),
    Mutant(
        "csv-writer-code-cap",
        "src/collapselab/tensorset.py",
        "if ps.size and int(ps.sources.max()) > MAX_CSV_CODE:",
        "if ps.size and int(ps.sources.max()) > 2**62:",
        CSV_TESTS,
        gate=True,
    ),
    Mutant(
        "gen-tag-iteration-range",
        "src/collapselab/cli.py",
        "if not 0 <= args.tag_iteration <= MAX_CSV_CODE:",
        "if args.tag_iteration < 0:",
        CSV_TESTS,
        gate=True,
    ),
    Mutant(
        "grid-certificate-slack",
        "src/collapselab/neighbors.py",
        "slack = 32.0 * _EPS * max(",
        "slack = 0.0 * _EPS * max(",
        NEIGHBOR_TESTS,
        gate=False,
    ),
    Mutant(
        "grid-bound-factor",
        "src/collapselab/neighbors.py",
        "bound = reach * reach * (1.0 - 4 * (dim + 2) * _EPS)",
        "bound = reach * reach",
        NEIGHBOR_TESTS,
        gate=False,
    ),
    Mutant(
        "screen-underflow-term",
        "src/collapselab/neighbors.py",
        "sq - dim * _TINY])",
        "sq])",
        NEIGHBOR_TESTS,
        gate=False,
    ),
    Mutant(
        "nn-cross-match-floor",
        "src/collapselab/neighbors.py",
        "if not ((x != 0.0) & (np.abs(x) < _MATCH_FLOOR)).any():",
        "if True:",
        NEIGHBOR_TESTS,
        gate=False,
    ),
    Mutant(
        "screen-rounding-factor",
        "src/collapselab/neighbors.py",
        "sq *= 1.0 - 4 * (dim + 4) * _EPS",
        "sq *= 1.0",
        NEIGHBOR_TESTS,
        gate=False,
    ),
    Mutant(
        "randproj-matrix-product",
        "src/collapselab/tensorset.py",
        "out = data[:, :1] * matrix[0]\n            for j in range(1, data.shape[1]):\n"
        "                out += data[:, j : j + 1] * matrix[j]",
        "out = data @ matrix",
        ("tests/test_tensorset.py",),
        gate=True,
    ),
    Mutant(
        "split-of-ignores-held",
        "src/collapselab/neighbors.py",
        "return (grow and _grow(held, x)) or _distinct(x)",
        "return _distinct(x)",
        ("tests/test_tracer_targets.py",),
        gate=True,
    ),
    Mutant(
        "split-held-under-every-paradigm",
        "src/collapselab/looper.py",
        'if config.paradigm == "accumulate":\n                split = split_of(',
        "if True:\n                split = split_of(",
        ("tests/test_looper.py", "tests/test_golden.py"),
        gate=True,
    ),
    Mutant(
        "grow-without-coordinate-compare",
        "src/collapselab/neighbors.py",
        "    if not (x[heads[near]] == x[m:]).all():\n        return None\n",
        "",
        NEIGHBOR_TESTS,
        gate=True,
    ),
    Mutant(
        "search-cache-shape-only",
        "src/collapselab/neighbors.py",
        "return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))",
        "return a.shape == b.shape",
        ("tests/test_looper.py",),
        gate=True,
    ),
    Mutant(
        "held-split-guard",
        "src/collapselab/neighbors.py",
        "grow = held and held[0].shape[0] < x.shape[0] and held[0].shape[1] == x.shape[1]",
        "grow = held",
        ("tests/test_neighbors.py",),
        gate=True,
    ),
    Mutant(
        "mass-pairwise",
        "src/collapselab/generators.py",
        'mass = np.einsum("ij->j", resp)',
        "mass = np.ascontiguousarray(resp.T).sum(axis=1)",
        ("tests/test_generators.py", "tests/test_golden.py"),
        gate=True,
    ),
    Mutant(
        "columns-dropped-with-copies",
        "src/collapselab/neighbors.py",
        "_search(u, u, near, within=True, columns=copies)",
        "_search(u, u, near, within=True, columns=False)",
        NEIGHBOR_TESTS,
        gate=True,
    ),
    Mutant(
        "held-search-without-columns-serves-copies",
        "src/collapselab/neighbors.py",
        " and (_memo[3] is not None or not copies):",
        ":",
        ("tests/test_neighbors.py",),
        gate=True,
    ),
    Mutant(
        "search-when-every-point-has-copies",
        "src/collapselab/neighbors.py",
        "    if sizes.min() > k:",
        "    if heads.size == 1:",
        ("tests/test_neighbors.py",),
        gate=True,
    ),
    Mutant(
        "handoff-identity-only",
        "src/collapselab/looper.py",
        "if minima and config.gamma == 1:",
        'if minima and config.gamma == 1 and fmap.kind == "identity":',
        ("tests/test_tracer_targets.py",),
        gate=True,
    ),
)


def copy_repo(dest: Path) -> Path:
    tree = dest / "repo"
    shutil.copytree(
        ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    )
    return tree


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def apply(tree: Path, m: Mutant) -> None:
    path = tree / m.file
    text = path.read_text()
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: {m.old!r} occurs {text.count(m.old)} times in {m.file}, expected once")
    path.write_text(text.replace(m.old, m.new))


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name:26} {'gate' if m.gate else 'report':6} {m.file}")
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = copy_repo(Path(tmp) / "clean")
        every = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        code, summary = run_tests(clean, every)
        if code != 0:
            print(f"unmutated tests fail: {summary}")
            return 2
        survivors = []
        for m in chosen:
            tree = copy_repo(Path(tmp) / m.name)
            apply(tree, m)
            start = time.perf_counter()
            code, summary = run_tests(tree, m.tests)
            killed = code != 0
            if not killed:
                survivors.append(m)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{m.name:26} {verdict:8} {time.perf_counter() - start:6.1f} s  {summary}", flush=True)
            shutil.rmtree(tree)
    gated = [m.name for m in survivors if m.gate]
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; survivors: {', '.join(m.name for m in survivors) or 'none'}")
    return 1 if gated else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
