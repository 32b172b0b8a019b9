"""collapselab benchmark: one workload, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; collapselab is imported from
./src. The run sets itself up three times (fresh import of collapselab,
input generation, CSV writing for the CLI workload, one correctness
pre-check execution that also warms up) and reports the median as
`setup_s`. It then executes the workload back to back for S seconds and
reports the mean time of one execution as `loop_s`. Both are wall
times rescaled to the reference host speed: the fixed kernel of
bench/hostspeed.py runs before the first set-up and after every set-up
and every execution, and the wall times of each phase are multiplied by
its reference time over the mean of its times around that phase. That
cancels the drift of a shared host's CPU speed. Every execution's canonical trace is hashed
outside the timed region and must match the reference digest: the one
pinned in bench/pinned.json for the default seed, else the pre-check's.

The timed process runs collapselab on one worker thread, and its peak
RSS is `peak_rss_mb`. Once per run a fresh child process executes the
workload with collapselab's default worker count; its trace must have
the same bytes.

With --trace 1 the untraced timing is followed by a traced one of the
same length, and the result holds the per-layer metrics of
bench/tracer.py instead, with the tracing overhead.

The next-to-last line of stdout is a JSON report (environment, sample
counts and quartiles, checks); the last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# The timed process uses one worker thread: the measured work, memory and
# noise do not change with the machine's size, a small shared host keeps a
# core free for everything else, and the host-speed kernel, which runs on
# one thread too, is timed under the same conditions as the executions.
LAB_THREADS = 1
# The thread-invariance child uses collapselab's own default worker count.
CHECK_THREADS = 4
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the harness self-test")
    p.add_argument("--threads-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_threads(lab_threads: int) -> dict:
    """Pin the kernel and BLAS thread counts; call before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = {
        "COLLAPSE_LAB_THREADS": str(min(lab_threads, nproc)),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    os.environ.update(threads)
    return {"nproc": nproc, **threads}


def environment(prog, threads: dict) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        **threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu": cpu_model(),
        "collapselab": prog.pkg.__version__,
        "git_commit": commit,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"mean": statistics.fmean(values), "median": q[1], "p25": q[0], "p75": q[2],
            "min": min(values), "max": max(values), "samples": len(values)}


class HostSpeed:
    """Times the host-speed kernel between set-ups and executions."""

    def __init__(self):
        import hostspeed

        self._kernel = hostspeed.kernel_s
        self.reference_s = hostspeed.REFERENCE_S
        self.samples: list[float] = []

    def measure(self) -> None:
        self.samples.append(self._kernel())

    def factor(self, start: int = 0) -> float:
        """Reference kernel time over the mean of the kernel times from
        sample `start` on: multiplies a wall time measured among them. The
        mean, like a wall time, takes in every slow spell in proportion to
        its length."""
        return self.reference_s / statistics.fmean(self.samples[start:])


class Checker:
    """Runs the closed loop, checks each execution's canonical trace, counts failures."""

    def __init__(self, workloads, execution, reference: str, host: HostSpeed):
        self.w = workloads
        self.ex = execution
        self.reference = reference
        self.host = host
        self.attempted = 0
        self.failed = 0

    def timed_loop(self, seconds: float, tracer=None) -> list[float]:
        """Execute back to back for `seconds`; returns the wall time of each
        execution. The host-speed kernel runs after each one. A failed
        execution is timed too, and counted in `failed`."""
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            self.attempted += 1
            if tracer is not None:
                tracer.begin(self.attempted)
            start = time.perf_counter()
            try:
                result = self.ex.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            walls.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end()
            self.host.measure()
            if result is None or self.w.digest(self.ex.canonical(result)) != self.reference:
                self.failed += 1
            if time.perf_counter() >= deadline:
                return walls


def scaled(walls: list[float], factor: float) -> list[float]:
    return [w * factor for w in walls]


def threads_child(args) -> int:
    """Child mode: one multi-threaded execution; prints its digest and thread count."""
    threads = set_threads(CHECK_THREADS)
    import workloads

    prog = workloads.load_program(SRC)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ex = workloads.prepare(prog, args.workload, args.seed, Path(tmp), tiny=args.tiny)
        d = workloads.digest(ex.canonical(ex.run()))
    print(json.dumps({"digest": d, "COLLAPSE_LAB_THREADS": threads["COLLAPSE_LAB_THREADS"]}))
    return 0


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    VmHWM belongs to the current address space. ru_maxrss does not: Linux
    carries the high-water mark of the process that started this one
    across exec.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_threads_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--threads-child"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"digest": None}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "collapselab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no collapselab sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    OUT_DIR.mkdir(exist_ok=True)
    if args.threads_child:
        return threads_child(args)
    threads = set_threads(LAB_THREADS)
    import workloads
    from tracer import Tracer, layer_metrics, unit

    if args.workload not in workloads.SPECS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.SPECS)}\n")
        return 2
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text())

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        host = HostSpeed()
        host.measure()
        setup_walls: list[float] = []
        digests: list[str] = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            prog = workloads.load_program(SRC)
            ex = workloads.prepare(prog, args.workload, args.seed, Path(tmp), tiny=args.tiny)
            gc.collect()
            digests.append(workloads.digest(ex.canonical(ex.run())))
            setup_walls.append(time.perf_counter() - start)
            host.measure()
        first_timed = time.perf_counter() - started

        env = environment(prog, threads)
        pin_applies = (
            not args.tiny
            and args.seed == pinned["seed"]
            and all(pinned["taken_under"][k] == env[k] for k in pinned["taken_under"])
        )
        reference = pinned["sha256"][args.workload] if pin_applies else digests[0]
        checks = {
            "digest": digests[0],
            "pinned": ("match" if digests[0] == reference else "mismatch") if pin_applies
                      else "not applicable: seed, size or environment differ from bench/pinned.json",
            "setup_digests_agree": len(set(digests)) == 1,
        }
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "tiny": args.tiny, "environment": env, "checks": checks,
                  "setup_s": {"wall_repeats": setup_walls, "start_to_first_timed_s": first_timed}}
        if checks["pinned"] == "mismatch" or not checks["setup_digests_agree"]:
            # Refuse to time a program whose trace is wrong.
            print(json.dumps({"report": report}))
            print(json.dumps({"correct": False, "attempted": SETUP_REPEATS, "failed": SETUP_REPEATS, "metrics": {}}))
            return 1

        # Each phase is rescaled by the kernel passes around it alone: the
        # host's speed can change between set-up and timing. `loop_s` is a
        # mean because the kernel's speed is one: with slow spells shorter
        # than an execution, a mean over executions and a mean over kernel
        # passes both weigh each spell by its length, and medians over
        # windows of two lengths do not.
        setup_factor = host.factor()
        loop_start = len(host.samples) - 1
        checker = Checker(workloads, ex, reference, host)
        walls = checker.timed_loop(args.seconds)
        peak_mb = peak_rss_mb()
        loop_factor = host.factor(loop_start)
        loop = quartiles(scaled(walls, loop_factor))
        setup_s = statistics.median(scaled(setup_walls, setup_factor))
        report["loop_s"], report["loop_wall_s"] = loop, quartiles(walls)
        report["setup_s"]["repeats"] = scaled(setup_walls, setup_factor)
        report["host_speed"] = {"reference_s": host.reference_s, "setup_factor": setup_factor,
                                "loop_factor": loop_factor, "kernel_s": quartiles(host.samples)}
        report["samples"] = {"loop_wall_s": walls, "kernel_s": list(host.samples)}

        if args.trace:
            traced_start = len(host.samples) - 1
            tracer = Tracer()
            tracer.install(prog)
            try:
                traced_walls = checker.timed_loop(args.seconds, tracer)
            finally:
                tracer.remove()
            traced = quartiles(scaled(traced_walls, host.factor(traced_start)))
            report["traced_loop_s"], report["traced_loop_wall_s"] = traced, quartiles(traced_walls)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            report["spans"] = str(spans_path.relative_to(ROOT))

    child = run_threads_child(args)
    checks["threads_identical"] = child["digest"] == reference
    report["threads_child"] = child
    if args.trace:
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_frac"] = traced["mean"] / loop["mean"] - 1.0
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in layers.items()}
    else:
        metrics = {
            "loop_s": {"value": loop["mean"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    report["attempted"], report["failed"] = checker.attempted, checker.failed
    correct = checker.failed == 0 and checks["threads_identical"]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
