"""Benchmark of the logcvx CLI: one workload per invocation, result as one JSON line.

    python3 perfbench/run.py --workload minorant|check|relation --seed N \\
        --seconds S --trace 0|1

The workload runs in a child process (workload.py) started from the root of
the checkout, with the package imported from ``src/``.  Set-up time runs from
starting a child until it reports READY.  An untraced run starts SETUP_REPEATS
children, all but the last stopping at READY, and reports the median of their
set-up times as ``setup_s``; the last child goes on to the timed loop.  A
traced run (--trace 1) starts one child and reports the per-layer metrics.
The full result, with the set-up times and the check details, is written to
``perfbench/out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("minorant", "check", "relation")
SETUP_REPEATS = 5
# A second BLAS thread spins on the other core for a few per cent of speed-up
# and makes timings follow the load of both cores; the workload runs on one.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0


class Child:
    """A workload process, killed if it outlives the run's deadline."""

    def __init__(self, args, workdir: str, spans: str, setup_only: bool, deadline: float):
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir, "--spans", spans]
        if setup_only:
            cmd.append("--setup-only")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                     env=dict(os.environ, **ONE_BLAS_THREAD))
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def ready(self) -> float:
        """Seconds from start until READY."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError(f"workload process did not get ready: {line!r}")
        return time.perf_counter() - self.started

    def finish(self) -> str:
        out = self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise RuntimeError(f"workload process exited with status {code}")
        return out

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    rel_out = HERE.relative_to(ROOT) / "out"  # children run in ROOT
    setups = []
    try:
        children = SETUP_REPEATS if args.trace == 0 else 1
        for i in range(children):
            child = Child(args, str(rel_out / workdir.name),
                          str(rel_out / f"{name}-spans.json"), i < children - 1, deadline)
            try:
                setups.append(child.ready())
                text = child.finish()
            finally:
                child.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(text.strip().splitlines()[-1])
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["detail"]["setup_runs_s"] = setups
    (out_dir / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "logcvx" / "cli.py").is_file():
        print(f"no logcvx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    try:
        result = run(args)
    except (RuntimeError, ValueError, IndexError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
