"""One workload in one process: set up, warm up, run the closed loop, check.

Started by run.py, which times set-up from process start until this process
prints READY (imports, input generation and writing, and the first untimed
op).  With --setup-only the process stops there.  Otherwise a single client
calls ``logcvx.cli.main(argv)`` in-process with stdout captured, one CLI
command per op, next op only after the last one returned, in whole rounds.
The loop runs for --seconds seconds and, untraced, on until it has
MIN_OK_OPS successful ops, so the p90 has ten samples beyond it.  After the
loop every output is checked apart from the program (verify.py), and the
last stdout line is the result as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OK_OPS = 100
LOOP_CAP_S = 120.0


class Tally:
    """Latencies and outputs of the ops one loop ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def record(self, ok: bool, seconds: float, text: str) -> None:
        self.attempted += 1
        self.output_bytes += len(text)
        if ok:
            self.latencies.append(seconds)
        else:
            self.failed += 1


class Client:
    """Runs ops through cli.main and keeps the first output of every input."""

    def __init__(self, main):
        self.main = main
        self.first: dict[str, str] = {}
        self.seen: dict[str, int] = {}
        self.differs: set[str] = set()
        self.errors: dict[str, str] = {}

    def call(self, op) -> tuple[bool, float, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                ok = self.main(list(op.argv)) == 0
        except Exception as e:  # a crash inside the program fails this op only
            ok = False
            err.write(f"{type(e).__name__}: {e}")
        seconds = time.perf_counter() - t0
        text = out.getvalue()
        if ok:
            self.seen[op.key] = self.seen.get(op.key, 0) + 1
            if self.first.setdefault(op.key, text) != text:
                self.differs.add(op.key)
        else:
            lines = err.getvalue().strip().splitlines()
            self.errors.setdefault(op.key, lines[-1] if lines else "")
        return ok, seconds, text

    def loop(self, rounds, seconds: float, min_ok: int) -> tuple[Tally, float]:
        tally = Tally()
        start = time.perf_counter()
        i = 0
        while True:
            for op in rounds[i % len(rounds)]:
                tally.record(*self.call(op))
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (len(tally.latencies) >= min_ok or elapsed >= LOOP_CAP_S):
                return tally, elapsed


def end_to_end(tally: Tally, wall: float) -> dict:
    lat = tally.latencies
    return {
        "ops_per_s": {"value": len(lat) / wall, "unit": "ops/s"},
        "latency_mean_ms": {"value": 1e3 * statistics.fmean(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * statistics.quantiles(lat, n=10)[-1], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def check_outputs(workload: str, rounds, client: Client) -> list[str]:
    """Independent checks of every input's output, and byte-identical repeats."""
    import verify  # scipy is loaded only here, after the timed loop

    problems = []
    for op in (op for ops in rounds for op in ops):
        # untimed runs of inputs the loop reached fewer than twice
        while client.seen.get(op.key, 0) < 2 and op.key not in client.errors:
            client.call(op)
        if op.key not in client.first:
            if op.family != "linebreak":
                problems.append(f"{op.key}: op failed: {client.errors[op.key]}")
            continue
        if op.key in client.differs:
            problems.append(f"{op.key}: repeated outputs differ")
        try:
            verify.output(workload, op.files, client.first[op.key], op.family)
        except verify.Mismatch as e:
            problems.append(f"{op.key}: {e}")
    return problems


def traced_run(client: Client, rounds, seconds: float, spans_path: str):
    """Half of ``seconds`` untraced, then half traced: per-layer metrics, the
    tracing overhead, and the ops attempted and failed in both halves."""
    import tracer
    from logcvx import cli

    plain, plain_wall = client.loop(rounds, seconds / 2, 0)
    t = tracer.Tracer()
    client.main = t.main()
    t.install()
    try:
        traced, traced_wall = client.loop(rounds, seconds / 2, 0)
    finally:
        t.uninstall()
        client.main = cli.main
    Path(spans_path).write_text(json.dumps(t.spans), encoding="utf-8")
    metrics = tracer.per_layer(t.spans, traced.attempted, traced.output_bytes)
    plain_rate = len(plain.latencies) / plain_wall
    traced_rate = len(traced.latencies) / traced_wall
    metrics["trace.ops_per_s"] = {"value": traced_rate, "unit": "ops/s"}
    metrics["trace.overhead_ops_per_s"] = {"value": plain_rate - traced_rate, "unit": "ops/s"}
    detail = {"untraced_ops_per_s": plain_rate, "spans": len(t.spans)}
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", required=True, help="file for the spans of a traced run")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from logcvx import cli
    import inputs

    rounds = inputs.build(args.workload, args.seed, Path(args.workdir))
    client = Client(cli.main)
    client.call(rounds[0][0])  # warm-up
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        metrics, attempted, failed, detail = traced_run(client, rounds, args.seconds, args.spans)
    else:
        tally, wall = client.loop(rounds, args.seconds, MIN_OK_OPS)
        metrics = end_to_end(tally, wall)
        attempted, failed = tally.attempted, tally.failed
        detail = {"ops_ok": len(tally.latencies), "wall_s": wall,
                  "latency_p50_ms": 1e3 * statistics.median(tally.latencies)}

    problems = check_outputs(args.workload, rounds, client)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics,
                      "detail": dict(detail, problems=problems, errors=client.errors)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
