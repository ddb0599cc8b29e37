"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. For one input of every family, the independent checks accept the real CLI
   output and reject it once one value in it is corrupted.
2. A short traced run of every workload ends correct, with the line-breaking
   check inputs as its only failed ops.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   with a non-zero status and prints no result.

Files go to perfbench/out/selftest/ and are removed at the end.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from logcvx import cli  # noqa: E402
import inputs  # noqa: E402
import verify  # noqa: E402


def _first_float(values: list) -> int:
    return next(i for i, v in enumerate(values) if isinstance(v, float))


def _bump_value(res):
    vals = res["minorant"]["values"]
    vals[_first_float(vals)] += 1e-3


def _bump_plane(res):
    res["certificates"][3]["h"] += 1e-3


def _bump_gap(res):
    res["max_gap"] += 1e-3


def _flip_convex(res):
    res["globally_convex"] = not res["globally_convex"]


def _drop_q3_failure(res):
    if not res["q3_failures"]:
        return False  # nothing to drop on convex inputs
    # the first is (1, 1); no optimal plane there touches the outer shell, so
    # it cannot be excused as boundary-affected
    res["q3_failures"].pop(0)


def _bump_slack(res):
    row = next(r for r in res["table"] if isinstance(r["max_slack"], float))
    row["max_slack"] += 1e-6


def _flip_found(res):
    res["found"] = not res["found"]


CORRUPTIONS = {
    "minorant": [_bump_value, _bump_plane],
    "check": [_bump_gap, _flip_convex, _drop_q3_failure],
    "relation": [_bump_slack, _flip_found],
}


def _run(op) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(list(op.argv)) != 0:
            raise SystemExit(f"{op.key}: CLI exited non-zero")
    return out.getvalue()


def check_rejects_corruption(workload: str, workdir: Path) -> None:
    rounds = inputs.build(workload, 1, workdir)
    families = {}
    for op in rounds[0]:
        families.setdefault(op.family, op)
    for family, op in families.items():
        if family == "linebreak":
            continue  # the CLI crashes on these today
        text = _run(op)
        verify.output(workload, op.files, text, family)
        for corrupt in CORRUPTIONS[workload]:
            doc = json.loads(text)
            if corrupt(doc["results"]) is False:
                continue
            try:
                verify.output(workload, op.files, json.dumps(doc), family)
            except verify.Mismatch as e:
                print(f"  {workload}/{family}: {corrupt.__name__} rejected: {e}")
            else:
                raise SystemExit(f"{workload}/{family}: {corrupt.__name__} was not rejected")


def short_run(workload: str) -> None:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", "3", "--seconds", "2", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    share = inputs.CHECK_ROUND.count("linebreak") / len(inputs.CHECK_ROUND)
    want_failed = round(res["attempted"] * share) if workload == "check" else 0
    if not res["correct"] or res["failed"] != want_failed:
        raise SystemExit(f"{workload}: short run not correct: {res}")
    print(f"  {workload}: correct, {res['attempted']} attempted, {res['failed']} failed")


def empty_checkout_fails(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"), "--workload",
                          "minorant", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    if out.returncode == 0 or out.stdout.strip():
        raise SystemExit("run.py did not fail without the program's sources")
    print(f"  without sources: exit {out.returncode}, no result")


def main() -> int:
    scratch = HERE / "out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        print("corrupted outputs:")
        for workload in CORRUPTIONS:
            check_rejects_corruption(workload, scratch / workload)
        print("short runs:")
        for workload in CORRUPTIONS:
            short_run(workload)
        print("empty checkout:")
        empty_checkout_fails(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
