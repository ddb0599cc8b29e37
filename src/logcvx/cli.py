"""Command-line interface.

One binary with subcommands; every command prints a human-readable report by
default and a canonical JSON payload with --json.  The JSON payload is a pure
function of the input bytes and flags (no timestamps, no durations), so two
runs on identical inputs are byte-identical.  Exit codes: 0 success,
1 stdout closed by its reader, 2 validation failure, 3 parse/usage failure on
input files (unreadable, not UTF-8, malformed) or an --out path that cannot be
written, 4 numeric breakdown: a solver that cannot go on, an EXP-scale overflow,
or a floating-point overflow, division by zero or invalid operation (numpy
raises these while a command runs, except in the local np.errstate blocks of
the code that expects them).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import assoc as _assoc
from . import conjugate, envelope, envelope1d, generators, io, lpsolve, matrices
from .core import EXP, LOG, Columns, SequenceGrid, as_log_grid, growth_check, index_array
from .errors import (GridValidationError, LogcvxError, NumericBreakdown, OutOfRange,
                     SchemaError)

_EXIT_PIPE = 1
_EXIT_VALIDATION = 2
_EXIT_PARSE = 3
_EXIT_NUMERIC = 4

_ORACLE_POINT_CAP = 25
_SHOWN = 40  # rows of a list that the human report prints
# gen kinds whose output has one scale; the others default to EXP
_GEN_FIXED_SCALE = {"convex": LOG, "log-convex-1d": EXP, "l37r-counterexample": EXP}
# the options each gen kind reads; giving another is an error
_GEN_READS = {"notconvex": {"box"}, "factorial": {"n"},
              "random": {"box", "seed", "amplitude", "lift"}, "convex": {"box", "seed"},
              "log-convex-1d": {"n", "seed"}, "l37r-counterexample": {"box"}}
_GEN_DEFAULTS = {"box": "4,4", "n": 12, "seed": 0, "amplitude": 4.0, "lift": 1.0}


def _read_file(args, path: str) -> str:
    """The text of an input file; its bytes are appended to args._inputs for
    the digest."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise SchemaError(path, "readable file", str(e)) from None
    args._inputs.append(raw)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(path, "UTF-8 text", str(e)) from None


def _write_file(path: str, text: str) -> None:
    """Write text to an --out file, ending in one newline."""
    try:
        Path(path).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
    except OSError as e:
        raise SchemaError(path, "writable file", str(e)) from None


def _parse_floats(text: str, flag: str, kind=float, what: str = "numbers") -> tuple:
    try:
        return tuple(kind(tok) for tok in text.split(","))
    except ValueError:
        raise SchemaError(flag, f"comma-separated {what}", repr(text)) from None


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    return _parse_floats(text, flag, int, "integers")


def _growth_warnings(g: SequenceGrid) -> list[str]:
    try:
        diag = growth_check(as_log_grid(g))
    except LogcvxError:
        return []
    if not diag.passes:
        return [f"growth: outer-shell ratios do not dominate "
                f"(min outer {diag.min_boundary_ratio:.6g})"]
    return []


def _emit(args, results, warnings: list[str]) -> int:
    """Print the JSON payload (--json) or the human report; results may hold
    dataclasses.  The input digest is the sha256 of the bytes of every file
    the command read, in the order read."""
    if args.json:
        digest = "sha256:" + hashlib.sha256(b"".join(args._inputs)).hexdigest()
        print(io.write_report({"command": args._echo, "input_digest": digest,
                               "results": results, "warnings": warnings}))
        return 0
    _render(io.to_jsonable(results, _SHOWN), indent=0)
    for w in warnings:
        print(f"warning: {w}")
    print(f"duration: {1000.0 * (time.monotonic() - args._started):.1f} ms")
    return 0


def _render(obj, indent: int, key: str | None = None) -> None:
    pad = "  " * indent
    label = f"{pad}{key}: " if key is not None else pad
    if isinstance(obj, dict):
        if key is not None:
            print(f"{pad}{key}:")
        for k, v in obj.items():
            _render(v, indent + (key is not None), k)
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        if key is not None:
            print(f"{pad}{key}:")
        for v in obj[:_SHOWN]:
            _render(v, indent + 1)
        if len(obj) > _SHOWN:
            print(f"{pad}  ... {len(obj) - _SHOWN} more")
    elif isinstance(obj, float):
        print(f"{label}{io.fmt_float(obj)}")
    else:
        print(f"{label}{obj}")


def cmd_minorant(args) -> int:
    if args.k_step is not None and args.method != "dual-grid":
        raise OutOfRange(f"minorant --method {args.method} does not read --k-step")
    g = io.read_grid(_read_file(args, args.input))
    work = as_log_grid(g)
    warnings = _growth_warnings(work)
    if g.scale == EXP:
        warnings.append("input converted to log scale; minorant values below are log scale")

    results: dict = {"method": args.method}
    if args.method == "sweep":
        if work.dim != 1:
            raise OutOfRange("--method sweep needs a one-dimensional grid")
        poly = envelope1d.sweep(work)
        results["minorant"] = io.grid_to_obj(SequenceGrid(work.box, poly.minorant, LOG))
        results["contacts"] = [[p] for p in poly.contacts]
        results["segments"] = poly.segments
        boundary = [[p] for p in poly.boundary_affected]
    elif args.method == "lp":
        res = envelope.minorant_lp(work)
        idx = index_array(work.box)
        has = np.isfinite(res.planes).all(axis=1)
        results["minorant"] = io.grid_to_obj(res.minorant)
        results["contacts"] = idx[res.contact].tolist()
        results["certificates"] = Columns(
            {"alpha": np.flatnonzero(has), "k": res.planes[has, :-1], "h": res.planes[has, -1],
             "touching": res.touching[has]}, idx)
        boundary = idx[res.boundary].tolist()
    elif args.method == "oracle":
        if work.n_points > _ORACLE_POINT_CAP:
            raise OutOfRange(f"--method oracle enumerates subsets and is capped at "
                             f"{_ORACLE_POINT_CAP} grid points; this grid has {work.n_points}")
        idx = index_array(work.box)
        vals = lpsolve.brute_force_batch(idx, work.flat, idx)
        results["minorant"] = io.grid_to_obj(SequenceGrid(work.box, vals, LOG))
        boundary = []
    else:  # dual-grid
        step = envelope.K_STEP if args.k_step is None else args.k_step
        spec = envelope.KGridSpec.from_grid(work, step)
        vals = conjugate.biconjugate(spec.axis_samples(), work.values)
        results["minorant"] = io.grid_to_obj(SequenceGrid(work.box, vals, LOG))
        results["k_grid"] = {"lo": spec.lo, "hi": spec.hi, "step": spec.step}
        boundary = []
    results["boundary_affected"] = boundary
    if boundary:
        warnings.append(
            f"certificates touch the outer shell at {len(boundary)} indices; "
            "values there are upper bounds for any enclosing box")

    if args.stability is not None:
        larger = as_log_grid(io.read_grid(_read_file(args, args.stability)))
        probe = envelope.stability_probe(work, larger)
        results["stability"] = {"max_diff": probe.max_diff, "unstable": probe.unstable}
    return _emit(args, results, warnings)


def cmd_assoc(args) -> int:
    g = io.read_grid(_read_file(args, args.input))
    af = _assoc.AssociatedFunction(g)
    warnings = _growth_warnings(g)
    results: dict = {}
    points = [_parse_floats(text, "--t") for text in args.t or []]
    diagonal = None
    if args.t_grid is not None:
        bounds = _parse_floats(args.t_grid, "--t-grid")
        if len(bounds) != 3:
            raise SchemaError("--t-grid", "LO,HI,N", repr(args.t_grid))
        lo, hi, n = bounds
        if not (0 < lo < hi < math.inf and 2 <= n <= conjugate.MAX_SAMPLES and n == int(n)):
            raise OutOfRange(f"--t-grid needs 0 < LO < HI and a whole N from 2 to "
                             f"{conjugate.MAX_SAMPLES}")
        diagonal = np.repeat(np.geomspace(lo, hi, int(n))[:, None], g.dim, axis=1)
    if points or diagonal is not None:
        T = af.rows(points, "t") if points else np.empty((0, g.dim))
        if diagonal is not None:
            T = np.concatenate([T, diagonal])
        value, argmax, flag = af.evaluate_many(T)
        results["omega"] = Columns({"t": T, "omega": value, "argmax": argmax,
                                    "on_boundary": flag}, index_array(g.box))
        if flag.any():
            warnings.append("some suprema are attained on the outer shell; "
                            "enlarge the box to certify those values")
    if args.trace_k is not None:
        k = _parse_floats(args.trace_k, "--trace-k")
        results["trace"] = {"k": k, "value": af.trace(k)}
    if not results:
        raise OutOfRange("nothing to do: pass --t, --t-grid or --trace-k")
    return _emit(args, results, warnings)


def cmd_check(args) -> int:
    g = io.read_grid(_read_file(args, args.input))
    if args.s_points is not None:  # range-checked as when q3 was sampled; samples nothing
        conjugate.check_samples(args.s_points, g.dim)
    report = _assoc.check_log_convexity(g)
    warnings = _growth_warnings(g)
    if report.boundary_caveat:
        warnings.append("verdicts near the outer shell are box-dependent; "
                        "interior flags shown are trustworthy")
    cw = report.coordinatewise_violation  # (alpha, axis) or None
    results = {
        "coordinatewise_ok": report.coordinatewise_ok,
        "coordinatewise_violation": dict(zip(("alpha", "axis"), cw)) if cw else None,
        "globally_convex": report.globally_convex,
        "max_gap": report.max_gap,
        "interior_max_gap": report.interior_max_gap,
        "q3_holds": report.q3_holds,
        "q3_max_shortfall": report.q3_max_shortfall,
        "q3_worst": report.q3_worst,
        "q3_failures": report.q3_failures,
        "q3_duality_gap": report.q3_duality_gap,
        "boundary_caveat": report.boundary_caveat,
        "minorant": io.grid_to_obj(report.minorant.minorant),
    }
    return _emit(args, results, warnings)


def cmd_matrix(args) -> int:
    if args.matrix_cmd == "counterexample":
        results: dict = {"margins": matrices.l37r_counterexample_curve(args.n_max)}
        if args.box is not None:
            box = _parse_ints(args.box, "--box")
            M = matrices.l37r_counterexample_matrix(box)
            text = io.write_matrix(M)
            if args.out:
                _write_file(args.out, text)
                results["written"] = args.out
            else:
                results["matrix"] = io.read_report(text)
        return _emit(args, results, [])

    M = io.read_matrix(_read_file(args, args.M))
    if args.matrix_cmd == "verify-relation":
        raw_n, raw_w = _read_file(args, args.N), _read_file(args, args.witness)
        N = io.read_matrix(raw_n)
        witness = io.read_relation_witness(raw_w)
        results = matrices.verify_relation(M, N, args.kind, witness)
    elif args.matrix_cmd == "search-relation":
        N = io.read_matrix(_read_file(args, args.N))
        out = matrices.search_relation(M, N, args.kind)
        results = {
            "found": out.witness is not None,
            "witness": io.read_report(io.write_relation_witness(out.witness))
                       if out.witness is not None else None,
            "table": out.table,
        }
    else:  # verify-condition
        witness = io.read_condition_witness(_read_file(args, args.witness))
        results = matrices.verify_condition(M, args.cond, witness)
    return _emit(args, results, [])


def cmd_gen(args) -> int:
    kind = args.kind
    fmt = args.format
    fixed = _GEN_FIXED_SCALE.get(kind)
    if fixed is not None and args.scale not in (None, fixed):
        raise OutOfRange(f"gen {kind} writes {fixed}-scale values; "
                         f"--scale {args.scale} does not apply")
    scale = args.scale or EXP
    for opt, default in _GEN_DEFAULTS.items():
        if getattr(args, opt) is None:
            setattr(args, opt, default)
        elif opt not in _GEN_READS[kind]:
            raise OutOfRange(f"gen {kind} does not read --{opt}")
    if kind == "l37r-counterexample":
        M = matrices.l37r_counterexample_matrix(_parse_ints(args.box, "--box"))
        if fmt == "csv":
            raise OutOfRange("matrix files are JSON only")
        text = io.write_matrix(M)
    else:
        if kind == "notconvex":
            g = generators.notconvex_grid(_parse_ints(args.box, "--box"), scale=scale)
        elif kind == "factorial":
            g = generators.factorial_grid(args.n, scale=scale)
        elif kind == "random":
            g = generators.random_grid(_parse_ints(args.box, "--box"), args.seed, scale=scale,
                                       amplitude=args.amplitude, lift=args.lift)
        elif kind == "convex":
            g = generators.convex_random_grid(_parse_ints(args.box, "--box"), args.seed)
        else:  # log-convex-1d
            g = generators.log_convex_random_1d(args.n, args.seed)
        if fmt == "csv" and g.dim > 2:
            raise OutOfRange("CSV output only covers grids of dimension <= 2")
        text = io.write_grid(g, fmt=fmt)
    if args.out:
        _write_file(args.out, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state between calls."""
    p = argparse.ArgumentParser(
        prog="logcvx",
        description="Convex minorants of multi-index sequences, associated "
                    "weight functions, and weight-matrix comparisons.")
    sub = p.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("minorant", help="largest convex sequence below the data")
    m.add_argument("input")
    m.add_argument("--method", choices=("lp", "sweep", "dual-grid", "oracle"),
                   default="lp")
    m.add_argument("--stability", metavar="LARGER_GRID", default=None,
                   help="recompute on an enclosing grid and compare")
    m.add_argument("--k-step", type=float, default=None,
                   help=f"slope step of --method dual-grid (default {envelope.K_STEP})")
    m.add_argument("--json", action="store_true")

    a = sub.add_parser("assoc", help="weight function omega and its trace")
    a.add_argument("input")
    a.add_argument("--t", action="append", metavar="T1,...,TD",
                   help="evaluate omega at this point (repeatable); join a negative "
                        "first entry with =, as in --t=-1,2")
    a.add_argument("--t-grid", metavar="LO,HI,N", default=None,
                   help="evaluate omega at N geometric points on the diagonal")
    a.add_argument("--trace-k", metavar="K1,...,KD", default=None,
                   help="evaluate the trace function A(k); join a negative first "
                        "entry with =, as in --trace-k=-1,0.5")
    a.add_argument("--json", action="store_true")

    c = sub.add_parser("check", help="log-convexity and regularity report")
    c.add_argument("input")
    c.add_argument("--s-points", type=int, default=None,
                   help="range-checked only: q3 is exact; goes when the benchmark drops it")
    c.add_argument("--json", action="store_true")

    mx = sub.add_parser("matrix", help="weight-matrix relations and conditions")
    mxsub = mx.add_subparsers(dest="matrix_cmd", required=True)
    vr = mxsub.add_parser("verify-relation")
    vr.add_argument("M")
    vr.add_argument("N")
    vr.add_argument("--kind", choices=matrices.RELATION_KINDS, required=True)
    vr.add_argument("--witness", required=True)
    vr.add_argument("--json", action="store_true")
    sr = mxsub.add_parser("search-relation")
    sr.add_argument("M")
    sr.add_argument("N")
    sr.add_argument("--kind", choices=matrices.RELATION_KINDS, required=True)
    sr.add_argument("--json", action="store_true")
    vc = mxsub.add_parser("verify-condition")
    vc.add_argument("M")
    vc.add_argument("--cond", choices=matrices.CONDITIONS, required=True)
    vc.add_argument("--witness", required=True)
    vc.add_argument("--json", action="store_true")
    ce = mxsub.add_parser("counterexample")
    ce.add_argument("--n-max", type=int, default=10)
    ce.add_argument("--box", default=None,
                    help="also build the matrix on this box (e.g. 12,12)")
    ce.add_argument("--out", default=None)
    ce.add_argument("--json", action="store_true")

    gn = sub.add_parser("gen", help="write example grids and matrices")
    gn.add_argument("kind", choices=("notconvex", "factorial", "random",
                                     "convex", "log-convex-1d",
                                     "l37r-counterexample"))
    # None marks an option not given: each kind reads only its own (_GEN_READS)
    for opt, default in _GEN_DEFAULTS.items():
        gn.add_argument(f"--{opt}", type=type(default), default=None, help=f"default {default}")
    gn.add_argument("--scale", choices=(LOG, EXP), default=None,
                    help="notconvex, factorial and random default to exp; "
                         "the other kinds have one scale")
    gn.add_argument("--format", choices=("json", "csv"), default="json")
    gn.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    args._echo = argv
    args._started = time.monotonic()
    args._inputs = []  # filled by _read_file
    try:
        # looked up by name at each call, so a replaced cmd_* function is the one run
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = globals()[f"cmd_{args.cmd}"](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the rest of the output, and the flush
        # at exit, to devnull (the recipe in the docs of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_PIPE
    except SchemaError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return _EXIT_PARSE
    except GridValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        for v in e.violations:
            print(f"  at {v.index}: {v.rule}: {v.message}", file=sys.stderr)
        return _EXIT_VALIDATION
    except (NumericBreakdown, OverflowError, FloatingPointError) as e:
        print(f"numeric breakdown: {e}", file=sys.stderr)
        return _EXIT_NUMERIC
    except LogcvxError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
