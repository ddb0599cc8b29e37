"""Seeded bad inputs through the command line, in process.

Small grids (d <= 3, box entries <= 4, LOG and EXP) have about 15% of their
entries drawn from a list of edge values.  Each grid runs through every
minorant method that applies, check and assoc.  Every run must end with a
documented exit code (0, 2, 3 or 4), raise nothing, warn nothing, and print
a --json payload that parses whenever it exits 0."""
import json
import math
import warnings

from logcvx import SequenceGrid, SplitMix64, as_log_grid, audit_minorant, minorant_lp
from logcvx.cli import main
from logcvx.core import LOG
from logcvx.io import read_grid

EDGES = (0, -0.0, 1e-320, 1e308, -1e308, "inf", "nan", None, 2 ** 70, 709.8, -745)
EDGE_SHARE = 0.15
N_GRIDS = 60
EXIT_CODES = (0, 2, 3, 4)


def _grid(rng: SplitMix64) -> dict:
    """One grid as a JSON object: uniform log values with a_0 = 0 (M_0 = 1 on
    the EXP scale), about EDGE_SHARE of them replaced by edge values."""
    d = 1 + int(3 * rng.random())
    box = [int(5 * rng.random()) for _ in range(d)]
    scale = "log" if rng.random() < 0.5 else "exp"
    n = math.prod(b + 1 for b in box)
    values = []
    for i in range(n):
        if rng.random() < EDGE_SHARE:
            values.append(EDGES[int(len(EDGES) * rng.random())])
            continue
        a = 0.0 if i == 0 else rng.uniform(-1.0, 6.0)
        values.append(a if scale == "log" else math.exp(a))
    return {"box": box, "dim": d, "scale": scale, "values": values}


def _commands(path: str, dim: int) -> list[list[str]]:
    twos = ",".join(["2"] * dim)
    methods = ["lp", "oracle", "dual-grid"] + (["sweep"] if dim == 1 else [])
    return ([["minorant", path, "--method", m] for m in methods]
            + [["check", path, "--s-points", "40"],
               ["assoc", path, "--t", twos, f"--t=0{',0.5' * (dim - 1)}"],
               ["assoc", path, "--trace-k", twos]])


def _audit_findings(g: SequenceGrid) -> list[str]:
    """What audit_minorant reports on the LP minorant of g, and any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        work = as_log_grid(g)
        found = list(audit_minorant(work, minorant_lp(work)))
    return found + [f"audit warned {w.message}" for w in caught]


def test_the_audit_is_quiet_where_its_rounding_scale_overflows():
    # the plane through (0, 0) and (1, 1e308) has k = 1e308, so its terms
    # |h| + |k| (alpha + beta) overflow to +inf at alpha = beta = 1
    assert _audit_findings(SequenceGrid((1,), [0.0, 1e308], LOG)) == []


def test_edge_values_reach_a_documented_exit_code(tmp_path, capsys):
    rng = SplitMix64(20240624)
    failures, codes = [], []
    for g in range(N_GRIDS):
        obj = _grid(rng)
        path = tmp_path / f"g{g}.json"
        path.write_text(json.dumps(obj))
        for argv in _commands(str(path), obj["dim"]):
            for json_flag in ([], ["--json"]):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main(argv + json_flag)
                    except Exception as e:  # a traceback at the command line
                        code = f"{type(e).__name__}: {e}"
                out, err = capsys.readouterr()
                codes.append(code)
                bad = []
                if code not in EXIT_CODES:
                    bad.append(f"raised or exited {code}")
                if caught or "Warning" in err:
                    bad.append(f"warned {[str(w.message) for w in caught]} {err!r}")
                if code == 0 and json_flag:
                    try:
                        json.loads(out)
                    except ValueError:
                        bad.append("--json stdout does not parse")
                if code == 0 and argv[2:] == ["--method", "lp"] and not json_flag:
                    bad += _audit_findings(read_grid(path.read_text()))
                if bad:
                    failures.append((obj, [argv[0], *argv[2:], *json_flag], bad))
    assert failures == []
    assert {0, 2, 4}.issubset(codes)  # the inputs reach success and both kinds of error
