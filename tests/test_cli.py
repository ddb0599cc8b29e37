"""End-to-end command-line behavior driven in process through main():
payload shapes, determinism, input digests, exit codes."""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logcvx import (AssociatedFunction, SequenceGrid, convex_random_grid, notconvex_grid,
                    random_grid, read_grid, read_matrix, read_report, write_grid)
from logcvx.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def notconvex_file(tmp_path):
    path = tmp_path / "notconvex.json"
    path.write_text(write_grid(notconvex_grid((2, 2))))
    return str(path)


@pytest.fixture()
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(write_grid(read_grid(json.dumps(
        {"box": [3], "dim": 1, "scale": "log", "values": [0.0, 2.0, 1.0, 6.0]}))))
    return str(path)


# -------------------------------------------------------------------- gen


def test_gen_notconvex_round_trips_through_stdout(capsys):
    code, out, _ = run(capsys, "gen", "notconvex")
    assert code == 0
    g = read_grid(out)
    assert np.array_equal(g.values, notconvex_grid((4, 4)).values)


def test_gen_writes_files_and_csv(tmp_path, capsys):
    target = tmp_path / "fact.csv"
    code, _, _ = run(capsys, "gen", "factorial", "--n", "5",
                     "--format", "csv", "--out", str(target))
    assert code == 0
    g = read_grid(target.read_text())
    assert g.box == (5,)
    assert g.value((5,)) == pytest.approx(120.0)


def test_gen_counterexample_matrix_is_json_only(capsys):
    code, _, err = run(capsys, "gen", "l37r-counterexample",
                       "--box", "6,6", "--format", "csv")
    assert code == 2
    assert "JSON" in err
    code, out, _ = run(capsys, "gen", "l37r-counterexample", "--box", "6,6")
    assert code == 0
    assert read_matrix(out).box == (6, 6)


def test_gen_random_overflow_exits_numeric(capsys):
    code, _, err = run(capsys, "gen", "random", "--box", "4,4",
                       "--scale", "exp", "--lift", "100")
    assert code == 4
    assert "numeric breakdown" in err


@pytest.mark.parametrize("argv", [
    ["gen", "random", "--box", "30,30"],
    ["gen", "notconvex", "--box", "5,5"],
    ["gen", "factorial", "--n", "171"],
    ["gen", "log-convex-1d", "--n", "1000"],
    ["gen", "l37r-counterexample", "--box", "26,26"],
    ["matrix", "counterexample", "--box", "26,26"],
])
def test_every_exp_overflow_exits_numeric(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("numeric breakdown: ")
    assert "overflows the EXP scale" in err


def _two_by_two(m):
    return {"box": [2, 2], "dim": 2, "scale": "log", "values": [0, 1, -m, 2, 3, 4, m, 5, 6]}


@pytest.mark.parametrize("grid, argv", [
    ({"box": [4], "dim": 1, "scale": "log", "values": [0, 4.01, 6.66, 9.29, 1e308]},
     ["minorant", "--method", "sweep"]),
    (_two_by_two(1e300), ["minorant"]),
    (_two_by_two(1e308), ["minorant"]),
    (_two_by_two(1e308), ["check"]),
    (None, ["gen", "random", "--box", "2,2", "--amplitude", "1e308", "--lift", "1e308",
            "--scale", "log"]),
])
def test_a_floating_point_error_exits_numeric(tmp_path, capsys, grid, argv):
    if grid is not None:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        argv = [argv[0], str(path), *argv[1:], "--json"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("numeric breakdown: ")
    assert "Warning" not in err


def test_grid_integer_too_large_for_a_float_exits_numeric(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"box": [2], "dim": 1, "scale": "log", "values": [0, 1, 1'
                    + "0" * 400 + "]}")
    code, out, err = run(capsys, "minorant", str(path), "--json")
    assert code == 4
    assert out == ""
    assert err == "numeric breakdown: int too large to convert to float\n"


@pytest.mark.parametrize("argv, message", [
    (["notconvex", "--box", "4"], "two-dimensional"),
    (["l37r-counterexample", "--box", "4"], "two-dimensional"),
    (["random", "--box", "2,2,2", "--format", "csv"], "CSV"),
    (["log-convex-1d", "--n", "-1"], "nonnegative"),
    (["factorial", "--n", "-3"], "nonnegative"),
    (["convex", "--scale", "exp"], "gen convex writes log-scale values; --scale exp"),
    (["log-convex-1d", "--scale", "log"], "gen log-convex-1d writes exp-scale values"),
    (["l37r-counterexample", "--scale", "log"], "--scale log does not apply"),
])
def test_gen_bad_arguments_are_validation_errors(capsys, argv, message):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_gen_factorial_on_the_log_scale_has_no_double_cap(capsys):
    code, out, _ = run(capsys, "gen", "factorial", "--n", "200", "--scale", "log")
    assert code == 0
    g = read_grid(out)
    assert (g.box, g.scale) == ((200,), "log")
    assert g.flat.tolist() == [math.lgamma(p + 1) for p in range(201)]
    code, out, err = run(capsys, "gen", "factorial", "--n", "171")
    assert (code, out) == (4, "")
    assert err == "numeric breakdown: 171! overflows the EXP scale (log max 711.7)\n"


@pytest.mark.parametrize("argv", [
    ["gen", "random", "--box", "2,-1"],
    ["gen", "random", "--box", "-1"],
    ["gen", "convex", "--box", "2,-1"],
    ["gen", "convex", "--box", "-3"],
    ["gen", "notconvex", "--box", "2,-1"],
    ["gen", "l37r-counterexample", "--box", "3,-2"],
    ["matrix", "counterexample", "--box", "3,-2"],
])
def test_a_negative_box_entry_is_a_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("validation error: bad box (")


@pytest.mark.parametrize("flag", [["--json"], ["--dim", "2"]])
def test_gen_rejects_the_flags_no_kind_reads(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "notconvex", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--amplitude", "nan"), ("--amplitude", "-inf"),
                                         ("--lift", "inf"), ("--lift", "nan")])
def test_gen_random_non_finite_argument_is_a_validation_error(capsys, flag, value):
    code, out, err = run(capsys, "gen", "random", "--box", "3,3", f"{flag}={value}")
    assert (code, out) == (2, "")
    assert err.startswith("validation error:") and "finite" in err


@pytest.mark.parametrize("argv", [
    ["notconvex", "--seed", "5"], ["notconvex", "--amplitude", "9"], ["notconvex", "--n", "2"],
    ["factorial", "--box", "3"], ["factorial", "--seed", "1"],
    ["random", "--n", "3"], ["convex", "--lift", "2"], ["convex", "--amplitude", "1"],
    ["log-convex-1d", "--box", "3"], ["log-convex-1d", "--lift", "0.5"],
    ["l37r-counterexample", "--seed", "1"], ["l37r-counterexample", "--n", "4"],
])
def test_gen_rejects_an_option_its_kind_does_not_read(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (2, "")
    assert err == f"validation error: gen {argv[0]} does not read {argv[1]}\n"


def test_a_closed_stdout_ends_without_a_traceback():
    # 20001 values fill more than a pipe buffer, so a write meets the closed pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "logcvx.cli", "gen", "factorial", "--n", "20000",
         "--scale", "log"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.read(10) == b'{"box":[20'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("flag, value", [("--t", "nan"), ("--t", "inf"), ("--t", "-inf"),
                                         ("--trace-k", "nan"), ("--trace-k", "inf")])
def test_assoc_non_finite_point_is_a_validation_error(tmp_path, capsys, flag, value):
    code, out, err = run(capsys, "assoc", fact_file(tmp_path), f"{flag}={value}", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("validation error:") and "finite" in err


def test_matrix_counterexample_on_a_one_dimensional_box_is_a_validation_error(capsys):
    code, _, err = run(capsys, "matrix", "counterexample", "--box", "4")
    assert code == 2
    assert "two-dimensional" in err


# --------------------------------------------------------------- minorant


def test_minorant_lp_payload(notconvex_file, capsys):
    code, out, _ = run(capsys, "minorant", notconvex_file, "--json")
    assert code == 0
    payload = read_report(out)
    assert payload["command"][0] == "minorant"
    raw = open(notconvex_file, "rb").read()
    assert payload["input_digest"] == "sha256:" + hashlib.sha256(raw).hexdigest()
    res = payload["results"]
    assert res["method"] == "lp"
    assert res["minorant"]["values"] == [0.0, 3.0, 8.0, 3.0, 8.0, 35.0, 8.0, 35.0, 80.0]
    assert [1, 1] not in res["contacts"]
    assert any("log scale" in w for w in payload["warnings"])
    certs = {tuple(c["alpha"]): c for c in res["certificates"]}
    assert len(certs) == 9
    assert certs[(1, 1)]["k"] is not None


def test_minorant_json_is_byte_identical_across_runs(notconvex_file, capsys):
    _, first, _ = run(capsys, "minorant", notconvex_file, "--json")
    _, second, _ = run(capsys, "minorant", notconvex_file, "--json")
    assert first == second


def test_minorant_human_output_has_duration_but_json_does_not(notconvex_file, capsys):
    _, human, _ = run(capsys, "minorant", notconvex_file)
    assert "duration:" in human
    _, machine, _ = run(capsys, "minorant", notconvex_file, "--json")
    assert "duration" not in machine


def test_minorant_sweep_matches_lp_on_a_line(line_file, capsys):
    _, out_lp, _ = run(capsys, "minorant", line_file, "--json")
    _, out_sw, _ = run(capsys, "minorant", line_file, "--method", "sweep", "--json")
    lp = read_report(out_lp)["results"]
    sw = read_report(out_sw)["results"]
    assert lp["minorant"]["values"] == sw["minorant"]["values"] == [0.0, 0.5, 1.0, 6.0]
    assert sw["segments"][0]["slope"] == pytest.approx(0.5)
    assert sw["boundary_affected"] == [[3]]


def test_minorant_sweep_rejects_two_dimensions(notconvex_file, capsys):
    code, _, err = run(capsys, "minorant", notconvex_file, "--method", "sweep")
    assert code == 2
    assert "one-dimensional" in err


def test_minorant_oracle_agrees_with_lp(notconvex_file, capsys):
    _, out_lp, _ = run(capsys, "minorant", notconvex_file, "--json")
    _, out_or, _ = run(capsys, "minorant", notconvex_file, "--method", "oracle", "--json")
    assert (read_report(out_or)["results"]["minorant"]["values"]
            == read_report(out_lp)["results"]["minorant"]["values"])


def test_minorant_oracle_is_capped(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(write_grid(notconvex_grid((5, 5), scale="log")))
    code, _, err = run(capsys, "minorant", str(big), "--method", "oracle")
    assert code == 2
    assert "capped" in err


def test_minorant_dual_grid_lower_bounds_lp(line_file, capsys):
    _, out_lp, _ = run(capsys, "minorant", line_file, "--json")
    _, out_dg, _ = run(capsys, "minorant", line_file,
                       "--method", "dual-grid", "--k-step", "0.25", "--json")
    lp_vals = read_report(out_lp)["results"]["minorant"]["values"]
    dg = read_report(out_dg)["results"]
    assert dg["k_grid"] == {"lo": -1.0, "hi": 5.0, "step": 0.25}
    for d, e in zip(dg["minorant"]["values"], lp_vals):
        assert d <= e + 1e-9


def test_minorant_dual_grid_equals_per_index_dual_value(tmp_path, capsys):
    # against the dense conjugate and its reduction over every slope sample
    from test_conjugate import ref_backward, ref_forward
    from logcvx import KGridSpec
    for seed, box in enumerate([(5,), (3, 4), (2, 2, 2)]):
        g = random_grid(box, seed=seed + 60)
        path = tmp_path / f"g{seed}.json"
        path.write_text(write_grid(g))
        code, out, _ = run(capsys, "minorant", str(path), "--method", "dual-grid",
                           "--k-step", "0.5", "--json")
        assert code == 0
        got = read_report(out)["results"]["minorant"]["values"]
        x = KGridSpec.from_grid(g, step=0.5).axis_samples()
        want = ref_backward(x, ref_forward(x, g.values), g.box)
        assert got == pytest.approx(want.reshape(-1).tolist(), rel=1e-12, abs=1e-12)


def test_minorant_dual_grid_bad_or_tiny_k_step_is_a_validation_error(line_file, capsys):
    for step in ["nan", "inf", "-1", "1e-320", "1e-9"]:
        code, _, err = run(capsys, "minorant", line_file, "--method", "dual-grid",
                           "--k-step", step)
        assert code == 2, step
        assert "validation error" in err


@pytest.mark.parametrize("method", ["lp", "sweep", "oracle"])
def test_minorant_k_step_is_an_error_outside_dual_grid(line_file, capsys, method):
    code, out, err = run(capsys, "minorant", line_file, "--method", method,
                         "--k-step", "0.5", "--json")
    assert (code, out) == (2, "")
    assert err == f"validation error: minorant --method {method} does not read --k-step\n"


def test_minorant_stability_payload(tmp_path, line_file, capsys):
    larger = tmp_path / "larger.json"
    larger.write_text(write_grid(read_grid(json.dumps(
        {"box": [4], "dim": 1, "scale": "log",
         "values": [0.0, 2.0, 1.0, 6.0, 2.0]}))))
    code, out, _ = run(capsys, "minorant", line_file,
                       "--stability", str(larger), "--json")
    assert code == 0
    payload = read_report(out)
    assert payload["results"]["stability"] == {"max_diff": 4.5, "unstable": [[3]]}
    both = open(line_file, "rb").read() + larger.read_bytes()
    assert payload["input_digest"] == "sha256:" + hashlib.sha256(both).hexdigest()


def test_minorant_hole_outside_the_hull_is_left_out_of_certificates(tmp_path, capsys):
    g = random_grid((4, 4), seed=1, scale="log")
    a = g.values.copy()
    a[0, 4] = math.inf
    path = tmp_path / "holed.json"
    path.write_text(write_grid(SequenceGrid(g.box, a, "log")))
    code, out, _ = run(capsys, "minorant", str(path), "--json")
    assert code == 0
    res = read_report(out)["results"]
    assert [0, 4] in res["boundary_affected"]
    assert res["minorant"]["values"][4] == math.inf
    assert [0, 4] not in [c["alpha"] for c in res["certificates"]]
    assert len(res["certificates"]) == 24


def certificate_path_grids():
    """Grids that reach every certificate path of the LP minorant: an index
    outside the hull, a tilted certificate, phase 1 everywhere, and holes."""
    g = random_grid((4, 4), seed=1, scale="log")
    corner = g.values.copy()
    corner[0, 4] = math.inf  # (0, 4) is unbounded and has no certificate
    holed = random_grid((4, 4, 4), seed=5, scale="log").flat.copy()
    holed[np.random.default_rng(0).choice(np.arange(1, holed.size), 10, replace=False)] = math.inf
    return {
        "corner_hole": SequenceGrid((4, 4), corner, "log"),
        "tilted": SequenceGrid((2, 2), [0, 1, 2, 1, 1, 2, 2, 2, 3], "log"),
        "zero_extent": random_grid((4, 0), seed=2, scale="log"),
        "holed_3d": SequenceGrid((4, 4, 4), holed, "log"),
    }


MINORANT_JSON_SHA256 = {
    "corner_hole": "8f0a6602436d5eeec78bafa144e6db5e20b0e8539ba39af9611de7d9ff1c654b",
    "tilted": "647fb8ab6e493851ced0ee5195dc18a24533ffeb5b5f8475e9002090c9e44e6f",
    "zero_extent": "8066dff2d85cf9d001506df8cac97fbacdc1283ebd6dcde4ea0c26f3614999d6",
    "holed_3d": "da0403c9b76227a23e4825c0f55079bec5dd4154d2539803a1df76f61968c9b6",
}


@pytest.mark.parametrize("name", sorted(MINORANT_JSON_SHA256))
def test_minorant_json_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    # a relative path keeps the echoed command, and so the bytes, fixed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(write_grid(certificate_path_grids()[name]))
    code, out, _ = run(capsys, "minorant", "grid.json", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MINORANT_JSON_SHA256[name]


def test_minorant_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "minorant", "/no/such/file.json")
    assert code == 3
    assert "parse error" in err


def test_an_input_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    mf = write_fact_matrix(tmp_path, "m.json", math.factorial)
    for argv in (("minorant", str(bad)),
                 ("matrix", "search-relation", str(bad), str(bad), "--kind", "roumieu"),
                 ("matrix", "verify-condition", mf, "--cond", "L37R", "--witness", str(bad))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"parse error: at {bad}: expected UTF-8 text"), argv


@pytest.mark.parametrize("argv", [("gen", "notconvex"),
                                  ("matrix", "counterexample", "--box", "3,3")])
def test_an_unwritable_out_path_is_a_parse_error(tmp_path, capsys, argv):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (3, ""), target
        assert err.startswith(f"parse error: at {target}: expected writable file"), target


def test_minorant_invalid_grid_lists_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"box": [1], "dim": 1, "scale": "exp", "values": [1.0, -3.0]}))
    code, _, err = run(capsys, "minorant", str(bad))
    assert code == 2
    assert "validation error" in err and "lower_bound" in err


@pytest.mark.parametrize("command", ["minorant", "check"])
@pytest.mark.parametrize("m0", [0.0, -1.0])
def test_non_positive_exp_origin_lists_the_violation(tmp_path, capsys, command, m0):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"box": [2], "dim": 1, "scale": "exp", "values": [m0, 1.0, 2.0]}))
    code, out, err = run(capsys, command, str(bad))
    assert code == 2 and out == ""
    assert err.count("lower_bound") == 1 and "at (0,): lower_bound" in err
    assert "cannot take log" not in err


# ------------------------------------------------------------------ assoc


def fact_file(tmp_path, n=8):
    from logcvx import factorial_grid
    path = tmp_path / "fact.json"
    path.write_text(write_grid(factorial_grid(n)))
    return str(path)


def test_assoc_omega_and_trace_agree(tmp_path, capsys):
    path = fact_file(tmp_path)
    code, out, _ = run(capsys, "assoc", path, "--t", "2",
                       "--trace-k", str(math.log(2.0)), "--json")
    assert code == 0
    res = read_report(out)["results"]
    row = res["omega"][0]
    assert row["omega"] == pytest.approx(math.log(2.0))
    assert row["argmax"] == [1]
    assert res["trace"]["value"] == pytest.approx(row["omega"], abs=1e-10)


def test_assoc_takes_a_negative_first_entry_joined_with_equals(tmp_path, capsys):
    g = random_grid((3, 3), seed=5, scale="log")
    path = tmp_path / "g.json"
    path.write_text(write_grid(g))
    code, out, _ = run(capsys, "assoc", str(path), "--trace-k=-1,0.5", "--json")
    assert code == 0
    assert read_report(out)["results"]["trace"]["value"] == AssociatedFunction(g).trace((-1, 0.5))


def test_assoc_t_grid_rows_are_monotone(tmp_path, capsys):
    path = fact_file(tmp_path)
    code, out, _ = run(capsys, "assoc", path, "--t-grid", "0.5,8,7", "--json")
    assert code == 0
    rows = read_report(out)["results"]["omega"]
    assert len(rows) == 7
    vals = [r["omega"] for r in rows]
    assert vals == sorted(vals)


def test_assoc_boundary_attainment_warns(tmp_path, capsys):
    path = fact_file(tmp_path, n=4)
    code, out, _ = run(capsys, "assoc", path, "--t", "1000", "--json")
    assert code == 0
    payload = read_report(out)
    assert payload["results"]["omega"][0]["on_boundary"] is True
    assert any("outer shell" in w for w in payload["warnings"])


def test_assoc_requires_work_and_valid_points(tmp_path, capsys):
    path = fact_file(tmp_path)
    code, _, err = run(capsys, "assoc", path)
    assert code == 2
    assert "nothing to do" in err
    code, _, err = run(capsys, "assoc", path, "--t", "one")
    assert code == 3
    code, _, err = run(capsys, "assoc", path, "--t", "1,1")
    assert code == 2


@pytest.mark.parametrize("argv, code, err", [
    (["--t", "1,1"], 2, "validation error: t must have length 1\n"),
    (["--t", "1", "--t", "1,2"], 2, "validation error: t must have length 1\n"),
    (["--t", "2", "--t=inf"], 2, "validation error: t must be finite, got (inf,)\n"),
    (["--t", "one"], 3, "parse error: at --t: expected comma-separated numbers, found 'one'\n"),
])
def test_a_bad_t_beside_a_t_grid_fails_as_it_does_alone(tmp_path, capsys, argv, code, err):
    path = fact_file(tmp_path)
    assert run(capsys, "assoc", path, *argv, "--json") == (code, "", err)
    assert run(capsys, "assoc", path, *argv, "--t-grid", "0.5,8,5", "--json") == (code, "", err)
    # a bad --t-grid is reported before the rows are checked, and after --t is parsed
    grid_err = "parse error: at --t-grid: expected LO,HI,N, found '1,2'\n"
    want = (code, "", err) if code == 3 else (3, "", grid_err)
    assert run(capsys, "assoc", path, *argv, "--t-grid", "1,2", "--json") == want


def test_assoc_t_grid_needs_three_numbers(tmp_path, capsys):
    path = fact_file(tmp_path)
    for text in ["1,2", "1,2,3,4"]:
        code, _, err = run(capsys, "assoc", path, "--t-grid", text)
        assert code == 3, text
        assert "LO,HI,N" in err
    # N is a whole number from 2 to conjugate.MAX_SAMPLES = 2**22
    for text in ["1,2,nan", "1,2,inf", "nan,2,3", "1,inf,3", "1,2,1e12", "1,2,4194305",
                 "1,2,2.5"]:
        code, _, _ = run(capsys, "assoc", path, "--t-grid", text)
        assert code == 2, text


def test_assoc_rejects_unnormalized_grids(tmp_path, capsys):
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(
        {"box": [2], "dim": 1, "scale": "exp", "values": [2.0, 3.0, 9.0]}))
    code, _, err = run(capsys, "assoc", str(path), "--t", "1")
    assert code == 2
    assert "normalized" in err


# ------------------------------------------------------------------ check


def test_check_flags_notconvex_data(tmp_path, capsys):
    path = tmp_path / "nc.json"
    path.write_text(write_grid(notconvex_grid()))
    code, out, _ = run(capsys, "check", str(path), "--json")
    assert code == 0
    res = read_report(out)["results"]
    assert res["coordinatewise_ok"] is True
    assert res["globally_convex"] is False
    assert res["q3_holds"] is False
    assert [1, 1] in res["q3_failures"]
    assert res["interior_max_gap"] == pytest.approx(20.0, abs=1e-6)


def test_check_json_is_byte_identical(tmp_path, capsys):
    path = fact_file(tmp_path)
    _, first, _ = run(capsys, "check", path, "--json", "--s-points", "64")
    _, second, _ = run(capsys, "check", path, "--json", "--s-points", "64")
    assert first == second
    res = read_report(first)["results"]
    assert res["globally_convex"] is True and res["q3_holds"] is True


def test_check_caps_the_sample_count(tmp_path, capsys):
    # 100000**2 samples would need 75 GiB; the cap refuses before allocating
    path = tmp_path / "nc.json"
    path.write_text(write_grid(notconvex_grid((3, 3))))
    code, _, err = run(capsys, "check", str(path), "--s-points", "100000")
    assert code == 2
    assert "MAX_SAMPLES" in err


def test_check_defaults_fit_the_sample_cap_in_four_dimensions(tmp_path, capsys):
    # 50**4 samples would exceed MAX_SAMPLES; check samples nothing in any dimension
    path = tmp_path / "c4.json"
    assert run(capsys, "gen", "convex", "--box", "1,1,1,1", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "check", str(path), "--json")
    assert code == 0
    assert read_report(out)["results"]["globally_convex"] is True


def test_check_reports_a_line_violation(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = run(capsys, "gen", "random", "--box", "4,4", "--seed", "7",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(path), "--json")
    assert code == 0
    res = read_report(out)["results"]
    assert res["coordinatewise_ok"] is False
    assert res["coordinatewise_violation"] == {"alpha": [0, 2], "axis": 1}


# ----------------------------------------------------------------- matrix


def write_fact_matrix(tmp_path, name, f, n=6):
    import json as _json
    from logcvx import WeightMatrix, SequenceGrid, write_matrix
    g = SequenceGrid.from_function((n,), lambda a: float(f(a[0])), "exp")
    path = tmp_path / name
    path.write_text(write_matrix(WeightMatrix((1.0,), (g,))))
    return str(path)


def test_matrix_verify_relation_roundtrip(tmp_path, capsys):
    mf = write_fact_matrix(tmp_path, "m.json", math.factorial)
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps(
        {"kind": "roumieu", "entries": [{"lambda": 1.0, "kappa": 1.0, "C": 1.0}]}))
    code, out, _ = run(capsys, "matrix", "verify-relation", mf, mf,
                       "--kind", "roumieu", "--witness", str(wit), "--json")
    assert code == 0
    res = read_report(out)["results"]
    assert res["holds"] is True
    assert res["covers_all_levels"] is True


def test_matrix_verify_relation_rejects_a_witness_of_another_kind(tmp_path, capsys):
    mf = write_fact_matrix(tmp_path, "m.json", math.factorial)
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps(
        {"kind": "triangle", "entries": [{"lambda": 1.0, "kappa": 1.0, "C": 1.0, "h": 0.5}]}))
    code, out, err = run(capsys, "matrix", "verify-relation", mf, mf,
                         "--kind", "roumieu", "--witness", str(wit))
    assert code == 2
    assert out == ""
    assert "triangle" in err


def test_matrix_search_relation_finds_the_constant(tmp_path, capsys):
    msq = write_fact_matrix(tmp_path, "msq.json",
                            lambda p: math.factorial(p) ** 2, n=15)
    mf = write_fact_matrix(tmp_path, "mf.json", math.factorial, n=15)
    code, out, _ = run(capsys, "matrix", "search-relation", msq, mf,
                       "--kind", "roumieu", "--json")
    assert code == 0
    res = read_report(out)["results"]
    assert res["found"] is True
    assert res["witness"]["entries"][0]["C"] == pytest.approx(10.0)


def test_matrix_search_relation_on_different_boxes_is_a_validation_error(tmp_path, capsys):
    m4 = write_fact_matrix(tmp_path, "m4.json", math.factorial, n=4)
    m3 = write_fact_matrix(tmp_path, "m3.json", math.factorial, n=3)
    for kind in ("roumieu", "beurling", "triangle"):
        code, out, err = run(capsys, "matrix", "search-relation", m4, m3, "--kind", kind)
        assert code == 2
        assert out == ""
        assert "share one box" in err


def test_matrix_verify_condition(tmp_path, capsys):
    mf = write_fact_matrix(tmp_path, "m.json", math.factorial)
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps(
        {"condition": "L37R",
         "entries": [{"lambda": 1.0, "kappa": 1.0, "A": 1.0}]}))
    code, out, _ = run(capsys, "matrix", "verify-condition", mf,
                       "--cond", "L37R", "--witness", str(wit), "--json")
    assert code == 0
    assert read_report(out)["results"]["holds"] is True


def test_matrix_bad_witness_constant_is_a_validation_error(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    code, _, _ = run(capsys, "gen", "l37r-counterexample", "--box", "4,4",
                     "--out", str(mpath))
    assert code == 0
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps(
        {"condition": "L21R", "entries": [{"lambda": 1, "kappa": 1, "A": -1}]}))
    code, _, err = run(capsys, "matrix", "verify-condition", str(mpath),
                       "--cond", "L21R", "--witness", str(wit))
    assert code == 2
    assert "A > 0" in err


@pytest.mark.parametrize("kind, entry", [
    ("roumieu", {"C": "nan"}),
    ("roumieu", {"C": None}),
    ("roumieu", {"C": "inf"}),
    ("beurling", {"C": "-inf"}),
    ("triangle", {"C": 1.0, "h": "nan"}),
    ("triangle", {"C": 1.0, "h": "inf"}),
])
def test_matrix_non_finite_relation_constant_is_a_validation_error(tmp_path, capsys,
                                                                   kind, entry):
    mf = write_fact_matrix(tmp_path, "m.json", math.factorial)
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps(
        {"kind": kind, "entries": [{"lambda": 1.0, "kappa": 1.0, **entry}]}))
    code, out, err = run(capsys, "matrix", "verify-relation", mf, mf,
                         "--kind", kind, "--witness", str(wit), "--json")
    assert (code, out) == (2, "")
    assert "finite" in err


@pytest.mark.parametrize("cond, entry", [
    ("L21R", {"A": "nan"}),
    ("L37R", {"A": "inf"}),
    ("L12R", {"B": 1.0, "C": "nan", "H": 1.0}),
    ("L12B", {"H": 1.0, "pairs": [[1.0, "inf"]]}),
    ("L12B", {"H": 1.0, "pairs": [[2.0, 1.0], ["nan", 1.0]]}),
    ("L12B", {"H": "inf", "pairs": [[1.0, 1.0]]}),
])
def test_matrix_non_finite_condition_constant_is_a_validation_error(tmp_path, capsys,
                                                                    cond, entry):
    mf = write_fact_matrix(tmp_path, "m.json", math.factorial)
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps(
        {"condition": cond, "entries": [{"lambda": 1.0, "kappa": 1.0, **entry}]}))
    code, out, err = run(capsys, "matrix", "verify-condition", mf,
                         "--cond", cond, "--witness", str(wit), "--json")
    assert (code, out) == (2, "")
    assert "finite" in err


def test_matrix_counterexample_curve_and_file(tmp_path, capsys):
    out_path = tmp_path / "cx.json"
    code, out, _ = run(capsys, "matrix", "counterexample", "--n-max", "5",
                       "--box", "12,12", "--out", str(out_path), "--json")
    assert code == 0
    res = read_report(out)["results"]
    assert res["margins"] == [[1, 1.0], [2, 4.0], [3, 9.0], [4, 16.0], [5, 25.0]]
    assert res["written"] == str(out_path)
    assert read_matrix(out_path.read_text()).box == (12, 12)


def test_matrix_bad_witness_file_is_a_parse_error(tmp_path, capsys):
    mf = write_fact_matrix(tmp_path, "m.json", math.factorial)
    wit = tmp_path / "w.json"
    wit.write_text('{"kind": "sideways", "entries": []}')
    code, _, err = run(capsys, "matrix", "verify-relation", mf, mf,
                       "--kind", "roumieu", "--witness", str(wit))
    assert code == 3
    assert "parse error" in err


def test_matrix_verify_relation_with_no_entries_does_not_hold(tmp_path, capsys):
    mf = write_fact_matrix(tmp_path, "m.json", math.factorial)
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps({"kind": "roumieu", "entries": []}))
    code, out, _ = run(capsys, "matrix", "verify-relation", mf, mf,
                       "--kind", "roumieu", "--witness", str(wit), "--json")
    assert code == 0
    res = read_report(out)["results"]
    assert res["checked"] == 0
    assert res["covers_all_levels"] is False
    assert res["holds"] is False


def test_matrix_verify_condition_with_no_entries_does_not_hold(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    assert run(capsys, "gen", "l37r-counterexample", "--box", "4,4", "--out", str(mpath))[0] == 0
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps({"condition": "L37R", "entries": []}))
    code, out, _ = run(capsys, "matrix", "verify-condition", str(mpath),
                       "--cond", "L37R", "--witness", str(wit), "--json")
    assert code == 0
    res = read_report(out)["results"]
    assert res["checked"] == 0
    assert res["covers_all_levels"] is False
    assert res["holds"] is False


# ------------------------------------------------ output against two passes


def _output_corpus(tmp_path):
    """argv (without --json) of every command and minorant method."""
    from logcvx import WeightMatrix, write_matrix
    from logcvx.core import LOG, order_array
    nc = tmp_path / "nc.json"
    nc.write_text(write_grid(notconvex_grid((2, 2))))
    holed = random_grid((3, 3), 5, scale=LOG).flat.copy()
    holed[[5, 15]] = math.inf
    hf = tmp_path / "holed.json"
    hf.write_text(write_grid(SequenceGrid((3, 3), holed, LOG)))
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"box": [3], "dim": 1, "scale": "log",
                                "values": [0.0, 2.0, 1.0, 6.0]}))
    larger = tmp_path / "larger.json"
    larger.write_text(json.dumps({"box": [4], "dim": 1, "scale": "log",
                                  "values": [0.0, 2.0, 1.0, 6.0, 2.0]}))
    fact = fact_file(tmp_path)
    orders = order_array((5, 5))
    ladder = [WeightMatrix((1.0, 2.0), tuple(SequenceGrid((5, 5), np.exp(c * orders), "exp")
                                             for c in (0.1 + lift, 0.4 + lift)))
              for lift in (0.0, 0.15)]
    mats = []
    for name, m in zip(("m.json", "n.json"), ladder):
        (tmp_path / name).write_text(write_matrix(m))
        mats.append(str(tmp_path / name))
    sq = write_fact_matrix(tmp_path, "sq.json", lambda p: math.factorial(p) ** 2)
    mf = write_fact_matrix(tmp_path, "mf.json", math.factorial)
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"kind": "triangle", "entries": [
        {"lambda": 1.0, "kappa": 1.0, "C": 2.0, "h": 0.5},
        {"lambda": 2.0, "kappa": 2.0, "C": 1.0, "h": 0.25}]}))
    cond = tmp_path / "cond.json"
    cond.write_text(json.dumps({"condition": "L12B", "entries": [
        {"lambda": 1.0, "kappa": 1.0, "H": 2.0, "pairs": [[1.0, 1.0], [2.0, 3.0]]}]}))
    return [
        ["minorant", str(hf)],
        ["minorant", str(nc), "--method", "lp"],
        ["minorant", str(line), "--method", "sweep"],
        ["minorant", str(hf), "--method", "oracle"],
        ["minorant", str(hf), "--method", "dual-grid"],
        ["minorant", str(line), "--stability", str(larger)],
        ["assoc", fact, "--t", "2", "--t-grid", "0.5,8,5", "--trace-k", "0.7"],
        ["check", str(nc)],
        ["check", str(hf)],
        ["matrix", "verify-relation", *mats, "--kind", "triangle", "--witness", str(rel)],
        ["matrix", "search-relation", *mats, "--kind", "triangle"],
        ["matrix", "search-relation", sq, mf, "--kind", "roumieu"],
        ["matrix", "verify-condition", mf, "--cond", "L12B", "--witness", str(cond)],
        ["matrix", "counterexample", "--n-max", "6", "--box", "3,3"],
    ]


def test_output_matches_the_two_pass_walk_on_every_command(tmp_path, capsys, monkeypatch):
    from logcvx import io
    from test_io import _ref_to_jsonable, reference_write_report

    def outputs():
        texts = []
        for argv in _output_corpus(tmp_path):
            for flags in (["--json"], []):
                code, out, _ = run(capsys, *argv, *flags)
                assert code == 0, argv
                texts.append([line for line in out.splitlines()
                              if not line.startswith("duration:")])
        return texts

    ours = outputs()
    monkeypatch.setattr(io, "write_report", reference_write_report)
    monkeypatch.setattr(io, "to_jsonable", _ref_to_jsonable)
    assert ours == outputs()


def test_search_relation_json_matches_the_two_pass_walk_for_every_kind(tmp_path, capsys,
                                                                       monkeypatch):
    from logcvx import WeightMatrix, io, write_matrix
    from logcvx.core import order_array
    from test_io import reference_write_report
    orders = order_array((4, 4))
    paths = []
    for name, lift, hole in (("m.json", 0.0, None), ("n.json", 0.15, None),
                             ("mh.json", 0.0, 7), ("nh.json", 0.15, 7)):
        grids = []
        for c in (0.1 + lift, 0.4 + lift):
            flat = np.exp(c * orders)
            if hole is not None:
                flat[[hole, 24]] = math.inf
            grids.append(SequenceGrid((4, 4), flat, "exp"))
        (tmp_path / name).write_text(write_matrix(WeightMatrix((1.0, 2.0), tuple(grids))))
        paths.append(str(tmp_path / name))
    m, n, mh, nh = paths
    argvs = [["matrix", "search-relation", a, b, "--kind", kind, "--json"]
             for kind in ("roumieu", "beurling", "triangle")
             for a, b in ((m, n), (mh, nh), (m, nh), (nh, mh))]

    def outputs():
        return [run(capsys, *argv)[:2] for argv in argvs]

    ours = outputs()
    assert all(code == 0 for code, _ in ours)
    assert any('"h":null' in out for _, out in ours)
    monkeypatch.setattr(io, "write_report", reference_write_report)
    assert ours == outputs()


# (M, N) from the ladders of test_matrices: finite, and with +inf holes that
# give +inf slacks; roumieu and beurling rows carry "h":null
RELATION_PIN_CASES = {
    "roumieu": ("roumieu", "HIGH", "LOW"),
    "beurling": ("beurling", "LOW", "STEEP"),
    "triangle": ("triangle", "LOW", "HIGH"),
    "roumieu_holed": ("roumieu", "HOLED_LOW", "HOLED_HIGH"),
    "beurling_holed": ("beurling", "HOLED_HIGH", "HOLED_LOW"),
    "triangle_holed": ("triangle", "HOLED_LOW", "HOLED_HIGH"),
}
# sha256 of the --json stdout, and of the human stdout less its duration line
RELATION_SHA256 = {
    "beurling": ("8fe55c5eeef9b3c818248feea8c7496320f1de3503f2a584fa15e81511275b38",
                 "96887111d04dee583eca3978107f0881a18832db64e09b35c9900b4aaabcadc5"),
    "beurling_holed": ("6afbec8fae3c9b77b6719cc482650b948aad5e544f6929f89c480b8324b26a59",
                       "6147e3f6770c7233c8f16582bf1091747b711d04fc2c0126ceeb79022e2eeedd"),
    "roumieu": ("7cc46c5ef69be78b93fc940db2a612860a195292b061e45fe7c8ccd8fd89e832",
                "1bb132a79f94aa24cccd2d209c45f2bb6e43494ab96335bf2714ed96def6b845"),
    "roumieu_holed": ("1bb561f4626a6c5336ee135ccefaa099b72fbee255e05f403003b288d0c6cdd8",
                      "d5e3b98163396068a1bcfc9eccc8bda02e7a70e72df2cc1baa287b1b3452c930"),
    "triangle": ("c248f7550f84a27c02cb9351c806c809277c94d94cf4fd94db5749b046f56da9",
                 "f7427d0719c4d6d7b9e459828d73ead0c18c658fed1d34c5d5b61c14256ac0b7"),
    "triangle_holed": ("37bbdff4355d6d00f6dabc9f3f3ab65133b1f53bcc880dcb2524b195f61e0607",
                       "64a7948cd5d61efd653d7bd2679434734994a0e792c932824c627aaeb8b7c94d"),
}


@pytest.mark.parametrize("name", sorted(RELATION_PIN_CASES))
def test_search_relation_output_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    import test_matrices
    from logcvx import write_matrix
    kind, m, n = RELATION_PIN_CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(write_matrix(getattr(test_matrices, m)))
    (tmp_path / "n.json").write_text(write_matrix(getattr(test_matrices, n)))
    code, out, _ = run(capsys, "matrix", "search-relation", "m.json", "n.json",
                       "--kind", kind, "--json")
    assert code == 0
    code, human, _ = run(capsys, "matrix", "search-relation", "m.json", "n.json",
                         "--kind", kind)
    assert code == 0
    lines = human.splitlines()
    assert lines[-1].startswith("duration:")
    rows = len(read_report(out)["results"]["table"])
    assert sum(line.startswith("  lam: ") for line in lines) == min(40, rows)
    assert [line for line in lines if line.startswith("  ... ")] == (
        [f"  ... {rows - 40} more"] if rows > 40 else [])
    human = "\n".join(lines[:-1])
    assert ('"max_slack":"inf"' in out) == name.endswith("_holed")
    assert ('"h":null' in out) == (kind != "triangle")
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(human.encode()).hexdigest()) == RELATION_SHA256[name]


# one level each on a 1-D box: (M's values, N's values)
RELATION_EDGE_PAIRS = {
    "one_point": ([1.0], [1.0]),
    "inf_off_origin": ([1.0] + [math.inf] * 4, [1.0] + [math.inf] * 4),
    "inf_over_finite": ([1.0] + [math.inf] * 4, [1.0, 2.0, 6.0, 24.0, 120.0]),
    "finite_over_inf": ([1.0, 2.0, 6.0, 24.0, 120.0], [1.0] + [math.inf] * 4),
    # triangle at h = 2^-10: log C* = 120 * 10 log 2 = 831.8, past exp's range
    "overflow": ([1.0] * 121, [1.0] * 121),
}


@pytest.mark.parametrize("name", sorted(RELATION_EDGE_PAIRS))
@pytest.mark.parametrize("kind", ["roumieu", "beurling", "triangle"])
def test_search_relation_edge_inputs_print_every_c_min(name, kind, tmp_path, capsys):
    from logcvx import WeightMatrix, write_matrix
    paths = []
    for side, values in zip("MN", RELATION_EDGE_PAIRS[name]):
        grid = SequenceGrid((len(values) - 1,), values, "exp")
        (tmp_path / f"{side}.json").write_text(write_matrix(WeightMatrix((1.0,), (grid,))))
        paths.append(str(tmp_path / f"{side}.json"))
    code, out, err = run(capsys, "matrix", "search-relation", *paths, "--kind", kind, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["warnings"] == []
    c_min = [row["C_min"] for row in payload["results"]["table"]]
    assert all(isinstance(c, (int, float)) or c == "inf" for c in c_min)
    assert ("inf" in c_min) == (name == "overflow" and kind == "triangle"
                                or name == "inf_over_finite")
    code, human, err = run(capsys, "matrix", "search-relation", *paths, "--kind", kind)
    assert (code, err) == (0, "")
    assert "warning" not in human
    shown = [line.split(": ")[1] for line in human.splitlines() if line.startswith("  C_min: ")]
    assert len(shown) == len(c_min)
    assert all(c == "inf" or math.isfinite(float(c)) for c in shown)


# ------------------------------------------------------ one parser per process


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    from logcvx import cli
    fact = fact_file(tmp_path)
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"box": [3], "dim": 1, "scale": "log",
                                "values": [0.0, 2.0, 1.0, 6.0]}))
    calls = [["assoc", fact, "--t", "2", "--t", "3", "--json"],
             ["assoc", fact, "--t", "4"],
             ["minorant", str(line), "--method", "sweep", "--json"],
             ["minorant", str(line)],
             ["assoc", fact, "--trace-k", "0.7", "--json"]]

    def text(out):
        return [line for line in out.splitlines() if not line.startswith("duration:")]

    in_a_row = [run(capsys, *argv) for argv in calls]
    assert cli._parser.cache_info().currsize == 1
    for argv, (code, out, err) in zip(calls, in_a_row):
        cli._parser.cache_clear()
        alone_code, alone_out, alone_err = run(capsys, *argv)
        assert (code, text(out), err) == (alone_code, text(alone_out), alone_err)
    assert len(read_report(in_a_row[0][1])["results"]["omega"]) == 2
    assert "omega:" in in_a_row[1][1] and "t: [4.0]" in in_a_row[1][1]
    assert read_report(in_a_row[2][1])["results"]["method"] == "sweep"
    assert "method: lp" in in_a_row[3][1]
    assert "omega" not in read_report(in_a_row[4][1])["results"]
    args = cli._parser().parse_args(["assoc", fact, "--t", "5"])
    assert (args.t, args.json, args.trace_k) == (["5"], False, None)


def test_a_usage_error_exits_2_on_every_call(tmp_path, capsys):
    fact = fact_file(tmp_path)
    for argv in (["check"], ["minorant", fact, "--method", "simplex"], ["nonsense"]):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage:" in capsys.readouterr().err
    assert run(capsys, "check", fact, "--json")[0] == 0


def test_main_runs_a_replaced_command(tmp_path, capsys, monkeypatch):
    from logcvx import cli
    fact = fact_file(tmp_path)
    assert run(capsys, "check", fact)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.input) or 7)
    assert main(["check", fact]) == 7
    assert seen == [fact]


# ------------------------------------------------------ verifier pins


# two entries per condition on the single-level 12x12 counterexample
CONDITION_PIN_ENTRIES = {
    "L37R": [{"A": 20.0}, {"A": 1.5}],
    "63B": [{"A": 1.5}, {"A": 20.0}],
    "L21R": [{"A": 20.0}, {"A": 1.5}],
    "L21B": [{"A": 20.0}, {"A": 400.0}],
    "L12R": [{"B": 2.0, "C": 3.0, "H": 20.0}, {"B": 1.0, "C": 1.0, "H": 1.0}],
    "L12B": [{"H": 20.0, "pairs": [[1.0, 1.0], [3.0, 2.0]]}, {"H": 1.5, "pairs": [[2.0, 5.0]]}],
}
# sha256 of the --json stdout
CONDITION_SHA256 = {
    "63B": "5131b9d8372fe2f1f709392bb4db6c1e1dfde85162b76f1f00c0be4f223911a6",
    "L12B": "b1a1af9073c1365603ec4f7b580d508e4bd406e8e87b46a39ed9c87cb8b89c48",
    "L12R": "c2474e263d1068fdafbedee67a26f790b59eb307196619cb1c73ee59c49d594e",
    "L21B": "67c3f9eb9a531305a5d0be9e7a10dc65f54e58b57d8388c5d05e5518fa2d1507",
    "L21R": "d0acefe9d200626d3b21fb4b2dec3da5f0a751877869071efc8549017b9b362a",
    "L37R": "3c33908d1fa00e5366f4688f4ba6720a3575aa4bff3d00f79880effd4628a40a",
}


@pytest.mark.parametrize("condition", sorted(CONDITION_PIN_ENTRIES))
def test_verify_condition_json_bytes_are_pinned(condition, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "gen", "l37r-counterexample", "--box", "12,12", "--out", "m.json")[0] == 0
    (tmp_path / "w.json").write_text(json.dumps({"condition": condition, "entries": [
        dict({"lambda": 1.0, "kappa": 1.0}, **kw) for kw in CONDITION_PIN_ENTRIES[condition]]}))
    code, out, _ = run(capsys, "matrix", "verify-condition", "m.json", "--cond", condition,
                       "--witness", "w.json", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONDITION_SHA256[condition]


# sha256 of the --json stdout on the holed ladders of test_matrices
VERIFY_RELATION_SHA256 = {
    "beurling": "50f129b181a10714a9d6d0ec7111f08164bcde696714e9dc1ffa0bfab9c13a9e",
    "roumieu": "a1ed919863eb367368609774f23ba4975061df23d6c1e84974f8779f2e0866e4",
    "triangle": "21b99648b54e5c06b14a421440e432e0dac78c211deabce42e4241fd63ecbe04",
}


@pytest.mark.parametrize("kind", ["roumieu", "beurling", "triangle"])
def test_verify_relation_json_bytes_are_pinned(kind, tmp_path, monkeypatch, capsys):
    import test_matrices
    from logcvx import write_matrix, write_relation_witness
    M, N = test_matrices.HOLED_LOW, test_matrices.HOLED_HIGH
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(write_matrix(M))
    (tmp_path / "n.json").write_text(write_matrix(N))
    (tmp_path / "w.json").write_text(write_relation_witness(
        test_matrices.scan_relation_witness(M, N, kind, False)))
    code, out, _ = run(capsys, "matrix", "verify-relation", "m.json", "n.json",
                       "--kind", kind, "--witness", "w.json", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_RELATION_SHA256[kind]


# ------------------------------------------- pins of the tolerance-bound outputs


def tolerance_pin_grids():
    """Inputs whose --json outputs every tolerance of the package reaches: the
    three families of the benchmark's check workload on (6, 6), a random grid
    whose window is unstable inside it, and small grids for the other routes."""
    notjoint = notconvex_grid((6, 6), scale="log").flat + convex_random_grid((6, 6), 4).flat
    large = random_grid((6, 6), seed=2, scale="log")
    return {
        "convex": convex_random_grid((6, 6), 3),
        "notjoint": SequenceGrid((6, 6), notjoint, "log"),
        "linebreak": random_grid((6, 6), seed=7, scale="log"),
        "small": SequenceGrid((4, 4), large.values[:5, :5], "log"),
        "large": large,
        "line": random_grid((12,), seed=3, scale="log"),
        "oracle": random_grid((3, 3), seed=1, scale="log"),
    }


TOLERANCE_PIN_COMMANDS = {
    "check_convex": ["check", "convex.json", "--s-points", "600"],
    "check_notjoint": ["check", "notjoint.json", "--s-points", "600"],
    "check_linebreak": ["check", "linebreak.json", "--s-points", "600"],
    "assoc": ["assoc", "convex.json", "--t", "1.5,2", "--t", "40,0.5",
              "--t-grid", "0.5,30,9", "--trace-k", "0.5,1.25"],
    "assoc_notjoint": ["assoc", "notjoint.json", "--t", "3,3", "--t-grid", "0.1,1e3,6",
                       "--trace-k", "2,-1"],
    "stability": ["minorant", "small.json", "--stability", "large.json"],
    "sweep": ["minorant", "line.json", "--method", "sweep"],
    "oracle": ["minorant", "oracle.json", "--method", "oracle"],
    "dual_grid": ["minorant", "oracle.json", "--method", "dual-grid"],
    "dual_grid_line": ["minorant", "line.json", "--method", "dual-grid", "--k-step", "0.1"],
}
# sha256 of the --json stdout
TOLERANCE_PIN_SHA256 = {
    "assoc": "090786372e3228f40b35e1713609685825cc376a14ec5d921745b05089f512e5",
    "assoc_notjoint": "b1287f28a542275cb3db4fc2935dd39c5957d80cf8c9e6fbea459448f9778181",
    "check_convex": "ee2f6d027ddefc6e862107722ae45c8ccac2d06deee592191a5e6a6541080df9",
    "check_linebreak": "4a38606522970548f14c7028c25601bb25dd53cea86da44ebea0e826d438a8e2",
    "check_notjoint": "355b63e45382ea1a45271dc0e075b7afe6247d5d3ba2257870a1e657bb18cc83",
    "dual_grid": "aa6d9cbe01a7f2190f0e3ef63712350981089994ba328bba0d319732039abec1",
    "dual_grid_line": "f80cb70c2b5a383b8e4db099916ab62adaeb3437aa85d6ff084f606d633e59b9",
    "oracle": "d7275eef6fe49b2248f81aac7ee7ca459afecf4cd12f3a6815f8f6d0df938fca",
    "stability": "3e8d5503d6b3de552117d9b08087cf5b66a79b7fa101b881b81798be37193f48",
    "sweep": "bfeea80dea329d565fb235c766bcb448deb0e3625f00d01fc95d3e133ac34fdf",
}


@pytest.mark.parametrize("name", sorted(TOLERANCE_PIN_COMMANDS))
def test_tolerance_bound_outputs_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for stem, g in tolerance_pin_grids().items():
        (tmp_path / f"{stem}.json").write_text(write_grid(g))
    code, out, _ = run(capsys, *TOLERANCE_PIN_COMMANDS[name], "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TOLERANCE_PIN_SHA256[name]


# ------------------------------------------- output against the BLAS kernel

# Each of these printed other bytes under another OpenBLAS kernel when
# convex_random_grid summed its pieces, and omega its terms, in a matrix
# product, or when the oracle solved its subsets with LAPACK.
KERNEL_COMMANDS = [
    ["gen", "convex", "--box", "6,6", "--seed", "0"],
    ["gen", "convex", "--box", "3,3,3", "--seed", "2"],
    ["assoc", "convex2.json", "--t", "1.5,2", "--t-grid", "0.1,20,200",
     "--trace-k", "0.5,1.25", "--json"],
    ["assoc", "convex4.json", "--t", "1.5,2,0,3", "--t-grid", "0.1,20,200",
     "--trace-k", "0.5,1.25,-1,2", "--json"],
    ["check", "convex2.json", "--s-points", "600", "--json"],
    ["minorant", "convex2.json", "--json"],
    ["minorant", "oracle.json", "--method", "oracle", "--json"],
]


def test_output_does_not_depend_on_the_blas_kernel(tmp_path):
    (tmp_path / "convex2.json").write_text(write_grid(convex_random_grid((6, 6), 3)))
    (tmp_path / "convex4.json").write_text(write_grid(convex_random_grid((3, 3, 3, 3), 1)))
    (tmp_path / "oracle.json").write_text(write_grid(random_grid((3, 3), seed=1, scale="log")))
    script = f"from logcvx.cli import main\nfor argv in {KERNEL_COMMANDS!r}:\n    main(argv)\n"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    # the kernel is chosen when numpy loads, so each kernel needs its own process
    outs = [subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=dict(env, **extra),
                           capture_output=True, text=True, check=True).stdout
            for extra in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"})]
    assert outs[0].count('"command"') == 5
    assert outs[0] == outs[1]
