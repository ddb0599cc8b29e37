"""Acceptance criteria for the package, one test per criterion.

Each test prints a single [PASS]/[FAIL] line naming the criterion so the run
doubles as a checklist (`pytest tests/test_acceptance.py -v -s`).  Tolerances
and trial counts are part of the criteria and are not tuning knobs.
"""
import json
import math
import time

import numpy as np

from logcvx import (AssociatedFunction, SGridSpec, SequenceGrid, SplitMix64,
                    WeightMatrix, as_log_grid, audit_minorant,
                    check_log_convexity, convex_random_grid, envelope1d,
                    factorial_grid, l37r_counterexample_curve,
                    l37r_counterexample_matrix, minorant_lp, notconvex_grid,
                    q3_supremum, random_grid, to_exp, verify_condition,
                    write_grid, write_matrix)
from logcvx.assoc import _q3
from logcvx.cli import main
from logcvx.conjugate import biconjugate
from logcvx.core import index_array
from logcvx.lpsolve import brute_force_batch
from logcvx.matrices import ConditionEntry, ConditionWitness


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def audited(g):
    """minorant_lp(g), after audit_minorant has re-checked it from the data."""
    res = minorant_lp(g)
    failures = audit_minorant(g, res)
    assert not failures, f"audit of minorant_lp on box {g.box}: {failures}"
    return res


def lattice(box):
    return [tuple(int(c) for c in r) for r in index_array(box)]


def brute_all(g) -> np.ndarray:
    idx = index_array(g.box)
    return brute_force_batch(idx, g.flat, idx)


def test_criterion_01_three_way_agreement_1d():
    started = time.monotonic()
    worst = 0.0
    for seed in range(500):
        n = 1 + seed % 20
        g = random_grid((n,), seed=seed)
        lp = audited(g).minorant.flat
        sweep = np.array(envelope1d.sweep(g).minorant)
        brute = brute_all(g)
        worst = max(worst, float(np.abs(lp - sweep).max()),
                    float(np.abs(lp - brute).max()))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and elapsed < 10.0
    verdict(1, ok, f"sweep/LP/brute agree on 500 seeded 1-D grids "
                   f"(max dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_two_way_agreement_2d_3d():
    started = time.monotonic()
    boxes_2d = [(1, 1), (2, 2), (3, 3), (4, 4), (4, 2), (2, 4), (3, 1), (1, 4)]
    boxes_3d = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (1, 2, 2), (1, 1, 3)]
    worst = 0.0
    for seed in range(200):
        if seed % 2 == 0:
            box = boxes_2d[(seed // 2) % len(boxes_2d)]
        else:
            box = boxes_3d[(seed // 2) % len(boxes_3d)]
        g = random_grid(box, seed=seed + 1000)
        lp = audited(g).minorant.flat
        brute = brute_all(g)
        worst = max(worst, float(np.abs(lp - brute).max()))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    verdict(2, ok, f"LP equals subset-enumeration oracle on 200 seeded 2-D/3-D "
                   f"grids (max dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_notconvex_example():
    g = notconvex_grid()
    report = check_log_convexity(g)
    assert audit_minorant(as_log_grid(g), report.minorant) == ()
    a11 = math.log(g.value((1, 1)))
    ac11 = report.minorant.minorant.value((1, 1))
    q3 = q3_supremum(g, (1, 1))
    ok = (report.coordinatewise_ok
          and ac11 <= 8.0 + 1e-9
          and a11 == 15.0
          and q3 <= math.exp(8.0 * 1.02)
          and not report.q3_holds
          and (1, 1) in report.q3_failures)
    verdict(3, ok, f"coordinatewise-convex grid with a_(1,1)=15 drops to "
                   f"minorant {ac11:.3f} and fails the supremum check "
                   f"(q3=(1,1) -> {q3:.1f})")


def test_criterion_04_convex_by_construction_passes():
    boxes = [(3, 3), (4, 2), (2, 4), (4, 4), (5,), (8,)]
    bad = 0
    for seed in range(100):
        g = to_exp(convex_random_grid(boxes[seed % len(boxes)], seed=seed))
        report = check_log_convexity(g)
        assert audit_minorant(as_log_grid(g), report.minorant) == ()
        if not (report.globally_convex and report.q3_holds):
            bad += 1
    verdict(4, bad == 0, f"100 exp-of-convex grids all report globally_convex "
                         f"and q3_holds ({bad} failures)")


def test_criterion_05_trace_identity():
    worst = 0.0
    checked = 0
    boxes = [(6,), (3, 3), (4, 2), (2, 2, 2), (12,)]
    for seed in range(50):
        g = to_exp(random_grid(boxes[seed % len(boxes)], seed=seed + 2000))
        af = AssociatedFunction(g)
        rng = SplitMix64(seed)
        for _ in range(20):
            k = [rng.uniform(-3.0, 3.0) for _ in range(g.dim)]
            worst = max(worst, abs(af.trace(k) - af(np.exp(k))))
            checked += 1
    ok = checked == 1000 and worst <= 1e-10
    verdict(5, ok, f"|A(k) - omega(e^k)| <= 1e-10 on {checked} (grid, k) "
                   f"pairs (max {worst:.2e})")


def test_criterion_06_q3_never_exceeds_data():
    grids = [notconvex_grid(), factorial_grid(10),
             l37r_counterexample_matrix().grids[0]]
    for seed in range(10):
        grids.append(to_exp(random_grid((3, 3), seed=seed + 3000)))
        grids.append(to_exp(random_grid((8,), seed=seed + 4000)))
        grids.append(to_exp(convex_random_grid((3, 3), seed=seed)))
    worst = -math.inf
    for g in grids:
        lg = as_log_grid(g)
        exact = _q3(AssociatedFunction(g), minorant_lp(lg).planes)
        spec = SGridSpec.from_grid(g)
        x = np.linspace(spec.lo, spec.hi, spec.points)
        sampled = biconjugate(x, lg.values).reshape(-1)
        worst = max(worst, float((exact - lg.flat).max()), float((sampled - lg.flat).max()))
    ok = worst <= 1e-9
    verdict(6, ok, f"q3 supremum, at the certificate slopes and sampled, stays below "
                   f"the data on {len(grids)} grids, every index (max excess {worst:.2e})")


def test_criterion_07_counterexample_margins_and_conditions():
    margins_ok = all(abs(m - n * n) <= 1e-9 * n * n
                     for n, m in l37r_counterexample_curve(20))
    W = l37r_counterexample_matrix()
    axis_pair_ok = True
    for m in range(5):
        A = math.exp(float(m))
        rep = verify_condition(
            W, "L37R", ConditionWitness("L37R", (ConditionEntry(1.0, 1.0, A=A),)))
        n = 2 * m + 1
        fv = rep.first_violation
        axis_pair_ok &= (not rep.holds and fv is not None
                         and {fv.alpha, fv.beta} == {(0, n), (n, 0)})
    l21r = verify_condition(
        W, "L21R",
        ConditionWitness("L21R", (ConditionEntry(1.0, 1.0, A=math.exp(3.0)),)))
    ok = margins_ok and axis_pair_ok and l21r.holds
    verdict(7, ok, "margins are exactly n^2 for n <= 20, every fixed A fails "
                   "on the axis pair once n > 2 log A, and the same matrix "
                   "passes the shift condition with A = e^3")


def test_criterion_08_face_consistency():
    worst = 0.0
    for seed in range(100):
        box = [(3, 3), (4, 2), (2, 4), (4, 4)][seed % 4]
        g = random_grid(box, seed=seed + 5000)
        full = audited(g).minorant.values
        for axis in range(2):
            face = SequenceGrid(
                tuple(n for j, n in enumerate(box) if j != axis),
                np.take(g.values, 0, axis=axis), g.scale)
            face_min = audited(face).minorant.values
            worst = max(worst, float(np.abs(face_min - np.take(full, 0, axis=axis)).max()))
    ok = worst <= 1e-8
    verdict(8, ok, f"face minorant equals restricted minorant on 100 random "
                   f"2-D grids (max dev {worst:.2e})")


def test_criterion_09_idempotence_and_monotonicity():
    worst_idem = 0.0
    for seed in range(30):
        g = random_grid([(6,), (3, 3), (4, 2)][seed % 3], seed=seed + 6000)
        first = audited(g).minorant
        second = audited(first).minorant
        worst_idem = max(worst_idem, float(np.abs(second.flat - first.flat).max()))
    worst_drop = 0.0
    rng = SplitMix64(99)
    for trial in range(50):
        box = [(6,), (3, 3), (4, 2)][trial % 3]
        g = random_grid(box, seed=trial + 7000)
        base = audited(g).minorant.flat
        flat = g.flat.copy()
        flat[rng.next_u64() % flat.size] += rng.uniform(0.1, 2.0)
        raised = audited(SequenceGrid(g.box, flat, g.scale)).minorant.flat
        worst_drop = max(worst_drop, float((base - raised).max()))
    ok = worst_idem <= 1e-9 and worst_drop <= 1e-9
    verdict(9, ok, f"minorant is a fixed point of itself (max move "
                   f"{worst_idem:.2e}) and raising one entry never lowers it "
                   f"(max drop {worst_drop:.2e}, 50 trials)")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    nc = tmp_path / "nc.json"
    nc.write_text(write_grid(notconvex_grid((2, 2))))
    line = tmp_path / "line.json"
    line.write_text(json.dumps(
        {"box": [3], "dim": 1, "scale": "log", "values": [0.0, 2.0, 1.0, 6.0]}))
    larger = tmp_path / "larger.json"
    larger.write_text(json.dumps(
        {"box": [4], "dim": 1, "scale": "log", "values": [0.0, 2.0, 1.0, 6.0, 2.0]}))
    fact = tmp_path / "fact.json"
    fact.write_text(write_grid(factorial_grid(8)))
    fact15 = tmp_path / "fact15.json"
    fact15.write_text(write_matrix(WeightMatrix((1.0,), (factorial_grid(15),))))
    sq15 = tmp_path / "sq15.json"
    sq15.write_text(write_matrix(WeightMatrix(
        (1.0,),
        (SequenceGrid.from_function((15,), lambda a: float(math.factorial(a[0]) ** 2), "exp"),))))
    rel_wit = tmp_path / "rel.json"
    rel_wit.write_text(json.dumps(
        {"kind": "roumieu", "entries": [{"lambda": 1.0, "kappa": 1.0, "C": 10.0}]}))
    cond_wit = tmp_path / "cond.json"
    cond_wit.write_text(json.dumps(
        {"condition": "L37R", "entries": [{"lambda": 1.0, "kappa": 1.0, "A": 1.0}]}))

    commands = [
        ["gen", "notconvex", "--box", "3,3"],
        ["gen", "random", "--box", "2,2", "--seed", "7", "--scale", "log"],
        ["minorant", str(nc), "--json"],
        ["minorant", str(line), "--method", "sweep", "--json"],
        ["minorant", str(line), "--method", "dual-grid", "--json"],
        ["minorant", str(nc), "--method", "oracle", "--json"],
        ["minorant", str(line), "--stability", str(larger), "--json"],
        ["assoc", str(fact), "--t", "2", "--t-grid", "0.5,8,5",
         "--trace-k", "0.7", "--json"],
        ["check", str(nc), "--json"],
        ["matrix", "verify-relation", str(sq15), str(fact15),
         "--kind", "roumieu", "--witness", str(rel_wit), "--json"],
        ["matrix", "search-relation", str(sq15), str(fact15),
         "--kind", "roumieu", "--json"],
        ["matrix", "verify-condition", str(fact15),
         "--cond", "L37R", "--witness", str(cond_wit), "--json"],
        ["matrix", "counterexample", "--n-max", "8", "--json"],
    ]
    unstable = []
    for argv in commands:
        assert main(list(argv)) == 0, f"command failed: {argv}"
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        if first != second:
            unstable.append(argv[0] if argv[0] != "matrix" else " ".join(argv[:2]))
    ok = not unstable
    verdict(10, ok, f"{len(commands)} CLI invocations are byte-identical "
                    f"across repeat runs" + (f" (unstable: {unstable})" if unstable else ""))


def test_criterion_11_holed_grids_pass_the_audit():
    checked = 0
    worst = 0.0
    boxes = [(3, 3), (4, 2), (2, 3), (2, 2, 1), (1, 2, 2), (2, 1, 2)]
    for seed in range(36):
        box = boxes[seed % len(boxes)]
        g = random_grid(box, seed=seed + 8000)
        flat = g.flat.copy()
        rng = SplitMix64(seed)
        # holes anywhere but the origin, the outer shell included
        for _ in range(1 + flat.size // 8):
            flat[1 + rng.next_u64() % (flat.size - 1)] = math.inf
        holed = SequenceGrid(box, flat, g.scale)
        res = audited(holed)
        for alpha, value, ref in zip(lattice(box), res.minorant.flat, brute_all(holed)):
            if math.isinf(ref) or math.isinf(value):
                assert math.isinf(ref) and math.isinf(value), f"{box} {alpha}"
            else:
                worst = max(worst, abs(ref - value))
            checked += 1
    ok = worst <= 1e-8
    verdict(11, ok, f"audit passes on 36 holed 2-D/3-D grids with holes on the "
                    f"outer shell, and {checked} values match the oracle "
                    f"(max dev {worst:.2e})")
