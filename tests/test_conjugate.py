"""The per-axis conjugate kernel and the omega kernel against a dense scan of
every sample against every point, on random, convex, +inf-holed, 1-D, 3-D and
zero-extent boxes; the blocked biconjugate against the unblocked forward and
backward passes, bit for bit, and the omega kernel against the forward pass;
``check``'s q3 failures and boundary caveat against its LP certificates; the
sample cap; the dual routes built on the kernel; and the lanes both kernels
run in, which change no bit of any output whatever the core count."""
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from logcvx import (LOG, AssociatedFunction, EmptySGrid, KGridSpec, OutOfRange, SGridSpec,
                    SequenceGrid, SplitMix64, check_log_convexity, conjugate,
                    convex_random_grid, minorant_lp, notconvex_grid, random_grid,
                    write_grid)
from logcvx.assoc import TIE_REL_TOL
from logcvx.cli import main
from logcvx.conjugate import MAX_SAMPLES, biconjugate, check_samples
from logcvx.core import SLACK_TOL, index_array, multi_indices, order_array, outer_shell_mask


def s_samples(g, m):
    """m log-uniform samples per axis over the grid's axis slope range."""
    spec = SGridSpec.from_grid(g, points=m)
    return np.linspace(spec.lo, spec.hi, spec.points)


def product(x, d):
    return np.stack([c.reshape(-1) for c in np.meshgrid(*[x] * d, indexing="ij")], axis=1)


def dense_q3(a, box, x):
    """omega, its boundary flags and the q3 supremum, from one matrix of every
    sample against every point."""
    idx = index_array(box).astype(float)
    L = product(x, len(box)) @ idx.T
    with np.errstate(invalid="ignore"):
        W = L - a[None, :]
    om = W.max(axis=1)
    interior = ~outer_shell_mask(box)
    if interior.any():
        flags = W[:, interior].max(axis=1) < om - TIE_REL_TOL * np.maximum(1.0, np.abs(om))
    else:
        flags = np.ones(om.size, dtype=bool)
    return om, flags, (L - om[:, None]).max(axis=0)


def holed(box, seed):
    a = random_grid(box, seed=seed).flat.copy()
    rng = SplitMix64(seed)
    for i in range(1, a.size):
        if rng.uniform(0.0, 1.0) < 0.2:
            a[i] = math.inf
    return SequenceGrid(box, a)


def corpus():
    boxes = [(6,), (12,), (3, 3), (6, 4), (2, 2, 2), (3, 2, 3), (0,), (0, 3), (4, 0, 2)]
    for seed, box in enumerate(boxes):
        yield random_grid(box, seed=seed + 10), 40
        yield convex_random_grid(box, seed=seed + 20), 30
        yield holed(box, seed + 30), 25


def close(got, want):
    return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def every_sample(m, d):
    return np.stack(np.unravel_index(np.arange(m ** d), (m,) * d), axis=1)


def test_kernel_matches_the_dense_scan():
    for g, m in corpus():
        af = AssociatedFunction(g)
        x = s_samples(g, m)
        om, flags, q3 = dense_q3(g.flat, g.box, x)
        k_om, _, k_flags = af._scan(x[every_sample(m, g.dim)])
        k_q3 = biconjugate(x, g.values).reshape(-1)
        assert k_om.shape == k_flags.shape == (m ** g.dim,)
        assert close(k_om, om), g.box
        assert np.array_equal(k_flags, flags), g.box
        assert close(k_q3, q3), g.box


# The unblocked kernel that ``biconjugate`` replaces: one forward pass over
# the m^d samples of the box, one over the sub-box for omega's boundary flags,
# and one backward pass over all of them.


def ref_forward(x, f):
    F = -np.asarray(f, dtype=float)
    for _ in range(f.ndim):
        out = np.full(F.shape[1:] + (x.size,), -np.inf)
        tmp = np.empty_like(out)
        for b in range(F.shape[0]):
            np.add(F[b][..., None], b * x, out=tmp)
            np.maximum(out, tmp, out=out)
        F = out
    return F


def ref_backward(x, A, box):
    V = -A
    for j in reversed(range(A.ndim)):
        V = np.ascontiguousarray(np.moveaxis(V, j, -1))
        vals = np.empty(V.shape[:j] + (box[j] + 1,) + V.shape[j:-1])
        T = np.empty_like(V)
        for c in range(box[j] + 1):
            np.add(V, c * x, out=T)
            # as biconjugate: a tie of 0.0 and -0.0 may keep either
            vals[(slice(None),) * j + (c,)] = T.max(axis=-1)
        V = vals
    return V


def ref_omega_grid(af, x):
    a = af._a.reshape(tuple(n + 1 for n in af.box))
    om = ref_forward(x, a)
    if 0 in af.box:
        return om, np.ones(om.shape, dtype=bool)
    oi = ref_forward(x, a[tuple(slice(0, n) for n in af.box)])
    return om, oi < om - TIE_REL_TOL * np.maximum(1.0, np.abs(om))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def identity_corpus(wide=True):
    yield from corpus()
    yield holed((3, 3, 3), 2), 50
    yield convex_random_grid((2, 4, 3), seed=3), 50
    yield random_grid((3, 0, 2), seed=4), 50
    if wide:  # the benchmark's sampling, too slow in blocks of one row
        yield random_grid((5,), seed=1), 600
        yield convex_random_grid((6, 6), seed=5), 600


def assert_kernel_is_the_reference(wide=True):
    for g, m in identity_corpus(wide):
        x = s_samples(g, m)
        want = ref_backward(x, ref_forward(x, g.values), g.box)
        assert same_bits(biconjugate(x, g.values), want), g.box


def test_biconjugate_and_q3_are_the_unblocked_kernel_bit_for_bit():
    # the sampled q3 of the dual-grid route is biconjugate itself
    assert_kernel_is_the_reference()


@pytest.mark.parametrize("block", [300, 700])
def test_small_blocks_give_the_same_bits(monkeypatch, block):
    # 6 to 28 rows of 25 to 50 samples per block, most with a ragged last block
    monkeypatch.setattr(conjugate, "_BLOCK_SAMPLES", block)
    assert_kernel_is_the_reference(wide=False)


def test_omega_kernel_is_the_forward_pass_at_every_sample():
    for g, m in identity_corpus():
        if m ** g.dim > 40_000:
            continue
        af = AssociatedFunction(g)
        x = s_samples(g, m)
        om, _, flags = af._scan(x[every_sample(m, g.dim)])
        want_om, want_flags = ref_omega_grid(af, x)
        # equal values; a maximum over a tie of 0.0 and -0.0 may keep either
        assert np.array_equal(om, want_om.reshape(-1)), g.box
        assert np.array_equal(flags, want_flags.reshape(-1)), g.box


def set_cores(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def test_q3_holds_no_sample_grid_in_memory(monkeypatch):
    # the sampled q3 of the dual-grid route, biconjugate, at 600 samples per axis
    g = convex_random_grid((6, 6), seed=11)
    x = s_samples(g, 600)
    for cores in (None, 8):  # the real core count, then 8: 6 lanes (600**2 / 2**16 blocks)
        if cores is not None:
            set_cores(monkeypatch, cores)
        tracemalloc.start()
        try:
            biconjugate(x, g.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, cores  # one 600**2 float array is 2.75 MiB


def test_backward_takes_the_maximum_over_tied_samples():
    x = np.linspace(-1.0, 1.0, 5)
    f = np.array([[0.0, math.inf], [math.inf, math.inf]])  # A(s) = 0 at every sample
    vals = biconjugate(x, f)
    assert vals[0, 0] == 0.0  # every sample ties
    # at alpha = (1, 0) every sample with s_0 = 1 ties
    assert vals[1, 0] == 1.0
    for alpha in [(0, 1), (1, 1)]:
        assert vals[alpha] == pytest.approx(float(np.dot(alpha, [x[-1], x[-1]])))


def guard_corpus():
    yield from identity_corpus()
    yield convex_random_grid((8, 8), seed=7), 200  # tie-heavy
    for seed in range(10):
        yield convex_random_grid((6, 6), seed=seed), 600
    yield SequenceGrid((6, 6), 0.7 * order_array((6, 6)), LOG), 200  # every sample ties
    yield notconvex_grid((4, 4), LOG), 200
    yield random_grid((6, 6), seed=0), 200
    yield random_grid((8,), seed=9), 200
    yield convex_random_grid((4, 4), seed=6), 200
    yield convex_random_grid((3, 3, 3), seed=2), 50


def test_a_q3_flag_off_the_shell_implies_a_shell_certificate():
    # q3 is taken at each certificate slope, where it equals a^c up to
    # rounding, so its failures are exactly the interior gaps above SLACK_TOL,
    # and the boundary caveat comes from the certificates alone
    failing = 0
    for g, _ in guard_corpus():
        res = minorant_lp(g)
        interior = np.isfinite(g.flat) & ~res.boundary
        with np.errstate(invalid="ignore"):
            gap = g.flat - res.minorant.flat
        report = check_log_convexity(g)
        assert report.q3_failures == multi_indices(g.box, interior & (gap > SLACK_TOL)), g.box
        assert report.q3_holds == report.globally_convex, g.box
        assert report.boundary_caveat == (res.boundary.any() or not interior.any()), g.box
        failing += bool(report.q3_failures)
    assert failing >= 4  # the first assertion is not vacuous


def test_forward_with_infinite_data_imposes_nothing():
    x = np.array([-1.0, 0.0, 2.0])
    af = AssociatedFunction(SequenceGrid((2,), [0.0, math.inf, 1.0]))
    assert np.array_equal(af._scan(x[:, None])[0], np.maximum(0.0, 2.0 * x - 1.0))


def test_sample_cap_fits_the_defaults_and_allocates_nothing_beyond_it():
    for m, d in [(600, 2), (200, 2), (50, 3), (MAX_SAMPLES, 1)]:
        check_samples(m, d)
    with pytest.raises(OutOfRange):
        biconjugate(np.zeros(2049), np.zeros((1, 1)))  # 2049**2 > 2**22
    with pytest.raises(OutOfRange):
        check_samples(1e300, 3)
    with pytest.raises(OutOfRange):
        KGridSpec(0.0, 1.0, 1e-320).axis_samples()
    with pytest.raises(OutOfRange):
        check_samples(10**12, 1)
    with pytest.raises(EmptySGrid):
        check_samples(0, 2)


def test_dual_value_matches_a_dense_slope_scan():
    # the dual-grid route: max over sampled slopes k of <k, alpha> + h_k, with
    # h_k the lowest gap min_beta (a_beta - <k, beta>) over finite points
    for seed in range(6):
        g = holed((3, 3), seed + 50) if seed % 2 else random_grid((2, 3), seed=seed)
        spec = KGridSpec.from_grid(g, step=0.5)
        K = product(spec.axis_samples(), g.dim)
        finite = np.isfinite(g.flat)
        P = index_array(g.box)[finite].astype(float)
        h = (g.flat[finite][None, :] - K @ P.T).min(axis=1)
        vals = biconjugate(spec.axis_samples(), g.values)
        for alpha, v in zip(index_array(g.box), vals.reshape(-1)):
            want = K @ alpha + h
            assert v == pytest.approx(want.max(), rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------ lanes


def spy_lanes(monkeypatch):
    """For each ``in_lanes`` call, a list with one list per lane of the
    (lo, hi) blocks it took."""
    calls = []
    run = conjugate.in_lanes

    def in_lanes(rows, per_row, lane):
        lanes = []
        calls.append(lanes)

        def recorded(blocks, step):
            took = []
            lanes.append(took)

            def taken():
                for block in blocks:
                    took.append(block)
                    yield block
            lane(taken(), step)
        run(rows, per_row, recorded)
    monkeypatch.setattr(conjugate, "in_lanes", in_lanes)
    return calls


def lane_corpus():
    yield random_grid((4, 3), seed=1), 25  # 25 rows of 25 samples
    yield holed((3, 3, 3), 2), 6  # 36 rows
    yield convex_random_grid((5,), seed=2), 40  # one row
    yield random_grid((2, 2), seed=3), 3  # 3 rows: fewer than 5 lanes
    yield random_grid((3, 0), seed=4), 4


def kernel_outputs():
    out = []
    for g, m in lane_corpus():
        out.append(biconjugate(s_samples(g, m), g.values))
    af = AssociatedFunction(random_grid((3, 2), seed=6))  # 12 points per row
    rng = SplitMix64(7)
    for n in (25, 3):
        T = [[rng.uniform(-4.0, 9.0) if rng.random() < 0.7 else 0.0 for _ in range(2)]
             for _ in range(n)]
        out.extend(af.evaluate_many(T))
    out.append(np.array([af.trace([rng.uniform(-2.0, 2.0), -1.0]) for _ in range(5)]))
    return out


@pytest.mark.parametrize("block", [2, 300])
def test_the_kernels_give_the_same_bits_on_any_lane_count(monkeypatch, block):
    # 2 entries per block: every row is a block of its own, more blocks than
    # lanes, and more lanes than rows where a grid has 3 rows or one
    monkeypatch.setattr(conjugate, "_BLOCK_SAMPLES", block)
    calls = spy_lanes(monkeypatch)
    want = None
    for k in (1, 2, 3, 5):
        set_cores(monkeypatch, k)
        calls.clear()
        got = kernel_outputs()
        lanes = [len(call) for call in calls]
        if block == 2:
            assert lanes[:7] == [min(k, 25), min(k, 36), 1, min(k, 3), min(k, 4), k, min(k, 3)]
        else:  # 3 blocks' worth of 25 rows, then a block of 36 and the rest
            assert lanes[:2] == [min(k, 3), 1]
        for call in calls:  # each block once, in ascending order, whichever lane took it
            taken = sorted(b for took in call for b in took)
            assert [lo for lo, _ in taken] == [0] + [hi for _, hi in taken[:-1]]
        if want is None:
            want = got
            continue
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            bits = [np.ascontiguousarray(v).view(np.uint8) for v in (a, b)]
            assert np.array_equal(*bits), k


def test_check_and_assoc_json_are_the_same_on_any_lane_count(monkeypatch, tmp_path, capsys):
    inputs = []
    for i, g in enumerate([convex_random_grid((6, 6), 3), random_grid((6, 6), 7)]):
        path = tmp_path / f"g{i}.json"
        path.write_text(write_grid(g))
        inputs.append(str(path))
    calls = spy_lanes(monkeypatch)
    outs = {}
    for k in (1, 2, 3, 5):
        set_cores(monkeypatch, k)
        calls.clear()
        for path in inputs:
            assert main(["check", path, "--s-points", "600", "--json"]) == 0
            assert main(["assoc", path, "--t-grid", "0.1,30,4000", "--json"]) == 0
        outs[k] = capsys.readouterr().out
        # check scans omega at 49 slopes, one block; assoc at 4000 points, 3 blocks' worth
        assert [len(call) for call in calls] == [1, min(k, 3)] * 2
    assert outs[1] and all(out == outs[1] for out in outs.values())


def record_threads(monkeypatch):
    """The threads ``in_lanes`` starts, in the order it makes them."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    monkeypatch.setattr(conjugate.threading, "Thread", Recorded)
    return made


def test_lanes_take_every_row_once_and_leave_no_thread(monkeypatch):
    set_cores(monkeypatch, 4)
    monkeypatch.setattr(conjugate, "_BLOCK_SAMPLES", 8)
    made = record_threads(monkeypatch)
    before = threading.active_count()
    taken, lanes = [], []

    def lane(blocks, step):
        lanes.append((threading.current_thread(), step))
        taken.extend(blocks)

    conjugate.in_lanes(41, 1, lane)  # 41 entries: 6 blocks' worth, so 4 lanes of 2-row blocks
    assert sorted(taken) == [(lo, min(lo + 2, 41)) for lo in range(0, 41, 2)]
    assert len(made) == 3 and len(lanes) == 4
    assert {t for t, _ in lanes} == {threading.current_thread(), *made}
    assert {step for _, step in lanes} == {2}
    assert not any(t.is_alive() for t in made)
    assert threading.active_count() == before


def test_the_first_error_in_lane_order_reaches_the_caller(monkeypatch):
    set_cores(monkeypatch, 4)
    monkeypatch.setattr(conjugate, "_BLOCK_SAMPLES", 8)
    made = record_threads(monkeypatch)
    before = threading.active_count()
    ran = []

    def helpers_fail(blocks, step):
        ran.append(threading.current_thread())
        if threading.current_thread() in made:
            raise ValueError(f"lane {made.index(threading.current_thread()) + 1}")

    with pytest.raises(ValueError, match="^lane 1$"):
        conjugate.in_lanes(40, 1, helpers_fail)
    assert len(ran) == 4  # every lane ran, and was joined
    assert threading.active_count() == before

    def all_fail(blocks, step):
        raise KeyError(threading.current_thread() in made)

    with pytest.raises(KeyError, match="^False$"):  # the caller's own lane comes first
        conjugate.in_lanes(40, 1, all_fail)
    assert threading.active_count() == before


def test_a_callers_errstate_holds_in_helper_lanes(monkeypatch):
    set_cores(monkeypatch, 2)
    monkeypatch.setattr(conjugate, "_BLOCK_SAMPLES", 2)
    made = record_threads(monkeypatch)
    samples = np.array([0.9e308, 1.7e308])

    def helper_overflows(blocks, step):
        if threading.current_thread() in made:
            _ = samples[:1] * 2.0  # beyond the double range

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        conjugate.in_lanes(2, 2, helper_overflows)
    with np.errstate(over="ignore"):  # no RuntimeWarning, which the tests raise
        conjugate.in_lanes(2, 2, helper_overflows)
    assert len(made) == 2
    # through the kernels: the row of s_1 = 0.9e308 sums 0.9e308 + 0.9e308,
    # in whichever lane takes it
    x = np.array([0.0, 0.9e308])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        biconjugate(x, np.zeros((2, 2)))
    af = AssociatedFunction(random_grid((2, 2), seed=1))
    W = np.array([[1e308, 0.0]] * 4)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        af._scan(W)
    with np.errstate(over="ignore", invalid="ignore"):
        assert (af._scan(W)[0] == math.inf).all()


def test_the_core_count_falls_back_to_cpu_count(monkeypatch):
    set_cores(monkeypatch, 3)
    assert conjugate._cores() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert conjugate._cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert conjugate._cores() == 1
