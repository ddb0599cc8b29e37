"""The per-axis conjugate kernel and the omega kernel against a dense scan of
every sample against every point, on random, convex, +inf-holed, 1-D, 3-D and
zero-extent boxes; the blocked biconjugate and q3 against the unblocked
forward and backward passes, bit for bit, and the omega kernel against the
forward pass; why ``check``'s boundary caveat needs no q3 flag; the sample
cap; and the dual routes built on the kernel."""
import math
import tracemalloc

import numpy as np
import pytest

from logcvx import (LOG, AssociatedFunction, KGridSpec, OutOfRange, SGridSpec,
                    SequenceGrid, SplitMix64, check_log_convexity, conjugate,
                    convex_random_grid, minorant_lp, notconvex_grid, random_grid)
from logcvx.assoc import TIE_REL_TOL, _q3_all
from logcvx.conjugate import MAX_SAMPLES, biconjugate, check_samples
from logcvx.core import index_array, order_array, outer_shell_mask


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
        x = SGridSpec.from_grid(g, points=m).axis_samples()
        om, flags, q3 = dense_q3(g.flat, g.box, x)
        k_om, _, k_flags = af._scan(x[every_sample(m, g.dim)])
        k_q3 = _q3_all(g, SGridSpec.from_grid(g, points=m))
        assert k_om.shape == k_flags.shape == (m ** g.dim,)
        assert close(k_om, om), g.box
        assert np.array_equal(k_flags, flags), g.box
        assert close(k_q3, q3), g.box


# The unblocked kernel that ``biconjugate`` and ``_q3_all`` replace: one
# forward pass over the m^d samples of the box, one over the sub-box for the
# boundary flags, and one backward pass over all of them.  The flag of q3 at
# an index is omega's flag at its first maximising sample; the library keeps
# no such flag (see test_a_q3_flag_off_the_shell_implies_a_shell_certificate).


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
    V, P = -A, None
    for j in reversed(range(A.ndim)):
        V = np.ascontiguousarray(np.moveaxis(V, j, -1))
        P = None if P is None else np.ascontiguousarray(np.moveaxis(P, j, -1))
        vals = np.empty(V.shape[:j] + (box[j] + 1,) + V.shape[j:-1])
        args = np.empty(vals.shape, dtype=np.intp)
        T = np.empty_like(V)
        for c in range(box[j] + 1):
            np.add(V, c * x, out=T)
            i = T.argmax(axis=-1)[..., None]
            at = (slice(None),) * j + (c,)
            vals[at] = T.max(axis=-1)  # as biconjugate: a tie of 0.0 and -0.0 may keep either
            args[at] = (i[..., 0] + x.size * np.arange(i.size).reshape(i.shape[:-1])
                        if P is None else np.take_along_axis(P, i, -1)[..., 0])
        V, P = vals, args
    return V, P


def ref_omega_grid(af, x):
    a = af._a.reshape(tuple(n + 1 for n in af.box))
    om = ref_forward(x, a)
    if 0 in af.box:
        return om, np.ones(om.shape, dtype=bool)
    oi = ref_forward(x, a[tuple(slice(0, n) for n in af.box)])
    return om, oi < om - TIE_REL_TOL * np.maximum(1.0, np.abs(om))


def ref_q3_all(af, x):
    om, flags = ref_omega_grid(af, x)
    vals, arg = ref_backward(x, om, af.box)
    return vals.reshape(-1), flags.reshape(-1)[arg.reshape(-1)]


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
        spec = SGridSpec.from_grid(g, points=m)
        x = spec.axis_samples()
        want = ref_backward(x, ref_forward(x, g.values), g.box)[0]
        assert same_bits(biconjugate(x, g.values), want), g.box
        assert same_bits(_q3_all(g, spec), want.reshape(-1)), g.box


def test_biconjugate_and_q3_are_the_unblocked_kernel_bit_for_bit():
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
        x = SGridSpec.from_grid(g, points=m).axis_samples()
        om, _, flags = af._scan(x[every_sample(m, g.dim)])
        want_om, want_flags = ref_omega_grid(af, x)
        # equal values; a maximum over a tie of 0.0 and -0.0 may keep either
        assert np.array_equal(om, want_om.reshape(-1)), g.box
        assert np.array_equal(flags, want_flags.reshape(-1)), g.box


def test_q3_holds_no_sample_grid_in_memory():
    g = convex_random_grid((6, 6), seed=11)
    spec = SGridSpec.from_grid(g, points=600)
    tracemalloc.start()
    try:
        _q3_all(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # one 600**2 float array is 2.75 MiB


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
    # each with a q3 flag at an index whose certificate stays off the shell
    yield random_grid((6, 6), seed=0), 200
    yield random_grid((8,), seed=9), 200
    yield convex_random_grid((4, 4), seed=6), 200
    yield convex_random_grid((3, 3, 3), seed=2), 50


def test_a_q3_flag_off_the_shell_implies_a_shell_certificate():
    # omega's flag at a sample s says max_beta (<beta, s> - a_beta) is attained
    # on the outer shell only, at some beta.  The plane of slope s through
    # (beta, a_beta) lies below the data, so beta is a contact, and beta's own
    # certificate touches beta on the shell: the LP reports a boundary at
    # whatever alpha took its q3 flag from s.
    flagged = 0
    for g, m in guard_corpus():
        spec = SGridSpec.from_grid(g, points=m)
        boundary = minorant_lp(g).boundary
        interior = np.isfinite(g.flat) & ~boundary
        flags = ref_q3_all(AssociatedFunction(g), spec.axis_samples())[1]
        flagged += bool(flags[interior].any())
        assert boundary.any() or not flags[interior].any(), g.box
        report = check_log_convexity(g, s_grid=spec)
        assert report.boundary_caveat == (boundary.any() or not interior.any()), g.box
    assert flagged >= 4  # the first assertion is not vacuous


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
        SGridSpec(0.0, 1.0, 10**12).axis_samples()


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
