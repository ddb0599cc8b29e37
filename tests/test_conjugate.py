"""The per-axis conjugate kernel against a dense scan of every sample against
every point, on random, convex, +inf-holed, 1-D, 3-D and zero-extent boxes;
the blocked biconjugate and the q3 flags against the unblocked kernel they
replace, bit for bit; the sample cap; and the dual routes built on the
kernel."""
import math
import tracemalloc

import numpy as np
import pytest

from logcvx import (AssociatedFunction, KGridSpec, OutOfRange, SGridSpec,
                    SequenceGrid, SplitMix64, conjugate, convex_random_grid,
                    random_grid)
from logcvx.assoc import TIE_REL_TOL, _omega_at, _q3_all
from logcvx.conjugate import MAX_SAMPLES, biconjugate, check_samples, forward_at
from logcvx.core import index_array, outer_shell_mask


def product(x, d):
    return np.stack([c.reshape(-1) for c in np.meshgrid(*[x] * d, indexing="ij")], axis=1)


def dense_q3(a, box, x):
    """omega, its boundary flags, the q3 supremum and the flag at the first
    maximising sample, from one matrix of every sample against every point."""
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
    cand = L - om[:, None]
    return om, flags, cand.max(axis=0), flags[cand.argmax(axis=0)]


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
        om, flags, q3, q3_flags = dense_q3(g.flat, g.box, x)
        k_om, k_flags = _omega_at(af, x, every_sample(m, g.dim))
        k_q3, k_q3_flags = _q3_all(af, SGridSpec.from_grid(g, points=m))
        assert k_om.shape == k_flags.shape == (m ** g.dim,)
        assert close(k_om, om), g.box
        assert np.array_equal(k_flags, flags), g.box
        assert close(k_q3, q3), g.box
        assert np.array_equal(k_q3_flags, q3_flags), g.box


# The unblocked kernel that ``biconjugate`` and ``_q3_all`` replace: one
# forward pass over the m^d samples of the box, one over the sub-box for the
# boundary flags, and one backward pass over all of them.


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
            vals[at] = np.take_along_axis(T, i, -1)[..., 0]
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
        af = AssociatedFunction(g)
        spec = SGridSpec.from_grid(g, points=m)
        x = spec.axis_samples()
        vals, arg = biconjugate(x, g.values)
        want_vals, want_arg = ref_backward(x, ref_forward(x, g.values), g.box)
        assert same_bits(vals, want_vals) and np.array_equal(arg, want_arg), g.box
        q3, flags = _q3_all(af, spec)
        want_q3, want_flags = ref_q3_all(af, x)
        assert same_bits(q3, want_q3) and np.array_equal(flags, want_flags), g.box


def test_biconjugate_and_q3_are_the_unblocked_kernel_bit_for_bit():
    assert_kernel_is_the_reference()


@pytest.mark.parametrize("block", [300, 700])
def test_small_blocks_give_the_same_bits(monkeypatch, block):
    # 6 to 28 rows of 25 to 50 samples per block, most with a ragged last block
    monkeypatch.setattr(conjugate, "_BLOCK_SAMPLES", block)
    assert_kernel_is_the_reference(wide=False)


def test_forward_at_is_forward_at_every_sample():
    for g, m in identity_corpus():
        if m ** g.dim > 40_000:
            continue
        x = SGridSpec.from_grid(g, points=m).axis_samples()
        at = forward_at(x, g.values, every_sample(m, g.dim))
        assert same_bits(at, ref_forward(x, g.values).reshape(-1)), g.box


def test_q3_holds_no_sample_grid_in_memory():
    g = convex_random_grid((6, 6), seed=11)
    af, spec = AssociatedFunction(g), SGridSpec.from_grid(g, points=600)
    tracemalloc.start()
    try:
        _q3_all(af, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # one 600**2 float array is 2.75 MiB


def test_backward_returns_the_first_maximising_sample():
    x = np.linspace(-1.0, 1.0, 5)
    f = np.array([[0.0, math.inf], [math.inf, math.inf]])  # A(s) = 0 at every sample
    vals, arg = biconjugate(x, f)
    assert vals[0, 0] == 0.0 and arg[0, 0] == 0  # every sample ties
    # at alpha = (1, 0) every sample with s_0 = 1 ties; the first has s_1 = -1
    assert vals[1, 0] == 1.0 and arg[1, 0] == 4 * 5 + 0
    for alpha in [(0, 1), (1, 1)]:
        s = np.unravel_index(arg[alpha], (5, 5))
        assert vals[alpha] == pytest.approx(float(np.dot(alpha, x[list(s)])))


def test_forward_with_infinite_data_imposes_nothing():
    x = np.array([-1.0, 0.0, 2.0])
    f = np.array([0.0, math.inf, 1.0])
    assert np.array_equal(forward_at(x, f, every_sample(3, 1)), np.maximum(0.0, 2.0 * x - 1.0))


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
        vals, arg = biconjugate(spec.axis_samples(), g.values)
        for alpha, v, row in zip(index_array(g.box), vals.reshape(-1), arg.reshape(-1)):
            want = K @ alpha + h
            assert v == pytest.approx(want.max(), rel=1e-12, abs=1e-12)
            assert want[row] == pytest.approx(want.max(), rel=1e-12, abs=1e-12)
