"""The per-axis conjugate kernel against a dense scan of every sample against
every point, on random, convex, +inf-holed, 1-D, 3-D and zero-extent boxes;
the sample cap; and the dual routes built on the kernel."""
import math

import numpy as np
import pytest

from logcvx import (AssociatedFunction, KGridSpec, OutOfRange, SGridSpec,
                    SequenceGrid, SplitMix64, convex_random_grid, dual_value,
                    random_grid)
from logcvx.assoc import TIE_REL_TOL, _omega_grid, _q3_all
from logcvx.conjugate import MAX_SAMPLES, backward, check_samples, forward
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


def test_kernel_matches_the_dense_scan():
    for g, m in corpus():
        af = AssociatedFunction(g)
        x = SGridSpec.from_grid(g, points=m).axis_samples()
        om, flags, q3, q3_flags = dense_q3(g.flat, g.box, x)
        k_om, k_flags = _omega_grid(af, x)
        k_q3, k_q3_flags = _q3_all(af, SGridSpec.from_grid(g, points=m))
        assert k_om.shape == (m,) * g.dim
        assert close(k_om.reshape(-1), om), g.box
        assert np.array_equal(k_flags.reshape(-1), flags), g.box
        assert close(k_q3, q3), g.box
        assert np.array_equal(k_q3_flags, q3_flags), g.box


def test_backward_returns_the_first_maximising_sample():
    x = np.linspace(-1.0, 1.0, 5)
    A = np.zeros((5, 5))  # every sample ties at alpha = 0
    vals, arg = backward(x, A, (1, 1))
    assert vals[0, 0] == 0.0 and arg[0, 0] == 0
    # at alpha = (1, 0) every sample with s_0 = 1 ties; the first has s_1 = -1
    assert vals[1, 0] == 1.0 and arg[1, 0] == 4 * 5 + 0
    for alpha in [(0, 1), (1, 1)]:
        s = np.unravel_index(arg[alpha], A.shape)
        assert vals[alpha] == pytest.approx(float(np.dot(alpha, x[list(s)])) - A[s])


def test_forward_with_infinite_data_imposes_nothing():
    x = np.array([-1.0, 0.0, 2.0])
    f = np.array([0.0, math.inf, 1.0])
    assert np.array_equal(forward(x, f), np.maximum(0.0, 2.0 * x - 1.0))


def test_sample_cap_fits_the_defaults_and_allocates_nothing_beyond_it():
    for m, d in [(600, 2), (200, 2), (50, 3), (MAX_SAMPLES, 1)]:
        check_samples(m, d)
    with pytest.raises(OutOfRange):
        forward(np.zeros(2049), np.zeros((1, 1)))  # 2049**2 > 2**22
    with pytest.raises(OutOfRange):
        check_samples(1e300, 3)
    with pytest.raises(OutOfRange):
        KGridSpec(0.0, 1.0, 1e-320).axis_samples()
    with pytest.raises(OutOfRange):
        SGridSpec(0.0, 1.0, 10**12).axis_samples()


def test_dual_value_matches_a_dense_slope_scan():
    for seed in range(6):
        g = holed((3, 3), seed + 50) if seed % 2 else random_grid((2, 3), seed=seed)
        spec = KGridSpec.from_grid(g, step=0.5)
        K = product(spec.axis_samples(), g.dim)
        finite = np.isfinite(g.flat)
        P = index_array(g.box)[finite].astype(float)
        h = (g.flat[finite][None, :] - K @ P.T).min(axis=1)
        rng = SplitMix64(seed)
        for _ in range(5):
            x = np.array([rng.uniform(0.0, float(n)) for n in g.box])
            want = K @ x + h
            dv = dual_value(g, x, spec)
            assert dv.value == pytest.approx(want.max(), rel=1e-12, abs=1e-12)
            row = np.flatnonzero((K == dv.k).all(axis=1))[0]
            assert want[row] == pytest.approx(want.max(), rel=1e-12, abs=1e-12)
