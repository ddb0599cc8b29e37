import math

import numpy as np
import pytest

from logcvx.core import (EXP, LOG, SequenceGrid, as_log_grid,
                         boundary_infinities, growth_check, index_array,
                         order, order_array, outer_shell_mask, to_exp, to_log,
                         unit, validate_grid)
from logcvx.errors import (DimensionMismatch, EmptyShell, NonPositiveEntry,
                           ScaleMismatch)

INF = math.inf


def test_order_and_unit():
    assert order((2, 0, 3)) == 5
    assert unit(3, 1) == (0, 1, 0)


def test_index_array_row_major():
    idx = index_array((1, 2))
    assert idx.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
    assert order_array((1, 2)).tolist() == [0, 1, 2, 1, 2, 3]


def test_outer_shell_mask():
    mask = outer_shell_mask((2, 1))
    idx = index_array((2, 1))
    for alpha, m in zip(idx.tolist(), mask.tolist()):
        assert m == (alpha[0] == 2 or alpha[1] == 1)


def test_grid_shapes_and_value():
    g = SequenceGrid((1, 2), [0, 1, 2, 3, 4, 5], LOG)
    assert g.dim == 2
    assert g.n_points == 6
    assert g.value((1, 2)) == 5.0
    assert g.values.shape == (2, 3)
    assert list(g.indices())[3] == (1, 0)


def test_grid_values_read_only():
    g = SequenceGrid((2,), [0, 1, 2], LOG)
    with pytest.raises(ValueError):
        g.values[0] = 7.0


def test_bad_box_and_scale():
    with pytest.raises(DimensionMismatch):
        SequenceGrid((), [0], LOG)
    with pytest.raises(DimensionMismatch):
        SequenceGrid((-1,), [0], LOG)
    with pytest.raises(ScaleMismatch):
        SequenceGrid((0,), [0], "linear")


def test_from_mapping_missing_is_nan():
    g = SequenceGrid.from_mapping((1, 1), {(0, 0): 0.0, (1, 1): 4.0}, LOG)
    assert g.value((0, 0)) == 0.0
    assert math.isnan(g.value((0, 1)))
    assert math.isnan(g.value((1, 0)))


def test_from_function():
    g = SequenceGrid.from_function((2, 2), lambda a: a[0] + 10 * a[1], LOG)
    assert g.value((2, 1)) == 12.0


def test_is_normalized_both_scales():
    assert SequenceGrid((1,), [0.0, 3.0], LOG).is_normalized()
    assert not SequenceGrid((1,), [0.5, 3.0], LOG).is_normalized()
    assert SequenceGrid((1,), [1.0, 3.0], EXP).is_normalized()
    assert not SequenceGrid((1,), [2.0, 3.0], EXP).is_normalized()


def test_validate_clean():
    assert validate_grid(SequenceGrid((3,), [0, 2, 1, 6], LOG)) == []


def test_validate_infinite_origin():
    out = validate_grid(SequenceGrid((3,), [INF, 2, 1, 6], LOG))
    assert len(out) == 1
    assert out[0].index == (0,)
    assert out[0].rule == "origin_finite"


def test_validate_nan_rows():
    out = validate_grid(SequenceGrid.from_mapping((1, 1), {(0, 0): 0.0}, LOG))
    rules = {v.rule for v in out}
    assert rules == {"complete"}
    assert {v.index for v in out} == {(0, 1), (1, 0), (1, 1)}


def test_validate_lower_bound():
    out = validate_grid(SequenceGrid((2,), [0, -INF, 1], LOG))
    assert [(v.index, v.rule) for v in out] == [((1,), "lower_bound")]
    out = validate_grid(SequenceGrid((2,), [1.0, -0.5, 0.0], EXP))
    assert {v.index for v in out} == {(1,), (2,)}
    assert all(v.rule == "lower_bound" for v in out)


def test_validate_non_positive_exp_origin_once():
    for m0 in [0.0, -1.0]:
        out = validate_grid(SequenceGrid((2,), [m0, 1.0, 2.0], EXP))
        assert [(v.index, v.rule) for v in out] == [((0,), "lower_bound")]
    out = validate_grid(SequenceGrid((2,), [-INF, 1.0, 2.0], EXP))
    assert [(v.index, v.rule) for v in out] == [((0,), "origin_finite")]


def test_validate_finds_the_violations_once_and_hands_out_copies():
    g = SequenceGrid((3,), [INF, -INF, math.nan, 1.0], LOG)
    first = validate_grid(g)
    assert [v.rule for v in first] == ["origin_finite", "complete", "lower_bound"]
    first.clear()
    second = validate_grid(g)
    assert second == validate_grid(g) and second is not validate_grid(g)
    assert [v.rule for v in second] == ["origin_finite", "complete", "lower_bound"]
    clean = SequenceGrid((2,), [0, 1, 6], LOG)
    validate_grid(clean).append("not a violation")
    assert validate_grid(clean) == []


def test_require_valid_raises_the_violations_of_validate_grid():
    from logcvx.core import require_valid
    from logcvx.errors import GridValidationError
    g = SequenceGrid((3,), [INF, -INF, math.nan, 1.0], LOG)
    with pytest.raises(GridValidationError) as err:
        require_valid(g)
    assert list(err.value.violations) == validate_grid(g)
    assert require_valid(SequenceGrid((2,), [0, 1, 6], LOG)) is None


def test_plus_inf_interior_is_legal():
    assert validate_grid(SequenceGrid((2,), [0, INF, 6], LOG)) == []


def test_boundary_infinities():
    g = SequenceGrid((1, 1), [0, INF, 3, INF], LOG)
    assert boundary_infinities(g) == [(0, 1), (1, 1)]


def test_log_exp_round_trip():
    g = SequenceGrid((2,), [1.0, 2.0, 6.0], EXP)
    back = to_exp(to_log(g))
    assert np.allclose(back.flat, g.flat)
    assert as_log_grid(g).scale == LOG
    lg = SequenceGrid((1,), [0.0, 1.0], LOG)
    assert as_log_grid(lg) is lg


def test_to_log_rejects_nonpositive():
    with pytest.raises(NonPositiveEntry):
        to_log(SequenceGrid((1,), [1.0, -2.0], EXP))


def test_to_exp_maps_inf_to_inf():
    g = to_exp(SequenceGrid((1,), [0.0, INF], LOG))
    assert math.isinf(g.value((1,)))


def test_scale_guards():
    with pytest.raises(ScaleMismatch):
        to_log(SequenceGrid((1,), [0.0, 1.0], LOG))
    with pytest.raises(ScaleMismatch):
        to_exp(SequenceGrid((1,), [1.0, 2.0], EXP))


def test_growth_check_passes_on_superlinear():
    g = SequenceGrid.from_function((4,), lambda a: float(a[0] ** 2), LOG)
    diag = growth_check(g)
    assert diag.passes
    assert diag.min_boundary_ratio == 4.0
    assert (4,) in diag.ratios and (3,) in diag.ratios


def test_growth_check_fails_on_linear():
    g = SequenceGrid.from_function((4,), lambda a: 2.0 * a[0], LOG)
    assert not growth_check(g).passes


def test_growth_check_needs_three_shells():
    with pytest.raises(EmptyShell):
        growth_check(SequenceGrid((1,), [0, 1], LOG))


def test_growth_check_ignores_infinite_entries():
    g = SequenceGrid((4,), [0, 1, 4, 9, INF], LOG)
    diag = growth_check(g)
    # the only outer-shell entry is +inf, so the outer minimum is vacuous
    assert diag.min_boundary_ratio == INF
    assert diag.passes


def test_growth_check_log_only():
    with pytest.raises(ScaleMismatch):
        growth_check(SequenceGrid((3,), [1, 2, 4, 9], EXP))
