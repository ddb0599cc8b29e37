"""Canonical serialization: byte-stable JSON, 17-digit float round trips,
CSV for one and two dimensions, matrices, witnesses, reports."""
import collections
import dataclasses
import enum
import io as stdio
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from logcvx import (EXP, LOG, Columns, ConditionEntry, ConditionWitness,
                    GridValidationError, RelationEntry, RelationWitness,
                    SchemaError, SequenceGrid, WeightMatrix, factorial_grid, fmt_float, notconvex_grid,
                    read_condition_witness, read_grid, read_matrix,
                    read_relation_witness, read_report, to_jsonable,
                    write_condition_witness, write_grid, write_matrix,
                    write_relation_witness, write_report)
from logcvx import io


# ----------------------------------------------------------- float format


def test_fmt_float_17_digits_round_trip():
    for x in [math.exp(3.0), 0.1, 1.0 / 3.0, 2.0 ** -52, -1234.5678e-12]:
        assert float(fmt_float(x)) == x
    assert fmt_float(math.exp(3.0)) == "20.085536923187668"
    assert fmt_float(0.1) == "0.10000000000000001"


def test_fmt_float_specials_and_signed_zero():
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(-math.inf) == "-inf"
    assert fmt_float(math.nan) == "nan"
    assert fmt_float(-0.0) == "0"
    assert fmt_float(0.0) == "0"


# --------------------------------------------------------- canonical JSON


def test_canonical_json_sorts_keys_and_stays_compact():
    a = {"b": 1, "a": [True, None, "x"]}
    b = {"a": [True, None, "x"], "b": 1}
    text = write_report(a)
    assert text == write_report(b)
    assert text == '{"a":[true,null,"x"],"b":1}'


def test_canonical_json_quotes_special_floats():
    text = write_report({"v": [math.inf, -math.inf, math.nan, 2.5]})
    assert text == '{"v":["inf","-inf","nan",2.5]}'


def test_canonical_json_rejects_non_plain_data():
    with pytest.raises(TypeError):
        write_report({"x": object()})


def test_to_jsonable_unpacks_dataclasses_and_numpy():
    @dataclass
    class Point:
        xs: tuple
        n: int

    out = to_jsonable({"p": Point((1.0, 2.0), 3), "arr": np.array([1, 2]),
                       "s": {2, 1}, "f": np.float64(0.5), "i": np.int64(7)})
    assert out == {"p": {"xs": [1.0, 2.0], "n": 3}, "arr": [1, 2],
                   "s": [1, 2], "f": 0.5, "i": 7}


def test_report_round_trip_restores_specials_and_null():
    payload = {"vals": [1.5, math.inf, -math.inf], "gap": math.nan, "n": None}
    back = read_report(write_report(payload))
    assert back["vals"] == [1.5, math.inf, -math.inf]
    assert math.isnan(back["gap"])
    assert math.isnan(back["n"])
    with pytest.raises(SchemaError):
        read_report("{not json")


# ------------------------------------- one-walk encoder against two passes
# The reference is the two-pass walk the writers made before they shared one
# encoder: to_jsonable into plain data, then _dump.  Kept as it was, so the
# tests below pin the encoder's bytes to it.


def _ref_dump(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            out.write(fmt_float(x))
        else:
            out.write(json.dumps(fmt_float(x)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.write("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.write(",")
            out.write(json.dumps(key, ensure_ascii=False))
            out.write(":")
            _ref_dump(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.write("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, item in enumerate(seq):
            if i:
                out.write(",")
            _ref_dump(item, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _ref_table_rows(table) -> list[dict]:
    """A column table's rows as plain dicts, built one cell at a time."""
    columns, points = table.columns, table.points
    n = max(len(col) for col in columns.values() if col is not None)

    def cell(col, i):
        if col is None:
            return None
        if col.dtype == bool and col.ndim == 1:
            return bool(col[i])
        if col.dtype == bool:
            return [points[j].tolist() for j in range(len(points)) if col[i, j]]
        if col.dtype.kind in "iu":
            return points[col[i]].tolist()
        return col[i].tolist()

    return [{key: cell(col, i) for key, col in columns.items()} for i in range(n)]


def _ref_to_jsonable(obj, rows=None):
    """to_jsonable of every row of every table (rows is accepted and ignored)."""
    if isinstance(obj, Columns):
        obj = _ref_table_rows(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _ref_to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k) if not isinstance(k, str) else k: _ref_to_jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref_to_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [_ref_to_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, np.ndarray):
        return [_ref_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def reference_canonical_json(obj) -> str:
    out = stdio.StringIO()
    _ref_dump(obj, out)
    return out.getvalue()


def reference_write_report(payload) -> str:
    return reference_canonical_json(_ref_to_jsonable(payload))


@dataclass
class Leaf:
    value: float
    note: str | None = None


@dataclass
class Branch:
    name: str
    leaf: Leaf | None
    leaves: tuple = ()
    extra: dict | None = None


class Tag(str):
    def __str__(self):
        return "not the text"


class Level(enum.IntEnum):
    LOW = 1


Pair = collections.namedtuple("Pair", "lo hi")

EDGE_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, -1e308,
               0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, 1.5]
TEXTS = ["", "plain", "é日本語", "\U0001F600", "\n\t\r\b\f", '"quoted"', "back\\slash",
         "\x00\x01\x1f\x7f", "  ", "\ud800"]
PLAIN_CASES = [
    EDGE_FLOATS,
    {"v": EDGE_FLOATS, "t": tuple(EDGE_FLOATS)},
    *[[x] for x in EDGE_FLOATS],
    *EDGE_FLOATS,
    [np.float64(x) for x in EDGE_FLOATS],
    [np.float32(x) for x in (math.inf, -0.0, 0.1, 1e-45, 3.4e38)],
    [np.int64(-7), np.int64(2 ** 62), np.int32(5), np.uint8(255)],
    np.float64(-0.0), np.int64(3),
    np.array(EDGE_FLOATS), np.arange(6).reshape(2, 3), np.array([[1.5, -0.0], [math.nan, 2.0]]),
    np.array([], dtype=float), np.array([True, False]),
    [1, -2, 2 ** 70, True, False, None], [1, 2.5, "x"], [2.5, 1], [True, 1.0],
    (), [], {}, [[], {}, [[]]], ((1, 2), (3.5,)),
    TEXTS, {t: t for t in TEXTS},
    {"b": {"d": [1, {"f": None}], "c": 2.0}, "a": "x"},
    [Tag("t"), Level.LOW, np.str_("z"), Pair(1, 2.5)], {Tag("k"): Level.LOW},
    collections.OrderedDict([("b", 1), ("a", 2)]), collections.defaultdict(list, {"x": [1]}),
]
REPORT_CASES = PLAIN_CASES + [
    {1, 3, 2}, frozenset({"b", "a"}), {2.5, -1.0, math.inf}, [set(), frozenset()],
    {(1, 2): "tuple", (0, 5): [1.0]}, {1: "a", 2: "b", 10: "c"},
    {1: "int", "1": "str"}, {"1": "str", 1: "int"}, {None: 0, 2.5: 1, "k": 2},
    Leaf(1.0), Leaf(-0.0, "é"),
    Branch("b", None), Branch("b", Leaf(math.nan), (Leaf(5e-324, None), Leaf(1e308)),
                               {"x": Leaf(math.inf), (1, 1): None}),
    {"results": [Branch("n", Leaf(np.float64(2.0))), {"s": frozenset({3, 1})}],
     "arr": np.array([[1, 2], [3, 4]]), "f": np.float32(0.5)},
]


@pytest.mark.parametrize("obj", PLAIN_CASES)
def test_canonical_json_matches_the_two_pass_walk(obj):
    assert write_report(obj) == reference_canonical_json(obj)


@pytest.mark.parametrize("obj", REPORT_CASES)
def test_write_report_matches_the_two_pass_walk(obj):
    assert write_report(obj) == reference_write_report(obj)


def test_encoder_keeps_the_float_rules():
    assert write_report(EDGE_FLOATS[:7]) == \
        '["inf","-inf","nan",0,0,4.9406564584124654e-324,1e+308]'
    assert write_report({(1, 2): -0.0}) == '{"(1, 2)":0}'


@pytest.mark.parametrize("obj", [
    {1: "non-string key"}, {(1, 2): 1.0}, {"a": 1, 2: "b"}, {"x": object()}, object(),
    {1, 2}, frozenset(), Leaf(1.0), [Leaf(1.0)], Leaf, np.bool_(True), np.array(0.0),
    np.array(2.5), b"bytes", 1j, {"x": [1, {2: 3}]},
])
def test_canonical_json_raises_type_error_where_the_two_pass_walk_did(obj):
    with pytest.raises(TypeError):
        reference_canonical_json(obj)
    try:
        expected = reference_write_report(obj)
    except TypeError:
        with pytest.raises(TypeError):
            write_report(obj)
    else:  # a dataclass, a set or a non-str key: written as the report walk writes it
        assert write_report(obj) == expected


@pytest.mark.parametrize("obj", [object(), {"x": np.bool_(False)}, np.array(0.0), [b"b"], Leaf])
def test_write_report_raises_type_error_where_the_two_pass_walk_did(obj):
    with pytest.raises(TypeError):
        reference_write_report(obj)
    with pytest.raises(TypeError):
        write_report(obj)


def test_encoder_matches_the_two_pass_walk_on_random_payloads():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    numbers = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.integers(min_value=-2 ** 80, max_value=2 ** 80), st.booleans(), st.none(),
        st.floats(width=32).map(np.float32), st.floats().map(np.float64),
        st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1).map(np.int64))
    leaves = st.one_of(numbers, st.text(max_size=6))
    plain = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5), st.tuples(inner, inner),
            st.dictionaries(st.text(max_size=4), inner, max_size=4),
            st.lists(st.floats(), min_size=1, max_size=5).map(np.array)),
        max_leaves=20)
    report = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5), st.tuples(inner, inner),
            st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-3, 3),
                                      st.tuples(st.integers(0, 2), st.integers(0, 2))),
                            inner, max_size=4),
            st.frozensets(st.integers(-5, 5), max_size=4),
            st.sets(st.text(max_size=3), max_size=3),
            st.builds(Leaf, st.floats(), st.one_of(st.none(), st.text(max_size=3))),
            st.builds(Branch, st.text(max_size=3), st.none(), st.lists(inner, max_size=3))),
        max_leaves=20)

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(plain, report)
    def check(p, r):
        assert write_report(p) == reference_canonical_json(p)
        assert write_report(p) == reference_write_report(p)
        assert write_report(r) == reference_write_report(r)

    check()


# ------------------------------------------- rows of one dataclass type


@dataclass(frozen=True)
class Row:
    lam: float
    kappa: object
    C: object = 1.0
    h: object = None
    note: object = "x"


@dataclass
class Single:
    only: object


@dataclass
class Empty:
    pass


ROW_VALUES = EDGE_FLOATS + [None, 0, -3, 2 ** 70, True, False, "", "é\n\"", Tag("t"),
                            np.float64(-0.0), np.float64(math.nan), np.float32(0.1),
                            np.int64(7), [1.0, [None, math.inf]], (2, -0.0), {"k": [1]},
                            frozenset({2, 1}), Leaf(math.nan), np.array([1.5, -0.0])]


def row_cases():
    rows = [Row(x, y, C=z) for x, y, z in zip(EDGE_FLOATS, EDGE_FLOATS[::-1], ROW_VALUES)]
    rows += [Row(1.0, v, h=v, note=w) for v, w in zip(ROW_VALUES, ROW_VALUES[::-1])]
    plain = [Row(0.5, 2.0, 1e6, h, -0.0) for h in (None, 0.25, math.inf, 5e-324)]
    return [rows, tuple(rows), plain, tuple(plain), rows[:1], [Single(x) for x in ROW_VALUES],
            [Empty(), Empty()], {"table": rows, "nested": [plain, (rows[3],)]}]


@pytest.mark.parametrize("obj", row_cases())
def test_rows_of_one_dataclass_type_match_the_two_pass_walk(obj):
    assert write_report(obj) == reference_write_report(obj)


@pytest.mark.parametrize("obj", [
    [Row(1.0, 2.0), Leaf(1.0)], (Leaf(-0.0), Row(math.nan, None), Leaf(2.0)),
    [Row(1.0, 2.0), 1.0], [Row(1.0, 2.0), None, Row(1.0, 3.0)], [Single(1), Empty()], [],
    (), [[]], {"table": []},
])
def test_rows_of_mixed_types_or_none_fall_back_to_the_walk(obj):
    assert write_report(obj) == reference_write_report(obj)


# ------------------------------------------------------- column tables

EDGE_COLUMN = np.array([-0.0, 5e-324, math.inf, -math.inf, math.nan, 1e6, 0.1, -2.5])
FINITE_COLUMN = np.array([-0.0, 5e-324, 1e6, 0.1, -2.5, 1.0 / 3.0, 2.0 ** 53 + 2.0, -1e-300])
FEW = np.array([1.0, -0.0, 1e6, 1.0, -0.0, 1e6, 1.0, 1.0])
POINTS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])


def candidates(lam, kappa, C, h, max_slack):
    """A table with the columns of a relation search's, in its order."""
    return Columns({"lam": lam, "kappa": kappa, "C": C, "h": h, "max_slack": max_slack})


def table_cases():
    empty = np.empty(0)
    return [
        candidates(FEW, FEW[::-1], np.full(8, 5e-324), None, EDGE_COLUMN),
        candidates(EDGE_COLUMN, EDGE_COLUMN[::-1], FEW, EDGE_COLUMN, EDGE_COLUMN),
        candidates(FEW, FEW, FEW, FEW[::-1], FINITE_COLUMN),
        candidates(FINITE_COLUMN, FEW, FEW, None, FINITE_COLUMN[::-1]),
        candidates(empty, empty, empty, None, empty),
        candidates(empty, empty, empty, empty, empty),
        Columns({"alpha": np.array([0, 3, 1]),
                 "k": np.array([[0.5, -0.0], [math.inf, 1e6], [5e-324, math.nan]]),
                 "h": np.array([1.0, 2.0, -0.0]),
                 "touching": np.array([[True, False, True, False], [False] * 4, [True] * 4])},
                POINTS),
        Columns({"alpha": np.arange(8) % 4, "k": np.stack([FINITE_COLUMN, FEW], axis=1),
                 "h": FINITE_COLUMN, "touching": np.eye(8, 4, dtype=bool)}, POINTS),
        Columns({"z": None, "%d": np.array([1.5, 2.5]), "a": np.empty((2, 0))}),
        Columns({"t": np.stack([FEW, FINITE_COLUMN], axis=1), "omega": EDGE_COLUMN,
                 "argmax": np.arange(8) % 4, "on_boundary": FEW > 0.5}, POINTS),
        # touching sets, written from their nonzeros: empty rows first, last and
        # between full ones; no point in any row; one point; no rows
        Columns({"alpha": np.array([2, 0, 1, 3]),
                 "touching": np.array([[False] * 4, [True] * 4, [False] * 4,
                                       [True, False, False, True]])}, POINTS),
        Columns({"alpha": np.array([1, 2, 3]), "touching": np.array([[True, True, False, False],
                                                                     [False] * 4, [False] * 4])},
                POINTS),
        Columns({"touching": np.zeros((3, 4), dtype=bool)}, POINTS),
        Columns({"alpha": np.zeros(3, dtype=int), "touching": np.array([[True], [False], [True]])},
                POINTS[:1]),
        Columns({"alpha": np.empty(0, dtype=int), "touching": np.empty((0, 4), dtype=bool)}, POINTS),
    ]


@pytest.mark.parametrize("table", table_cases())
def test_column_tables_match_the_two_pass_walk(table):
    rows = _ref_table_rows(table)
    assert write_report(table) == reference_write_report(table) == write_report(rows)
    assert write_report({"table": table, "n": len(rows)}) == \
        reference_write_report({"table": rows, "n": len(rows)})


@pytest.mark.parametrize("table", table_cases())
def test_column_tables_give_their_rows_as_plain_data(table):
    rows = to_jsonable(table)
    assert write_report(rows) == write_report(_ref_table_rows(table))
    assert all(list(row) == list(table.columns) for row in rows)
    assert all(type(x) is not np.float64 for row in rows for x in row.values())


@pytest.mark.parametrize("table", table_cases())
def test_column_tables_convert_only_the_rows_asked_for(table):
    rows = to_jsonable(table)
    for k in (0, 1, 3, len(rows), len(rows) + 2):
        head = to_jsonable({"t": [table]}, rows=k)["t"][0]
        assert len(head) == len(rows)
        assert write_report(head[:k]) == write_report(rows[:k])
        assert head[k:] == [None] * (len(rows) - k)


def test_column_tables_take_the_table_path(monkeypatch):
    from logcvx import io
    calls = []
    writer = io._table_text
    monkeypatch.setattr(io, "_table_text", lambda *a: calls.append(1) or writer(*a))
    cases = table_cases()
    for table in cases:
        write_report({"table": table})
    assert len(calls) == len(cases)


def test_column_tables_match_the_two_pass_walk_on_random_columns():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    few = st.sampled_from([-0.0, 0.0, 5e-324, 1e6, 0.1, math.inf, -math.inf, math.nan])

    @st.composite
    def tables(draw):
        n = draw(st.integers(0, 12))
        column = lambda values: np.array(draw(st.lists(values, min_size=n, max_size=n)),
                                         dtype=float)
        cols = [column(draw(st.sampled_from([floats, few, st.floats(-1e9, 1e9)])))
                for _ in range(5)]
        if draw(st.booleans()):
            cols[3] = None
        if draw(st.booleans()):
            return candidates(*cols)
        d = draw(st.integers(0, 3))
        return Columns({"alpha": np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                                        max_size=n)), dtype=int),
                        "k": np.array(draw(st.lists(st.lists(floats, min_size=d, max_size=d),
                                                    min_size=n, max_size=n)),
                                      dtype=float).reshape(n, d),
                        "h": cols[4], "g": cols[3],
                        "on": np.array(draw(st.lists(st.booleans(), min_size=n,
                                                     max_size=n)), dtype=bool),
                        "touching": np.array(draw(st.lists(
                            st.lists(st.booleans(), min_size=4, max_size=4),
                            min_size=n, max_size=n)), dtype=bool).reshape(n, 4)}, POINTS)

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(tables())
    def check(table):
        rows = _ref_table_rows(table)
        assert write_report(table) == reference_write_report(table) == write_report(rows)
        assert write_report(to_jsonable(table)) == write_report(rows)

    check()


# -------------------------------------------------------------- grid JSON


def test_grid_json_round_trip_is_exact():
    g = notconvex_grid((2, 2))
    back = read_grid(write_grid(g))
    assert back.box == g.box and back.scale == g.scale
    assert np.array_equal(back.values, g.values)


def test_grid_json_round_trip_keeps_infinities():
    g = SequenceGrid((2,), [0.0, math.exp(3.0), math.inf], LOG)
    text = write_grid(g)
    assert '"inf"' in text
    assert "20.085536923187668" in text
    back = read_grid(text)
    assert np.array_equal(back.values, g.values)


def test_grid_json_write_is_byte_stable():
    g = factorial_grid(5)
    assert write_grid(g) == write_grid(factorial_grid(5))
    assert write_grid(g).count("\n") == 0


def test_read_grid_accepts_dict_bytes_and_sniffs_csv():
    g = factorial_grid(3)
    text = write_grid(g)
    assert np.array_equal(read_grid(text).values, g.values)
    spaced = " \n" + json.dumps(json.loads(text), indent=1)
    assert np.array_equal(read_grid(spaced).values, g.values)
    csv_text = write_grid(g, fmt="csv")
    assert np.array_equal(read_grid(csv_text).values, g.values)
    for source in (42, text.encode(), json.loads(text)):  # text only
        with pytest.raises(SchemaError):
            read_grid(source)
    with pytest.raises(ValueError):
        write_grid(g, fmt="yaml")


def test_read_grid_schema_error_paths():
    good = {"box": [2], "dim": 1, "scale": "log", "values": [0.0, 1.0, 2.0]}
    cases = [
        ({**good, "box": [-1]}, "/box"),
        ({**good, "dim": 2}, "/dim"),
        ({**good, "scale": "linear"}, "/scale"),
        ({**good, "values": [0.0, 1.0]}, "/values"),
        ({**good, "values": [0.0, "big", 2.0]}, "/values/1"),
        ({k: v for k, v in good.items() if k != "values"}, "/values"),
        ({**good, "values": "0,1,2"}, "/values"),
    ]
    for obj, path in cases:
        with pytest.raises(SchemaError) as err:
            read_grid(json.dumps(obj))
        assert err.value.path == path


@pytest.mark.parametrize("dim", [True, 1.0])
def test_grid_dim_must_be_an_integer(dim):
    grid = {"box": [2], "dim": dim, "scale": "exp", "values": [1.0, 1.0, 2.0]}
    with pytest.raises(SchemaError) as err:
        read_grid(json.dumps(grid))
    assert err.value.path == "/dim"
    with pytest.raises(SchemaError) as err:
        read_matrix(json.dumps({"levels": [1.0], "grids": [grid]}))
    assert err.value.path == "/grids/0/dim"


def test_grid_values_are_read_in_bulk_or_one_by_one():
    def values(vals):
        return io._grid_from_obj({"box": [3], "dim": 1, "scale": "log",
                                  "values": vals}).flat.tolist()

    big = [2 ** 53 + 1, 2 ** 70 + 2 ** 17 + 1, -(2 ** 1023), 10 ** 308]
    assert values([0, 1.5, *big[:2]]) == [0.0, 1.5] + [float(x) for x in big[:2]]
    assert values([0, *big[1:]]) == [0.0] + [float(x) for x in big[1:]]
    assert values([0.0, -0.0, 5e-324, 1e308]) == [0.0, -0.0, 5e-324, 1e308]
    special = values([0, None, "inf", "-inf"])
    assert math.isnan(special[1]) and special[2:] == [math.inf, -math.inf]
    for bad, path in (([0, 1, True, 2.5], "/values/2"), ([0, False, 1, 2], "/values/1"),
                      ([0, 1, 2, "2"], "/values/3"), ([0, [1], 2, 3], "/values/1")):
        with pytest.raises(SchemaError) as err:
            values(bad)
        assert err.value.path == path
    for vals in ([0, 1, 10 ** 400, 2], [0, 1.5, -(10 ** 400), 2], [0, None, 10 ** 400, 2]):
        with pytest.raises(OverflowError):
            values(vals)


def test_read_grid_validates_semantics_unless_told_not_to():
    bad = {"box": [1], "dim": 1, "scale": "exp", "values": [1.0, -2.0]}
    with pytest.raises(GridValidationError):
        read_grid(json.dumps(bad))
    raw = io._grid_from_obj(bad)
    assert raw.value((1,)) == -2.0


def test_grid_json_normalizes_negative_zero():
    g = SequenceGrid((1,), [0.0, -0.0], LOG)
    text = write_grid(g)
    assert "-0" not in text
    assert read_grid(text).value((1,)) == 0.0


# --------------------------------------------------------------- grid CSV


def test_csv_round_trip_one_dimension():
    g = SequenceGrid((3,), [0.0, 2.0, math.inf, 6.0], LOG)
    text = write_grid(g, fmt="csv")
    assert text.startswith("# dim: 1\n# scale: log\nalpha,value\n")
    back = read_grid(text)
    assert back.box == (3,) and back.scale == LOG
    assert np.array_equal(back.values, g.values)


def test_csv_round_trip_two_dimensions():
    g = notconvex_grid((2, 2))
    text = write_grid(g, fmt="csv")
    lines = text.splitlines()
    assert lines[2] == ",0,1,2"
    assert lines[3].startswith("0,1,")
    back = read_grid(text)
    assert back.box == g.box and back.scale == EXP
    assert np.array_equal(back.values, g.values)


def test_csv_rejects_higher_dimensions():
    g3 = SequenceGrid((1, 1, 1), np.zeros(8), LOG)
    with pytest.raises(ValueError):
        write_grid(g3, fmt="csv")


def test_csv_schema_errors():
    one, two = "# dim: 1\n# scale: log\n", "# dim: 2\n# scale: log\n"
    cases = [
        ("alpha,value\n0,1\n", "# scale"),
        ("# scale: log\nalpha,value\n0,0\n", "# dim"),
        ("# dim: 3\n# scale: log\n", "# dim"),
        (one + "wrong,header\n0,0\n", "row 1"),
        (one + "alpha,value\n0,0\n2,5\n", "/"),
        (two + "x,0,1\n0,0,1\n", "row 1 col 1"),
        (two + ",0,1\n1,0,1\n", "row 2 col 1"),
        (one + "alpha,value\n0,zero\n", "row 2 col 2"),
        ("# dim: 1\n# scale: linear\nalpha,value\n0,0\n", "# scale"),
        ("# dim: one\n# scale: log\nalpha,value\n0,0\n", "# dim"),
        (one, "/"),
        (one + "alpha,value\n0,0,1\n", "row 2"),
        (one + "alpha,value\n0,0\n1.5,2\n", "row 3 col 1"),
        (one + "alpha,value\n-1,0\n", "row 2 col 1"),
        (two + ",0,2\n0,0,1\n", "row 1"),
        (two + ",0,1\n", "/"),
        (two + ",0,1\n0,0\n", "row 2"),
    ]
    for text, path in cases:
        with pytest.raises(SchemaError) as err:
            read_grid(text)
        assert err.value.path == path, text


# ----------------------------------------------------------------- matrix


def test_matrix_grid_count_error_states_what_was_found():
    f1 = {"box": [1], "dim": 1, "scale": "exp", "values": [1.0, 1.0]}
    for grids, found in (([f1], "list of 1"), ([f1] * 3, "list of 3"), ({"0": f1}, "dict")):
        with pytest.raises(SchemaError) as err:
            read_matrix(json.dumps({"levels": [1.0, 2.0], "grids": grids}))
        assert (err.value.path, err.value.found) == ("/grids", found)
    assert str(err.value) == "at /grids: expected list of 2 grids, found dict"
    with pytest.raises(SchemaError) as err:
        read_matrix(json.dumps({"levels": [1.0, 2.0], "grids": [f1, [1.0, 1.0]]}))
    assert (err.value.path, err.value.found) == ("/grids/1", "list")


def test_matrix_round_trip():
    lad = WeightMatrix(
        (1.0, 2.0),
        (factorial_grid(4),
         SequenceGrid.from_function((4,), lambda a: math.factorial(a[0]) * 2.0 ** a[0], EXP)))
    back = read_matrix(write_matrix(lad))
    assert back.levels == lad.levels
    for g1, g2 in zip(back.grids, lad.grids):
        assert np.array_equal(g1.values, g2.values)


def test_matrix_reader_wraps_semantic_failures():
    f3 = {"box": [3], "dim": 1, "scale": "exp",
          "values": [1.0, 1.0, 2.0, 6.0]}
    halved = {**f3, "values": [1.0, 0.5, 1.0, 3.0]}
    with pytest.raises(SchemaError) as err:
        read_matrix(json.dumps({"levels": [1.0, 2.0], "grids": [f3, halved]}))
    assert err.value.path == "/grids"
    assert "monotone" in err.value.found
    with pytest.raises(SchemaError):
        read_matrix('{"levels": [1.0], "grids": []}')
    with pytest.raises(SchemaError):
        read_matrix('{"levels": [], "grids": []}')
    with pytest.raises(SchemaError):
        read_matrix('{"grids": []}')
    with pytest.raises(SchemaError):
        read_matrix("[1,2]")


# -------------------------------------------------------------- witnesses


def test_relation_witness_round_trip():
    w = RelationWitness("triangle", (RelationEntry(1.0, 2.0, 64.0, 0.5),
                                     RelationEntry(2.0, 2.0, 8.0, 0.25)))
    text = write_relation_witness(w)
    assert read_relation_witness(text) == w
    plain = RelationWitness("roumieu", (RelationEntry(1.0, 1.0, 10.0),))
    back = read_relation_witness(write_relation_witness(plain))
    assert back == plain
    assert back.entries[0].h is None


def test_witness_obj_is_the_written_document_read_back():
    for w, write in ((RelationWitness("triangle", (RelationEntry(1.0, 2.0, 64.0, 0.5),)),
                      write_relation_witness),
                     (RelationWitness("roumieu", (RelationEntry(1.0, 1.0, 10.0),)),
                      write_relation_witness),
                     (ConditionWitness("L12B", (ConditionEntry(1.0, 2.0, H=2.0,
                                                               pairs=((1.0, 3.0),)),)),
                      write_condition_witness)):
        obj, back = io.witness_obj(w), read_report(write(w))
        assert write_report(obj) == write(w)
        assert json.loads(json.dumps(obj)) == back
        # the same keys in the same order: the human report prints them in this order
        assert [list(obj), *map(list, obj["entries"])] == [list(back), *map(list, back["entries"])]


def test_relation_witness_schema_errors():
    cases = [
        ('{"kind": "sideways", "entries": []}', "/kind"),
        ('{"kind": "roumieu", "entries": [{"lambda": 1.0}]}', "/entries/0/kappa"),
        ('{"kind": "roumieu", "entries": "nope"}', "/entries"),
        ('{"kind": "roumieu", "entries": [{"lambda": 1.0, "kappa": 1.0, "C": 2.0}, 5]}',
         "/entries/1"),
    ]
    for text, path in cases:
        with pytest.raises(SchemaError) as err:
            read_relation_witness(text)
        assert err.value.path == path, text


def test_condition_witness_round_trips_every_shape():
    shapes = [
        ConditionWitness("L37R", (ConditionEntry(1.0, 1.0, A=2.0),)),
        ConditionWitness("L12R", (ConditionEntry(1.0, 2.0, B=1.0, C=3.0, H=0.5),)),
        ConditionWitness("L12B", (ConditionEntry(2.0, 1.0, H=1.0,
                                                 pairs=((1.0, 2.0), (4.0, 8.0))),)),
    ]
    for w in shapes:
        assert read_condition_witness(write_condition_witness(w)) == w


def test_condition_witness_schema_errors():
    with pytest.raises(SchemaError) as err:
        read_condition_witness('{"condition": "L99X", "entries": []}')
    assert err.value.path == "/condition"
    with pytest.raises(SchemaError):
        read_condition_witness(json.dumps({"condition": "L12B",
                                           "entries": [{"lambda": 1.0, "kappa": 1.0,
                                                        "H": 1.0, "pairs": [[1.0]]}]}))


def test_matrix_and_witness_readers_take_only_text():
    texts = {read_matrix: write_matrix(WeightMatrix((1.0,), (factorial_grid(2),))),
             read_relation_witness: '{"kind": "roumieu", "entries": []}',
             read_condition_witness: '{"condition": "L37R", "entries": []}'}
    for reader, text in texts.items():
        reader(text)
        for source in (text.encode(), json.loads(text), 42):
            with pytest.raises(SchemaError) as err:
                reader(source)
            assert (err.value.path, err.value.expected) == ("/", "str")
