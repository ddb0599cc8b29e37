"""Reading and writing grids, matrices, witnesses and reports.

All writers go through one canonical JSON form so identical data always
serializes to identical bytes:

* object keys sorted, compact separators, LF only,
* floats at 17 significant digits (doubles round-trip exactly),
* +inf, -inf and NaN as the quoted strings "inf", "-inf", "nan",
* negative zero normalized to "0".

One encoder, write_report, writes it in a single recursive walk appending
strings to a list: plain data, dataclasses, sets and non-str keys alike.  A
column table (a core.Columns: the certificates of a minorant, omega at many
t, the keys of a relation search) is written in one %-format over n
copies of a row template with its keys sorted: a float column with at most
half its values distinct, or with a non-finite one, formats each distinct
value once; any other float column goes into the format as %.17g.
to_jsonable gives the human CLI output its plain data, a column table as its
list of row objects (with rows=k, only the first k converted).

Grid files: {"box": [N1,...,Nd], "dim": d, "scale": "log"|"exp",
"values": flat row-major list}.  CSV is supported for dim <= 2 and is
self-describing through leading "# dim:" and "# scale:" comment lines;
two-dimensional files have a header row of alpha_2 values and one row per
alpha_1.  Matrix files: {"levels": [...], "grids": [grid objects]}.

Readers take the text of one file (str; the CLI decodes each file as UTF-8),
raise SchemaError with a JSON-pointer style path to the offending element
and never partially construct a value.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

from .core import (EXP, LOG, Columns, SequenceGrid, require_valid,
                   validate_grid)  # unused: perfbench/tracer.py wraps it here
from .errors import (DimensionMismatch, GridValidationError, NotNormalized,
                     SchemaError)
from .matrices import (ConditionEntry, ConditionWitness, RelationEntry, RelationWitness,
                       WeightMatrix, CONDITIONS, RELATION_KINDS)

_SPECIAL = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def fmt_float(x: float) -> str:
    """17 significant digits (doubles round-trip), "inf", "-inf", "nan"; "0" for ±0."""
    return f"{float(x) + 0.0:.17g}"  # + 0.0 turns -0.0 into 0.0


def write_report(payload) -> str:
    """Canonical JSON text of dict, list, tuple, str, int, float, bool, None,
    numpy arrays and numbers, dataclasses (objects of their fields), sets
    (sorted) and non-str keys (str(k)); TypeError on anything else."""
    out: list[str] = []
    _encode(payload, out)
    return "".join(out)


_quote = json.encoder.encode_basestring  # what json.dumps(s, ensure_ascii=False) calls
_QUOTED = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}
# What any other value is read as, in this order.
_PLAIN = (((set, frozenset), sorted), (np.ndarray, lambda a: list(a.tolist())),
          ((int, np.integer), int), ((float, np.floating), float), (str, str.__str__),
          (dict, dict), ((list, tuple), list))


def _float(x: float) -> str:
    s = f"{x + 0.0:.17g}"  # fmt_float of a float
    return _QUOTED.get(s, s)


def _encode(obj, out: list[str]) -> None:
    """Append the JSON text of obj to out; exact plain types are tried first."""
    t = type(obj)
    if t is float:
        out.append(_float(obj))
    elif t is str:
        out.append(_quote(obj))
    elif t is bool:
        out.append("true" if obj else "false")
    elif t is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif t is list or t is tuple:
        out.append("[")
        for x in obj:
            _encode(x, out)
            out.append(",")
        out[-1] = "]" if obj else "[]"
    elif t is dict:
        if not all(isinstance(k, str) for k in obj):
            obj = {k if isinstance(k, str) else str(k): v for k, v in obj.items()}
        _encode_object([(_key(k), obj[k]) for k in sorted(obj)], out)
    elif t is Columns:
        out.append(_table_text(obj))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = sorted(f.name for f in dataclasses.fields(t))
        _encode_object([(_key(n), getattr(obj, n)) for n in names], out)
    else:
        for kinds, plain in _PLAIN:
            if isinstance(obj, kinds):
                return _encode(plain(obj), out)
        raise TypeError(f"cannot serialize {t.__name__}")


def _key(k: str) -> str:
    return _quote(k) + ":"


def _encode_object(items: list[tuple[str, object]], out: list[str]) -> None:
    out.append("{")
    for key, value in items:
        out.append(key)
        _encode(value, out)
        out.append(",")
    out[-1] = "}" if items else "{}"


def _table_text(table: Columns) -> str:
    """The JSON array of a column table's rows, in one %-format."""
    columns, points = table.columns, table.points
    texts = points is not None and ["[" + ",".join(map(str, p)) + "]" for p in points.tolist()]
    slots, cells = [], []
    for key in sorted(columns):
        col, slot = columns[key], "%s"
        if col is None:
            slot = "null"
        elif col.dtype == bool and col.ndim == 1:
            cells.append([("false", "true")[v] for v in col.tolist()])
        elif col.dtype == bool:  # each row's points, read off the nonzeros
            rows, at = np.nonzero(col)
            picked = [texts[i] for i in at.tolist()]
            cut = np.searchsorted(rows, np.arange(len(col) + 1)).tolist()
            cells.append(["[" + ",".join(picked[i:j]) + "]" for i, j in zip(cut, cut[1:])])
        elif col.dtype.kind in "iu":
            cells.append([texts[i] for i in col.tolist()])
        else:  # each distinct value once, unless most are distinct and all finite
            col = col + 0.0  # -0.0 to 0.0
            unique, inverse = np.unique(col, return_inverse=True)
            if 2 * len(unique) > col.size and np.isfinite(unique).all():
                slot = "%.17g"
            else:
                col = np.array(list(map(_float, unique.tolist())),
                               dtype=object)[inverse.reshape(col.shape)]
            if col.ndim == 2:
                slot = "[" + ",".join([slot] * col.shape[1]) + "]"
            cells.extend(col.T if col.ndim == 2 else [col])
        slots.append(_key(key).replace("%", "%%") + slot)
    values = tuple(np.array(cells, dtype=object).T.ravel().tolist())  # row by row
    return "[" + ",".join(["{" + ",".join(slots) + "}"] * len(table)) % values + "]"


def _table_rows(table: Columns, stop: int | None) -> list[dict]:
    """A column table's rows as plain dicts, keys in the order of its columns;
    the rows from stop on stay None."""
    columns, points, n = table.columns, table.points, len(table)
    k = n if stop is None else min(n, stop)
    plain = [[None] * k if col is None
             else [points[row].tolist() for row in col[:k]] if col.dtype == bool and col.ndim == 2
             else (points[col[:k]] if col.dtype.kind in "iu" else col[:k]).tolist()
             for col in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*plain)] + [None] * (n - k)


def to_jsonable(obj, rows: int | None = None):
    """Recursively convert dataclasses, numpy values, tuples and sets into
    plain JSON data (floats stay floats; write_report handles specials).
    With rows=k, a column table converts only its first k rows and keeps its
    length: the rest of its list is None."""
    if type(obj) is Columns:
        return _table_rows(obj, rows)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name), rows)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k) if not isinstance(k, str) else k: to_jsonable(v, rows)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v, rows) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(v, rows) for v in sorted(obj)]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _restore(obj):
    if isinstance(obj, str) and obj in _SPECIAL:
        return _SPECIAL[obj]
    if obj is None:
        return math.nan
    if isinstance(obj, dict):
        return {k: _restore(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_restore(v) for v in obj]
    return obj


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("/", "JSON document", f"parse error: {e}") from None


def read_report(text: str) -> dict:
    """Parse report JSON, mapping the quoted special tokens back to floats."""
    return _restore(_parse(text))


def _num(v, path: str) -> float:
    if isinstance(v, bool):
        raise SchemaError(path, "number", repr(v))
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str) and v in _SPECIAL:
        return _SPECIAL[v]
    if v is None:
        return math.nan
    raise SchemaError(path, 'number or "inf"/"-inf"/"nan"', repr(v))


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "present", "missing")
    return obj[key]


def _grid_from_obj(obj, path: str = "") -> SequenceGrid:
    if not isinstance(obj, dict):
        raise SchemaError(path or "/", "object", type(obj).__name__)
    box_raw = _require(obj, "box", path)
    if (not isinstance(box_raw, list) or not box_raw
            or any(not isinstance(n, int) or isinstance(n, bool) or n < 0
                   for n in box_raw)):
        raise SchemaError(f"{path}/box", "list of nonnegative integers", repr(box_raw))
    box = tuple(box_raw)
    dim = _require(obj, "dim", path)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim != len(box):
        raise SchemaError(f"{path}/dim", f"{len(box)} (length of box)", repr(dim))
    scale = _require(obj, "scale", path)
    if scale not in (LOG, EXP):
        raise SchemaError(f"{path}/scale", '"log" or "exp"', repr(scale))
    values = _require(obj, "values", path)
    if not isinstance(values, list):
        raise SchemaError(f"{path}/values", "list", type(values).__name__)
    n = math.prod(b + 1 for b in box)
    if len(values) != n:
        raise SchemaError(f"{path}/values", f"{n} entries for box {box}",
                          f"{len(values)} entries")
    if not set(map(type, values)) <= {int, float}:  # not only numbers: one by one
        values = [_num(v, f"{path}/values/{i}") for i, v in enumerate(values)]
    return SequenceGrid(box, values, scale)


def grid_to_obj(g: SequenceGrid) -> dict:
    vals = [x if math.isfinite(x) else fmt_float(x) for x in g.flat.tolist()]
    return {"box": list(g.box), "dim": g.dim, "scale": g.scale, "values": vals}


def read_grid(source: str) -> SequenceGrid:
    """Parse and validate a grid from the text of a file: JSON when it starts
    with "{", CSV otherwise.  Semantic violations (incomplete data, bad origin,
    nonpositive EXP values) raise GridValidationError after a syntactically
    clean parse."""
    if isinstance(source, str) and source.lstrip()[:1] != "{":
        g = _grid_from_csv(source)
    else:
        g = _grid_from_obj(_load_obj(source))
    require_valid(g)
    return g


def write_grid(g: SequenceGrid, fmt: str = "json") -> str:
    if fmt == "json":
        return write_report(grid_to_obj(g))
    if fmt == "csv":
        return _grid_to_csv(g)
    raise ValueError(f"unknown format {fmt!r}")


def _csv_num(tok: str, path: str) -> float:
    tok = tok.strip()
    if tok in _SPECIAL:
        return _SPECIAL[tok]
    try:
        return float(tok)
    except ValueError:
        raise SchemaError(path, "number or inf/-inf/nan", repr(tok)) from None


def _grid_from_csv(text: str) -> SequenceGrid:
    meta = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                k, _, v = body.partition(":")
                meta[k.strip()] = v.strip()
            continue
        if line.strip():
            rows.append(line)
    if "scale" not in meta:
        raise SchemaError("# scale", 'comment line "# scale: log|exp"', "missing")
    scale = meta["scale"]
    if scale not in (LOG, EXP):
        raise SchemaError("# scale", '"log" or "exp"', repr(scale))
    if "dim" not in meta:
        raise SchemaError("# dim", 'comment line "# dim: 1|2"', "missing")
    try:
        dim = int(meta["dim"])
    except ValueError:
        raise SchemaError("# dim", "integer", repr(meta["dim"])) from None
    if dim not in (1, 2):
        raise SchemaError("# dim", "1 or 2 (CSV only covers dim <= 2)", repr(dim))
    parsed = list(csv.reader(rows))
    if not parsed:
        raise SchemaError("/", "at least a header row", "no data rows")
    if dim == 1:
        if [c.strip() for c in parsed[0]] != ["alpha", "value"]:
            raise SchemaError("row 1", 'header "alpha,value"', repr(parsed[0]))
        vals = {}
        for r, row in enumerate(parsed[1:], start=2):
            if len(row) != 2:
                raise SchemaError(f"row {r}", "two cells", f"{len(row)} cells")
            p = _csv_num(row[0], f"row {r} col 1")
            if p != int(p) or p < 0:
                raise SchemaError(f"row {r} col 1", "nonnegative integer index", row[0])
            vals[int(p)] = _csv_num(row[1], f"row {r} col 2")
        if not vals or sorted(vals) != list(range(max(vals) + 1)):
            raise SchemaError("/", "indices 0..N each exactly once", repr(sorted(vals)))
        return SequenceGrid((max(vals),), [vals[p] for p in sorted(vals)], scale)
    header = parsed[0]
    if header[0].strip() != "":
        raise SchemaError("row 1 col 1", "empty corner cell", repr(header[0]))
    n2 = len(header) - 1
    if n2 < 1 or [h.strip() for h in header[1:]] != [str(j) for j in range(n2)]:
        raise SchemaError("row 1", "header cells 0..N2 in order", repr(header))
    body = parsed[1:]
    n1 = len(body)
    if n1 < 1:
        raise SchemaError("/", "at least one data row", "none")
    values = np.empty((n1, n2))
    for i, row in enumerate(body):
        if len(row) != n2 + 1:
            raise SchemaError(f"row {i + 2}", f"{n2 + 1} cells", f"{len(row)} cells")
        if row[0].strip() != str(i):
            raise SchemaError(f"row {i + 2} col 1", str(i), repr(row[0]))
        for j, tok in enumerate(row[1:]):
            values[i, j] = _csv_num(tok, f"row {i + 2} col {j + 2}")
    return SequenceGrid((n1 - 1, n2 - 1), values.reshape(-1), scale)


def _grid_to_csv(g: SequenceGrid) -> str:
    if g.dim > 2:
        raise ValueError("CSV output only covers dim <= 2")
    lines = [f"# dim: {g.dim}", f"# scale: {g.scale}"]
    flat = g.flat
    if g.dim == 1:
        lines.append("alpha,value")
        for p, v in enumerate(flat.tolist()):
            lines.append(f"{p},{fmt_float(v)}")
    else:
        n1, n2 = g.box[0] + 1, g.box[1] + 1
        lines.append("," + ",".join(str(j) for j in range(n2)))
        V = flat.reshape(n1, n2)
        for i in range(n1):
            lines.append(f"{i}," + ",".join(fmt_float(v) for v in V[i].tolist()))
    return "\n".join(lines) + "\n"


def read_matrix(source: str) -> WeightMatrix:
    obj = _load_obj(source)
    levels_raw = _require(obj, "levels", "")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise SchemaError("/levels", "nonempty list", repr(levels_raw))
    levels = [_num(v, f"/levels/{i}") for i, v in enumerate(levels_raw)]
    grids_raw = _require(obj, "grids", "")
    if not isinstance(grids_raw, list) or len(grids_raw) != len(levels_raw):
        raise SchemaError("/grids", f"list of {len(levels_raw)} grids",
                          f"list of {len(grids_raw)}" if isinstance(grids_raw, list)
                          else type(grids_raw).__name__)
    grids = [_grid_from_obj(gobj, f"/grids/{i}") for i, gobj in enumerate(grids_raw)]
    try:
        return WeightMatrix(tuple(levels), tuple(grids))
    except (ValueError, GridValidationError, NotNormalized, DimensionMismatch) as e:
        raise SchemaError("/grids", "a valid weight matrix", str(e)) from None


def write_matrix(m: WeightMatrix) -> str:
    return write_report({"levels": list(m.levels),
                           "grids": [grid_to_obj(g) for g in m.grids]})


def read_relation_witness(source: str) -> RelationWitness:
    obj = _load_obj(source)
    kind = _require(obj, "kind", "")
    if kind not in RELATION_KINDS:
        raise SchemaError("/kind", f"one of {RELATION_KINDS}", repr(kind))
    entries = []
    for p, e, lam, kappa in _witness_entries(obj):
        C = _num(_require(e, "C", p), f"{p}/C")
        h = _num(e["h"], f"{p}/h") if "h" in e else None
        entries.append(RelationEntry(lam, kappa, C, h))
    return RelationWitness(kind, tuple(entries))


def _witness_entries(obj: dict):
    """(path, object, lambda, kappa) of each entry of a witness document."""
    entries_raw = _require(obj, "entries", "")
    if not isinstance(entries_raw, list):
        raise SchemaError("/entries", "list", type(entries_raw).__name__)
    for i, e in enumerate(entries_raw):
        p = f"/entries/{i}"
        if not isinstance(e, dict):
            raise SchemaError(p, "object", type(e).__name__)
        yield (p, e, _num(_require(e, "lambda", p), f"{p}/lambda"),
               _num(_require(e, "kappa", p), f"{p}/kappa"))


def witness_obj(w: RelationWitness | ConditionWitness) -> dict:
    """A witness document as plain data, keys in the sorted order write_report
    writes and read_report reads back: the kind (or condition), and each
    entry's lambda, kappa and those of its constants that are not None."""
    head = ("kind", w.kind) if isinstance(w, RelationWitness) else ("condition", w.condition)
    entries = [dict(sorted([("lambda", e.lam), ("kappa", e.kappa)] + [
        (n, v) for n, v in vars(e).items() if n not in ("lam", "kappa") and v is not None]))
        for e in w.entries]
    return dict(sorted([head, ("entries", entries)]))


def write_relation_witness(w: RelationWitness) -> str:
    return write_report(witness_obj(w))


def read_condition_witness(source: str) -> ConditionWitness:
    obj = _load_obj(source)
    cond = _require(obj, "condition", "")
    if cond not in CONDITIONS:
        raise SchemaError("/condition", f"one of {CONDITIONS}", repr(cond))
    entries = []
    for p, e, lam, kappa in _witness_entries(obj):
        kw = {}
        for name in ("A", "B", "C", "H"):
            if name in e:
                kw[name] = _num(e[name], f"{p}/{name}")
        if "pairs" in e:
            pr = e["pairs"]
            if (not isinstance(pr, list)
                    or any(not isinstance(t, list) or len(t) != 2 for t in pr)):
                raise SchemaError(f"{p}/pairs", "list of [C, B] pairs", repr(pr))
            kw["pairs"] = tuple(
                (_num(t[0], f"{p}/pairs/{j}/0"), _num(t[1], f"{p}/pairs/{j}/1"))
                for j, t in enumerate(pr))
        entries.append(ConditionEntry(lam, kappa, **kw))
    return ConditionWitness(cond, tuple(entries))


def write_condition_witness(w: ConditionWitness) -> str:
    return write_report(witness_obj(w))


def _load_obj(source: str) -> dict:
    if not isinstance(source, str):
        raise SchemaError("/", "str", type(source).__name__)
    obj = _parse(source)
    if not isinstance(obj, dict):
        raise SchemaError("/", "object", type(obj).__name__)
    return obj
