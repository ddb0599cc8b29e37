"""Reading and writing grids, matrices, witnesses and reports.

All writers go through one canonical JSON form so identical data always
serializes to identical bytes:

* object keys sorted, compact separators, LF only,
* floats at 17 significant digits (doubles round-trip exactly),
* +inf, -inf and NaN as the quoted strings "inf", "-inf", "nan",
* negative zero normalized to "0".

Grid files: {"box": [N1,...,Nd], "dim": d, "scale": "log"|"exp",
"values": flat row-major list}.  CSV is supported for dim <= 2 and is
self-describing through leading "# dim:" and "# scale:" comment lines;
two-dimensional files have a header row of alpha_2 values and one row per
alpha_1.  Matrix files: {"levels": [...], "grids": [grid objects]}.

Readers raise SchemaError with a JSON-pointer style path to the offending
element and never partially construct a value.
"""
from __future__ import annotations

import csv
import dataclasses
import io as _stdio
import json
import math

import numpy as np

from .core import EXP, LOG, SequenceGrid, validate_grid
from .errors import (DimensionMismatch, GridValidationError, NotNormalized,
                     SchemaError)
from .matrices import (ConditionEntry, ConditionWitness, RelationEntry,
                       RelationWitness, WeightMatrix, CONDITIONS,
                       RELATION_KINDS)

_SPECIAL = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def fmt_float(x: float) -> str:
    """17-significant-digit decimal; exact round trip for doubles."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def canonical_json(obj) -> str:
    """Deterministic JSON text of plain data (dict/list/str/num/bool/None)."""
    out = _stdio.StringIO()
    _dump(obj, out)
    return out.getvalue()


def _dump(obj, out) -> None:
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
            _dump(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.write("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, item in enumerate(seq):
            if i:
                out.write(",")
            _dump(item, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_jsonable(obj):
    """Recursively convert dataclasses, numpy values, tuples and sets into
    plain JSON data (floats stay floats; canonical_json handles specials)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k) if not isinstance(k, str) else k: to_jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(obj)]
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


def read_report(text: str) -> dict:
    """Parse report JSON, mapping the quoted special tokens back to floats."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("/", "JSON document", f"parse error: {e}") from None
    return _restore(data)


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
    if dim != len(box):
        raise SchemaError(f"{path}/dim", f"{len(box)} (length of box)", repr(dim))
    scale = _require(obj, "scale", path)
    if scale not in (LOG, EXP):
        raise SchemaError(f"{path}/scale", '"log" or "exp"', repr(scale))
    values = _require(obj, "values", path)
    if not isinstance(values, list):
        raise SchemaError(f"{path}/values", "list", type(values).__name__)
    n = 1
    for b in box:
        n *= b + 1
    if len(values) != n:
        raise SchemaError(f"{path}/values", f"{n} entries for box {box}",
                          f"{len(values)} entries")
    flat = [_num(v, f"{path}/values/{i}") for i, v in enumerate(values)]
    return SequenceGrid(box, flat, scale)


def grid_to_obj(g: SequenceGrid) -> dict:
    vals = [x if math.isfinite(x) else fmt_float(x) for x in g.flat.tolist()]
    return {"box": list(g.box), "dim": g.dim, "scale": g.scale, "values": vals}


def read_grid(source, fmt: str | None = None, validate: bool = True) -> SequenceGrid:
    """Parse a grid from JSON text, CSV text, or an already-decoded dict.

    With fmt None the format is sniffed: text starting with "{" is JSON.
    Semantic violations (incomplete data, bad origin, nonpositive EXP values)
    raise GridValidationError after a syntactically clean parse; pass
    validate=False to obtain the raw grid anyway.
    """
    if isinstance(source, dict):
        return _validated(_grid_from_obj(source), validate)
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if not isinstance(source, str):
        raise SchemaError("/", "str, bytes or dict", type(source).__name__)
    kind = fmt
    if kind is None:
        kind = "json" if source.lstrip()[:1] == "{" else "csv"
    if kind == "json":
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as e:
            raise SchemaError("/", "JSON document", f"parse error: {e}") from None
        return _validated(_grid_from_obj(obj), validate)
    if kind == "csv":
        return _validated(_grid_from_csv(source), validate)
    raise ValueError(f"unknown format {fmt!r}")


def _validated(g: SequenceGrid, validate: bool) -> SequenceGrid:
    if validate:
        violations = validate_grid(g)
        if violations:
            raise GridValidationError(violations)
    return g


def write_grid(g: SequenceGrid, fmt: str = "json") -> str:
    if fmt == "json":
        return canonical_json(grid_to_obj(g))
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


def read_matrix(source) -> WeightMatrix:
    obj = _load_obj(source)
    levels_raw = _require(obj, "levels", "")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise SchemaError("/levels", "nonempty list", repr(levels_raw))
    levels = [_num(v, f"/levels/{i}") for i, v in enumerate(levels_raw)]
    grids_raw = _require(obj, "grids", "")
    if not isinstance(grids_raw, list) or len(grids_raw) != len(levels_raw):
        raise SchemaError("/grids", f"list of {len(levels_raw)} grids",
                          f"{type(grids_raw).__name__}")
    grids = [_grid_from_obj(gobj, f"/grids/{i}") for i, gobj in enumerate(grids_raw)]
    try:
        return WeightMatrix(tuple(levels), tuple(grids))
    except (ValueError, GridValidationError, NotNormalized, DimensionMismatch) as e:
        raise SchemaError("/grids", "a valid weight matrix", str(e)) from None


def write_matrix(m: WeightMatrix) -> str:
    return canonical_json({"levels": list(m.levels),
                           "grids": [grid_to_obj(g) for g in m.grids]})


def read_relation_witness(source) -> RelationWitness:
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


def write_relation_witness(w: RelationWitness) -> str:
    entries = []
    for e in w.entries:
        d = {"lambda": e.lam, "kappa": e.kappa, "C": e.C}
        if e.h is not None:
            d["h"] = e.h
        entries.append(d)
    return canonical_json({"kind": w.kind, "entries": entries})


def read_condition_witness(source) -> ConditionWitness:
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
    entries = []
    for e in w.entries:
        d = {"lambda": e.lam, "kappa": e.kappa}
        for name in ("A", "B", "C", "H"):
            v = getattr(e, name)
            if v is not None:
                d[name] = v
        if e.pairs is not None:
            d["pairs"] = [[C, B] for C, B in e.pairs]
        entries.append(d)
    return canonical_json({"condition": w.condition, "entries": entries})


def _load_obj(source) -> dict:
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as e:
            raise SchemaError("/", "JSON document", f"parse error: {e}") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise SchemaError("/", "object", type(obj).__name__)
    return obj


def write_report(payload) -> str:
    """Canonical JSON for an arbitrary report structure (dataclasses allowed)."""
    return canonical_json(to_jsonable(payload))
