"""Every name in ``logcvx.__all__`` has a caller outside the module that
defines it, in ``src/logcvx`` or ``perfbench/``, or a recorded reason to stay.

A caller is an ``ast`` reference through the defining module or the package:
``from .assoc import omega``, ``from logcvx import omega``, ``assoc.omega``
under any alias of the module, or a ``(module, "omega")`` pair of the kind
the benchmark's tracer patches.  Tests are not callers.
"""
import ast
from pathlib import Path

import logcvx

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logcvx"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}

# exported name -> why it stays without a caller outside its module
KEEP = {
    **dict.fromkeys(
        ["ConditionReport", "GrowthDiagnostic", "LogConvexMinorant",
         "LogConvexityReport", "NewtonPolygon", "OmegaEval", "PolygonSegment",
         "RelationReport", "SearchOutcome", "SlackRecord", "StabilityReport", "Violation"],
        "the type of an exported function's result, for annotations and isinstance"),
    **dict.fromkeys(["BEURLING", "ROUMIEU", "TRIANGLE"],
                    "a relation kind of verify_relation and search_relation, by name"),
    "omega": "the paper's omega_M at one point, in one call",
    "q3_supremum": "the paper's q3 supremum at one index, exact at its certificate slope",
    "q3_supremum_log": "q3_supremum on the log scale, where it cannot overflow",
    "log_convex_minorant": "the paper's log-convex regularization exp((log M)^c)",
    "evaluate": "the 1-D sweep's minorant at a real abscissa",
    "audit_minorant": "the solver-free check of a minorant result against the data",
    "boundary_infinities": "the +inf entries on the outer shell, where the minorant is +inf",
    "boundary_restriction": "the face alpha_j = 0 of a grid as a (d-1)-dimensional grid",
    "to_log": "the inverse of to_exp",
    "write_condition_witness": "the writer paired with read_condition_witness",
    "SplitMix64": "the seeded PRNG whose update formula the generators document",
}


def _module_of(node: ast.ImportFrom, here: str) -> str | None:
    """'logcvx' for the package, a submodule's stem, or None for other imports."""
    if node.level == 1 and here in MODULES | {"__init__"}:
        return node.module or "logcvx"
    if node.level == 0 and node.module and node.module.split(".")[0] == "logcvx":
        return node.module.split(".")[-1]
    return None


def references(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs referenced in one file; 'logcvx' is the package."""
    here = path.stem if path.parent == PACKAGE else ""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}  # local name -> module it binds
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "logcvx":
                    aliases[a.asname or a.name] = a.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom) and (mod := _module_of(node, here)):
            for a in node.names:
                if mod == "logcvx" and a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
                else:
                    refs.add((mod, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, name = node.value.id, node.attr
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)):
            owner, name = node.elts[0].id, node.elts[1].value
        else:
            continue
        if owner in aliases:
            refs.add((aliases[owner], name))
    return refs


def homes() -> dict[str, str]:
    """Exported name -> the module ``__init__`` imports it from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {a.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}


def test_every_export_has_a_caller_or_a_reason():
    home = homes()
    assert set(logcvx.__all__) == set(home)
    called = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for mod, name in references(path):
            mod = home.get(name) if mod == "logcvx" else mod
            if path.parent != PACKAGE or path.stem not in (mod, "__init__"):
                called.add((mod, name))
    uncalled = {name for name, mod in home.items() if (mod, name) not in called}
    assert sorted(uncalled - set(KEEP)) == [], "delete these or give KEEP a reason"
    assert sorted(set(KEEP) - uncalled) == [], "these have callers now; drop them from KEEP"
