"""Every tolerance of the package is defined once, in one block of ``core``.

A float literal in (0, 0.1) anywhere in ``src/logcvx`` is a tolerance, unless
it is one of the definitions in that block; so is any module-level name ending
in ``_TOL``.  The EXP range is decided once too: only ``core`` names
``EXP_LIMIT``, and every other module calls ``core.require_exp_range``.
"""
import ast
from pathlib import Path

from logcvx import core

SRC = Path(core.__file__).parent
MAX_TOLERANCES = 6


def _tolerance_block(tree: ast.Module) -> list[ast.Assign]:
    """The module-level assignments of core whose names end in _TOL; they must
    follow one another with no other statement between them."""
    at = [i for i, node in enumerate(tree.body) if isinstance(node, ast.Assign)
          and any(isinstance(t, ast.Name) and t.id.endswith("_TOL") for t in node.targets)]
    assert at, "core defines no tolerance"
    assert at == list(range(at[0], at[-1] + 1)), "core's tolerances are not one block"
    return [tree.body[i] for i in at]


def _small_floats(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 0.1:
            yield node


def test_every_tolerance_is_defined_once_in_the_core_block():
    block = _tolerance_block(ast.parse((SRC / "core.py").read_text()))
    assert len(block) <= MAX_TOLERANCES
    allowed = {("core.py", node.value.lineno) for node in block}
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        stray += [f"{path.name}:{node.lineno}: literal {node.value!r}"
                  for node in _small_floats(tree) if (path.name, node.lineno) not in allowed]
        if path.name != "core.py":
            stray += [f"{path.name}:{node.lineno}: defines {t.id}"
                      for node in tree.body if isinstance(node, ast.Assign)
                      for t in node.targets
                      if isinstance(t, ast.Name) and t.id.endswith("_TOL")]
    assert stray == []


def test_each_tolerance_in_the_block_is_a_positive_float_with_its_rule():
    text = (SRC / "core.py").read_text()
    lines = text.splitlines()
    for node in _tolerance_block(ast.parse(text)):
        name = node.targets[0].id
        value = getattr(core, name)
        assert type(value) is float and 0 < value < 0.1, name
        assert "#" in lines[node.lineno - 1], f"{name} has no comment saying what it decides"


def test_only_core_names_the_exp_limit():
    named = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "EXP_LIMIT":
                named.append(f"{path.name}:{node.lineno}")
    assert named == []
