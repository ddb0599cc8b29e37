"""The benchmark's tracer wraps library functions by module attribute
(perfbench/tracer.py, TARGETS).  An attribute it names that the program no
longer holds breaks every traced run, so every hook is checked here.  The
benchmark's files are only read."""
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        yield tracer
    finally:
        sys.path.remove(str(PERFBENCH))


def _hooks(tracer):
    return [(module, attr) for attrs, _ in tracer.TARGETS.values() for module, attr in attrs]


def test_every_traced_attribute_exists(tracer):
    missing = [f"{module.__name__}.{attr}" for module, attr in _hooks(tracer)
               if not hasattr(module, attr)]
    assert missing == []


def test_install_then_uninstall_restores_every_attribute(tracer):
    before = [(module, attr, getattr(module, attr)) for module, attr in _hooks(tracer)]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in before)
    finally:
        t.uninstall()
    assert all(getattr(module, attr) is fn for module, attr, fn in before)
