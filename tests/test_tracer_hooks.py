"""The benchmark's tracer wraps library functions by module attribute
(perfbench/tracer.py, TARGETS).  An attribute it names that the program no
longer holds breaks every traced run, so every hook is checked here, and so
is what its extras read from the library's results, on one op of each
workload.  The benchmark's files are only read."""
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


def test_the_tracer_reads_one_op_of_each_workload(tracer, tmp_path, capsys):
    import inputs
    ops = [inputs.build(workload, 1, tmp_path / workload)[0][0]
           for workload in ("minorant", "check", "relation")]
    t = tracer.Tracer()
    main = t.main()
    t.install()
    try:
        codes = [main(list(op.argv)) for op in ops]
    finally:
        t.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    layer = {k: v["value"] for k, v in tracer.per_layer(t.spans, 1, 0).items()}
    assert layer["matrices.candidates"] == 3 * 3 * 11  # lam, kappa, h
    # check samples nothing, and the tracer, reading no s grid from the call,
    # counts the default one: 200 per axis on (6, 6)
    assert layer["assoc.samples_x_points"] == 200 ** 2 * 7 * 7
    assert layer["io.read_bytes"] == sum(Path(f).stat().st_size for op in ops for f in op.files)
    assert layer["cli.render_ms"] > 0
