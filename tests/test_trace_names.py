"""Every dmshape name the perfbench tracer reaches for still exists.

perfbench/tracer.py wraps dmshape functions by (module, attribute) in its
SPANS table, times the kernels it calls as ``kb.<name>``, and counts work
with len() of traced arguments and results.  A refactor that renames a
traced function would break only the next ``--trace 1`` run, so these names
are read from the tracer's source with ast and resolved here.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

import dmshape as d
from dmshape import kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
A2 = d.AmplitudeAlphabet((1, 3))


def traced_names(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of every SPANS entry, then ("dmshape.kernels",
    name) of every ``kb.<name>`` the source calls."""
    tree = ast.parse(source)
    names = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["SPANS"]):
            names += [(mod, attr) for mod, attr, _ in
                      ast.literal_eval(node.value)]
    names += sorted({("dmshape.kernels", node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id == "kb"})
    return names


def unresolved(names: list[tuple[str, str]]) -> list[tuple[str, str]]:
    missing = []
    for module, attr in names:
        try:
            reduce(getattr, attr.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append((module, attr))
    return missing


def test_every_traced_name_resolves():
    names = traced_names(TRACER.read_text())
    assert ("dmshape.ess", "build_ess") in names
    assert ("dmshape.kernels", "shells_upto") in names
    assert unresolved(names) == []


def test_gate_finds_a_misspelt_name():
    source = ('SPANS = (("dmshape.ess", "build_esss", "ess.build_ess"),\n'
              '         ("dmshape.codec", "SchemeCodec.encode", "c.e"))\n'
              'kb.shells_upto(1, (1,), 1)\nkb.cc_unrankk(0, (1,))\n')
    assert unresolved(traced_names(source)) == [
        ("dmshape.ess", "build_esss"), ("dmshape.kernels", "cc_unrankk")]


def test_traced_values_have_the_read_attributes():
    # the tracer's counters and per-scheme tags read these off traced calls
    built = d.build_ess(6, 4, A2)
    assert len(built.leaves) == 3
    model = d.NliModel(eta0=1.5e4, eta1=8e3, ase_variance_w=2e-5,
                       launch_power_w=1e-3)
    report = d.analyze(built, model)
    assert len(report.entries) == 3
    units, _ = A2.integer_energies()
    assert len(kernels.shells_upto(6, units, 6 * units[-1])) == 7
    assert d.SchemeCodec(built).set.scheme == "ess"
    # perfbench's codec checker maps leaf counts to weights
    assert {leaf.counts: leaf.weight for leaf in built.leaves} == {
        (6, 0): 0.0625, (5, 1): 0.375, (4, 2): 0.5625}
