"""Source rules: checks are not asserts, verdicts have one home, the
sparse e-coordinate cache of a Point stays private to the engine, and
the engine has no |Gamma|^2 sweep over a stage matrix's ids."""

import ast
import pathlib

import bdspace

VERDICTS = {"verified", "reported", "violated"}
SOURCES = sorted(pathlib.Path(bdspace.__file__).parent.glob("*.py"))


def test_no_asserts_and_verdict_literals_only_in_certificates():
    """`python -O` strips asserts, so library checks must raise; verdict
    strings are spelled once, in certificates.py."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d assert" % (path.name, node.lineno))
            elif (isinstance(node, ast.Constant) and node.value in VERDICTS
                  and path.name != "certificates.py"):
                found.append("%s:%d %r" % (path.name, node.lineno,
                                           node.value))
    assert len(SOURCES) > 5
    assert found == []


def test_e_cache_stays_in_the_engine():
    """`Point.e_cache` holds nonzeros under a coverage marker; outside
    engine.py a missing key would be misread, so values go through the
    engine's accessors (`value`, `pair`, `nonzeros`)."""
    found = []
    for path in SOURCES:
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "e_cache":
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _sweeps_ids(node):
    """A loop over `self.ids`, another object's `.ids` or a local `ids`."""
    if not isinstance(node, ast.For):
        return False
    it = node.iter
    return (isinstance(it, ast.Attribute) and it.attr == "ids"
            or isinstance(it, ast.Name) and it.id == "ids")


def test_no_quadratic_sweep_over_ids_in_the_engine():
    """Stage-matrix columns are reach-solved and the biorthogonality
    check scatters columns into transposed rows; a loop over the ids
    nested inside another would bring back the dense |Gamma|^2 sweep,
    which lives on only as the test oracle."""
    path = SOURCES[0].parent / "engine.py"
    found = []
    for outer in ast.walk(ast.parse(path.read_text(), str(path))):
        if _sweeps_ids(outer):
            found.extend("engine.py:%d" % inner.lineno
                         for inner in ast.walk(outer)
                         if inner is not outer and _sweeps_ids(inner))
    assert found == []
