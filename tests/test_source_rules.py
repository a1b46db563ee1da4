"""Source rules: checks are not asserts, verdicts have one home, the
sparse e-coordinate cache of a Point stays private to the engine, sums
of Points are built only by the engine's `combination`, only
the integer kernel takes an lcm of denominators, the mixed-Tsirelson
oracle names nothing of the DP it checks, an element's kind and
sigma-code are read only in the registry, element records are built
only by the registry's two constructors, the witness layer forges over
skipped windows in one walk, the engine has no |Gamma|^2 sweep over a
stage matrix's ids, no code is reachable from the tests
alone, and no defaulted parameter keeps a value that no caller
changes."""

import ast
import pathlib

import bdspace

VERDICTS = {"verified", "reported", "violated"}
SOURCES = sorted(pathlib.Path(bdspace.__file__).parent.glob("*.py"))
BENCH = sorted((pathlib.Path(__file__).parent.parent / "perfbench")
               .glob("*.py"))

# names defined in the package that nothing in it or the benchmark uses
TEST_ONLY_ALLOWED = {
    "revalidate": "the public re-check of every registry invariant",
}


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
    engine's accessors (`value`, `pair`, `numerators`)."""
    found = []
    for path in SOURCES:
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "e_cache":
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_point_sums_have_one_home():
    """`engine.combination` alone decides when a sum of Points keeps its
    terms' solved values; outside engine.py no code sums d-vectors with
    `accumulate(x.d_coords, ...)`, which would build a second sum that
    drops them."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in SOURCES if path.name != "engine.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "accumulate"
             and any(isinstance(arg, ast.Attribute)
                     and arg.attr == "d_coords" for arg in node.args)]
    assert found == []


def _takes_lcm(node):
    """`from math import lcm` or a `math.lcm` read."""
    return (isinstance(node, ast.ImportFrom) and node.module == "math"
            and any(alias.name == "lcm" for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "lcm")


def test_integer_scaling_has_one_home():
    """Only the kernel in funcs.py takes an lcm of denominators; the
    engine and the mixed-Tsirelson DP scale through `IntVec` and
    `common_denominator`, so no module keeps its own copy."""
    found = {path.name for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _takes_lcm(node)}
    assert found == {"funcs.py"}


DP_NAMES = {"mt_norm", "IntVec", "common_denominator", "norming_height",
            "active_indices"}


def test_oracle_shares_nothing_with_the_dp():
    """`mt_norm_exhaustive` is the slow oracle of the interval DP, so its
    body names neither the DP nor the helpers the DP scales and prunes
    with; a speedup that reused them would check the DP against
    itself."""
    path = SOURCES[0].parent / "mtnorm.py"
    (oracle,) = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "mt_norm_exhaustive"]
    assert set(_names_used(oracle, strings=True)) & DP_NAMES == set()


KIND_NAMES = {"BASE", "TYPE1", "TYPE2"}


def _outside_the_registry(hit):
    """file:line of each node outside registry.py for which hit holds."""
    return ["%s:%d" % (path.name, node.lineno)
            for path in SOURCES if path.name != "registry.py"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if hit(node)]


def test_element_kind_stays_in_the_registry():
    """An element's kind follows from its structure (rank 1, a
    predecessor), and the registry derives it for its stage tables;
    elsewhere code tests the structure itself, so the kind string does
    not come back as a dispatch key."""
    assert _outside_the_registry(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in KIND_NAMES | {"kind"}
        or isinstance(node, ast.alias) and node.name in KIND_NAMES) == []


def test_sigma_coding_stays_in_the_registry():
    """The registry decides which weight index an odd link's target may
    carry (`Registry.target_weights`); elsewhere code asks it, so no
    module demands a sigma-code itself."""
    assert _outside_the_registry(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sigma") == []


RECORD_BUILDERS = {"ElementRecord", "_make", "_replace"}


def _callers(node, names, owner="<module>"):
    """The innermost enclosing function of each call below node to one
    of `names`, by the callee's name or last attribute."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call)
                and getattr(child.func, "id", getattr(child.func, "attr",
                                                      None))
                in names):
            yield owner
        yield from _callers(
            child, names, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)


def test_records_are_built_only_by_the_registry():
    """A record is a tuple with named fields, so anything could make
    one; only `Registry.base` and the chain-link constructor
    `Registry.intern` build records, and `Registry.sigma` fills in a
    sigma-code, so every record in an arena passed its checks."""
    found = {(path.name, owner) for path in SOURCES + BENCH
             for owner in _callers(ast.parse(path.read_text(), str(path)),
                                   RECORD_BUILDERS)}
    assert found == {("registry.py", "base"), ("registry.py", "intern"),
                     ("registry.py", "sigma")}


def test_skipped_windows_are_forged_by_one_walk():
    """In the witness layer, `forge_even` is called only by the carrier
    source (a companion and a carrier) and by `_window_witness`, the
    walk over the skipped windows through which the lower estimate and
    the eps = 0 exact pair forge gamma; a second window walk would
    build the same object a second way."""
    path = SOURCES[0].parent / "analysis.py"
    found = sorted(_callers(ast.parse(path.read_text(), str(path)),
                            {"forge_even"}))
    assert found == ["_window_witness", "next_block", "next_block"]


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


def _names_used(tree, strings):
    """Every name a module reads or imports, and, when `strings`, every
    string it spells."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value


def _methods(tree):
    """The ids of the nodes of a module's methods: each def directly in
    a class body."""
    return {id(child) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_no_code_only_tests_reach():
    """Every function, method and class defined in the package is named
    elsewhere in the package (exports count) or in the benchmark; code
    that only tests call is deleted instead.  Strings count only in the
    benchmark, which looks some names up by string: in the package a
    dict key or a word of a message, as "kind" or "stage", would keep a
    method of the same name alive.  A method counts as used only where
    it is read as an attribute, or spelled as a string in the
    benchmark: a local variable of its name, as `kind` in
    `cli.net_policy`, does not call it."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in SOURCES + BENCH}
    used = {name for path, tree in trees.items()
            for name in _names_used(tree, strings=path in BENCH)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    read |= {node.value for path in BENCH for node in ast.walk(trees[path])
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    found = []
    for path in SOURCES:
        methods = _methods(trees[path])
        for node in ast.walk(trees[path]):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and node.name not in (read if id(node) in methods
                                          else used)
                    and node.name not in TEST_ONLY_ALLOWED):
                found.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert len(BENCH) > 3
    assert found == []


# defaulted parameters that no call in the package or the benchmark sets
DEFAULT_UNSET_ALLOWED = {
    "main.argv": "the console entry point reads sys.argv when given none",
    "suite_treelike.schedule": "a `verify` option, passed through SUITES",
    "suite_treelike.net": "a `verify` option, passed through SUITES",
    "suite_treelike.cap": "a `verify` option, passed through SUITES",
    "suite_averages.cases": "a `verify` option, passed through SUITES",
    "suite_averages.seed": "a `verify` option, passed through SUITES",
}


def _defaulted_parameters(tree):
    """(callee name, parameter, positional index or None) of each
    defaulted parameter in a module; a method's index does not count
    self or cls, and a class is called by its name for `__init__`."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                yield from walk(child, None)
            else:
                yield from walk(child, owner)

    for fn, owner in walk(tree, None):
        name = owner.name if fn.name == "__init__" else fn.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        a = fn.args
        positional = (a.posonlyargs + a.args)[
            1 if owner is not None and not static else 0:]
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, arg.arg, i
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _calls(trees):
    """{callee name: [call]}; a callee is named by its last attribute."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                out.setdefault(name, []).append(node)
    return out


def _sets(call, param, index):
    """Whether a call passes a parameter by keyword, through **, or at a
    position it reaches (a * argument reaches every position)."""
    return (any(k.arg in (param, None) for k in call.keywords)
            or index is not None
            and (len(call.args) > index
                 or any(isinstance(a, ast.Starred) for a in call.args)))


def test_every_defaulted_parameter_is_set_somewhere():
    """A defaulted parameter is passed at some call in the package or the
    benchmark to a callee of its function's name; a value that no call
    sets is a constant, not a knob.  Every allow-list entry is such a
    parameter."""
    trees = [ast.parse(path.read_text(), str(path))
             for path in SOURCES + BENCH]
    calls = _calls(trees)
    unset = {"%s.%s" % (fn, param): path.name
             for path, tree in zip(SOURCES, trees)
             for fn, param, index in _defaulted_parameters(tree)
             if not any(_sets(c, param, index) for c in calls.get(fn, ()))}
    assert sorted("%s %s" % (unset[k], k)
                  for k in unset.keys() - DEFAULT_UNSET_ALLOWED.keys()) == []
    assert sorted(DEFAULT_UNSET_ALLOWED.keys() - unset.keys()) == []
