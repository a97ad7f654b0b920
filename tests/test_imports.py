"""The package's shape: module-level imports only; no runtime dependency,
so no module imports numpy; importing the package or its command line
loads no numpy, nor fractions, decimal or numbers, a default solve loads
none of them, and a --seeds solve runs with numpy blocked; no import
cycle; exported functions that the package or a benchmark workload calls;
and only the five settings that cli.py or a benchmark workload sets:
main's argv, build_point_circle's centres class, enumerate_solutions' seed
count and RNG seed, and circular_layout's rotation_sign, which the
benchmark's GP(n,s) family sets and cli.py leaves at -1.  The verifier's
tolerances are fixed.

The package imports neither dataclasses, which loads inspect, ast, dis and
tokenize, nor typing, each a cost to every cold start; its eight record
classes are frozen values that compare and hash by their fields."""

import ast
import inspect
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import unitdist
from conftest import REPORT_FIELDS, run_python
from unitdist import (Bipartition, ConfigurationCheck, Degeneracy, Drawing,
                      FaithfulnessReport, Graph, IncidenceStructure,
                      RhombusParams, verify)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unitdist"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Modules of the package that tree imports (the package is __init__)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:  # from . import name: a submodule or a package attribute
                found.update(a.name if a.name in MODULES else "__init__"
                             for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").startswith("unitdist"):
                found.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] or "__init__"
                         for a in node.names if a.name.startswith("unitdist"))
    return found


def test_no_import_inside_a_function():
    # a deferred import can hide a cycle
    nested = [f"{name}.py:{node.lineno} in {fn.name}()"
              for name, tree in MODULES.items()
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_seeded_solve_runs_with_numpy_blocked(tmp_path):
    # a fresh process that cannot import numpy: the random starts of
    # --seeds run on the float driver
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from unitdist.cli import main\n"
        "sys.exit(main(['solve', '--seeds', '100', '--out-dir', sys.argv[1]]))\n"
    )
    done = run_python(probe, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert "found 2 non-degenerate solution(s)" in done.stdout


def test_import_leaves_numpy_and_the_number_modules_out():
    # the certificate computes on ints: fractions, which loads decimal and
    # numbers, takes a third as long to import as a cached unitdist.cli
    done = run_python("import sys, unitdist, unitdist.cli\n"
                      "print(sorted({'numpy', 'fractions', 'decimal', 'numbers'}"
                      " & sys.modules.keys()))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_leaves_dataclasses_and_inspect_out():
    # a fresh process: this one has both loaded already
    done = run_python("import sys, unitdist, unitdist.cli\n"
                      "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_module_imports_dataclasses_or_typing():
    # typing is checked in the source alone, as some installs load it when
    # the interpreter starts
    assert {name: found for name, tree in MODULES.items()
            if (found := _absolute_imports(tree) & {"dataclasses", "typing"})} == {}


_SQUARE = Drawing(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
                  ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
_REPORT = verify(_SQUARE)

# each record class with its fields, in declared order, and sample values
RECORDS = [
    (Graph, {"n_vertices": 3, "edges": ((0, 1), (1, 2))}),
    (Bipartition, {"class_a": frozenset({0, 2}), "class_b": frozenset({1})}),
    (RhombusParams, {"h": 1.1, "k": 1.6, "p": 0.0, "q": 0.4}),
    (Drawing, {"graph": _SQUARE.graph, "positions": _SQUARE.positions}),
    (Degeneracy, {"kind": "coincident-vertices", "witness": (0, 1)}),
    (FaithfulnessReport, {name: getattr(_REPORT, name) for name in REPORT_FIELDS}),
    (IncidenceStructure, {"points": ((0.0, 0.0),), "centers": ((1.0, 0.0),),
                          "incidence": ((0, 1),), "point_labels": (0,),
                          "circle_labels": (1,)}),
    (ConfigurationCheck, {"signature": (1, 1, 1, 1), "violations": ()}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_records_are_frozen_values(cls, fields):
    positional, keyword = cls(*fields.values()), cls(**fields)
    assert positional == keyword and hash(positional) == hash(keyword)
    assert [getattr(keyword, name) for name in fields] == list(fields.values())
    for name in [*fields, "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(keyword, name, None)
    if cls is Graph:
        g = keyword
        assert g.adjacency is g.adjacency and g.edge_set is g.edge_set
    if cls is RhombusParams:
        # the 16 combinations of two values per coordinate, shuffled
        keys = [(h, k, p, q) for h in (0.0, 1.0) for k in (-1.0, 2.0)
                for p in (0.5, 0.25) for q in (3.0, -3.0)]
        random.Random(0).shuffle(keys)
        assert [r.as_tuple() for r in sorted(RhombusParams(*t) for t in keys)] \
            == sorted(keys)


def test_float_driver_runs_with_numpy_blocked():
    # a fresh process that cannot import numpy: newton_solve finds the root
    # this process finds, bit for bit, and raises on a singular start
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from unitdist import RhombusParams, SingularJacobian, newton_solve\n"
        "root = newton_solve(RhombusParams(1.1, 1.6, 0.0, 0.4))\n"
        "print(*(t.hex() for t in root.as_tuple()))\n"
        "try:\n"
        "    newton_solve(RhombusParams(-2.0, -2.0, 2.9, -2.9))\n"
        "except SingularJacobian:\n"
        "    print('singular')\n"
    )
    done = run_python(probe)
    assert done.returncode == 0, done.stderr
    root = unitdist.newton_solve(unitdist.RhombusParams(1.1, 1.6, 0.0, 0.4))
    want = [t.hex() for t in root.as_tuple()] + ["singular"]
    assert done.stdout.split() == want


def test_default_solve_leaves_the_environment(tmp_path):
    # a fresh process: solve without --seeds runs no sweep, so it loads no
    # numpy and sets no OpenBLAS thread count
    probe = (
        "import os, sys\n"
        "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
        "from unitdist.cli import main\n"
        "code = main(['solve', '--rng-seed', '7', '--out-dir', sys.argv[1]])\n"
        "print(code, 'OPENBLAS_NUM_THREADS' in os.environ,"
        " 'numpy' in sys.modules)\n"
    )
    done = run_python(probe, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False False"


def _absolute_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the modules that tree imports by absolute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_verifier_imports_no_numpy():
    # the package declares no runtime dependency: every module imports only
    # the standard library and the package
    imported = {name: _absolute_imports(tree) for name, tree in MODULES.items()}
    outside = {name: found - sys.stdlib_module_names - {"unitdist"}
               for name, found in imported.items()}
    assert {name: found for name, found in outside.items() if found} == {}
    assert "math" in imported["verifier"]


def test_import_graph_is_acyclic():
    graph = {name: _imported_modules(tree) for name, tree in MODULES.items()}
    assert "layout" in graph["solver"] and "graph" in graph["layout"]
    remaining = dict(graph)
    while remaining:
        leaves = [m for m, deps in remaining.items()
                  if not deps & remaining.keys()]
        assert leaves, f"import cycle among {sorted(remaining)}"
        for m in leaves:
            del remaining[m]


def _namedtuple_defaults(call: ast.Call, module: str) -> set[str]:
    """The fields that a namedtuple(typename, field_names, defaults=...)
    call gives a default: the last ones, or all if the count is not
    literal."""
    defaults = [kw.value for kw in call.keywords if kw.arg == "defaults"]
    if not defaults:
        return set()
    name, fields = map(ast.literal_eval, call.args[:2])
    fields = fields.replace(",", " ").split() if isinstance(fields, str) \
        else list(fields)
    count = (len(defaults[0].elts)
             if isinstance(defaults[0], (ast.Tuple, ast.List)) else len(fields))
    return {f"{module}.{name}.{field}"
            for field in fields[len(fields) - count:]}


def _settable_values(tree: ast.Module, module: str) -> set[str]:
    """Defaulted parameters of public functions and defaulted record
    fields: annotated class fields with a value, as a dataclass gives them,
    and namedtuple defaults."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found.update(f"{module}.{node.name}({a.arg})" for a in defaulted)
        elif isinstance(node, ast.ClassDef):
            found.update(f"{module}.{node.name}.{field.target.id}"
                         for field in node.body
                         if isinstance(field, ast.AnnAssign) and field.value)
        elif (isinstance(node, ast.Call) and "namedtuple" in
              (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
            found |= _namedtuple_defaults(node, module)
    return found


def test_settable_scan_sees_namedtuple_defaults():
    tree = ast.parse(
        "class R(namedtuple('R', 'a b c', defaults=(0.0,))):\n"
        "    x: int = 1\n"
        "S = collections.namedtuple('S', ['u', 'v'], defaults=DEFAULTS)\n"
        "T = namedtuple('T', 'w, z')\n")
    assert _settable_values(tree, "m") == {"m.R.c", "m.R.x", "m.S.u", "m.S.v"}


def test_settable_values_are_the_ones_the_command_line_sets():
    # a setting no caller outside the tests sets is a constant instead
    settable = set().union(*(_settable_values(tree, name)
                             for name, tree in MODULES.items()))
    assert settable == {
        "cli.main(argv)",
        "configuration.build_point_circle(centers_class)",
        "layout.circular_layout(rotation_sign)",
        "solver.enumerate_solutions(seed_count)",
        "solver.enumerate_solutions(rng_seed)",
    }


def _callees(tree: ast.AST) -> set[str]:
    """Names called in tree, as f(...) or as obj.f(...)."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_every_exported_function_has_a_caller():
    # a public function comes with its caller in the package or in a
    # benchmark workload; until it has one it stays out of __all__, as a
    # setting no caller sets stays a constant
    assert [name for name, count in Counter(unitdist.__all__).items()
            if count > 1] == []
    exported = {name: getattr(unitdist, name) for name in unitdist.__all__}
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "perfbench").glob("*.py"))
             if not path.name.startswith("test_")]
    called = set().union(*map(_callees, [*MODULES.values(), *bench]))
    assert sorted(name for name, obj in exported.items()
                  if inspect.isfunction(obj) and name not in called) == []
