"""Property tests: artifact JSON round trips, and mutated artifacts at the CLI.

Examples are derandomized, so every run checks the same 100 cases per test.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from unitdist._jsonfmt import dumps
from unitdist.cli import main
from unitdist.configuration import Circle, IncidenceStructure
from unitdist.graph import Graph
from unitdist.layout import Drawing
from unitdist.solver import (RhombusParams, solution_from_json_dict,
                             solution_to_json_dict)
from unitdist.verifier import verify

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None,
                    database=None)

# the command line that reads each artifact, minus the file and --out-dir
READERS = {
    "solutions.json": ["layout", "--solutions"],
    "drawing.json": ["verify"],
    "circular.json": ["verify"],
    "config_centers_a.json": ["render", "--configuration"],
    "config_centers_b.json": ["render", "--configuration"],
}
CONSTANTS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "huge": 10 ** 400}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["all", "--seeds", "600", "--rng-seed", "1",
                     "--out-dir", str(out)]) == 0
    return {name: json.loads((out / name).read_text()) for name in READERS}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def _paths(node, path=()):
    """The path to every value below node, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _parent(node, path):
    for key in path[:-1]:
        node = node[key]
    return node


def _value(node, path):
    return _parent(node, path)[path[-1]]


@PROPERTY
@given(data=st.data())
def test_mutated_artifact_is_usage_error(artifacts, workdir, data):
    name = data.draw(st.sampled_from(sorted(READERS)))
    artifact = copy.deepcopy(artifacts[name])
    paths = list(_paths(artifact))
    numbers = [p for p in paths if type(_value(artifact, p)) in (int, float)]
    ints = [p for p in numbers if type(_value(artifact, p)) is int]
    keys = [p for p in paths if isinstance(p[-1], str)]
    targets = {kind: numbers for kind in [*CONSTANTS, "string", "bool"]}
    targets.update({"float id": ints, "drop": keys})
    kind = data.draw(st.sampled_from([k for k, v in targets.items() if v]))
    path = data.draw(st.sampled_from(targets[kind]))
    parent, key = _parent(artifact, path), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "string":
        parent[key] = str(parent[key])
    elif kind == "float id":
        parent[key] = float(parent[key])
    elif kind == "bool":
        parent[key] = data.draw(st.booleans())
    else:
        parent[key] = CONSTANTS[kind]

    file = workdir / name
    file.write_text(json.dumps(artifact))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*READERS[name], str(file),
                     "--out-dir", str(workdir / "out")])
    assert code == 1, (kind, path)
    assert "unitdist: error:" in err.getvalue()
    assert not (workdir / "out").exists()


finite = st.floats(allow_nan=False, allow_infinity=False)
points = st.tuples(finite, finite)


@st.composite
def drawings(draw, point=points):
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    positions = draw(st.lists(point, min_size=n, max_size=n))
    return Drawing(Graph(n, tuple(edges)), tuple(positions))


@st.composite
def structures(draw):
    v, b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    labels = draw(st.lists(st.integers(0, 10 ** 6), min_size=v + b,
                           max_size=v + b, unique=True))
    row = st.lists(st.booleans(), min_size=b, max_size=b).map(tuple)
    return IncidenceStructure(
        points=tuple(draw(st.lists(points, min_size=v, max_size=v))),
        circles=tuple(Circle(c, 1.0)
                      for c in draw(st.lists(points, min_size=b, max_size=b))),
        incidence=tuple(draw(st.lists(row, min_size=v, max_size=v))),
        point_labels=tuple(labels[:v]),
        circle_labels=tuple(labels[v:]),
    )


@PROPERTY
@given(drawing=drawings())
def test_drawing_json_round_trip(drawing):
    data = drawing.to_json_dict()
    assert Drawing.from_json_dict(data) == drawing
    assert Drawing.from_json_dict(json.loads(dumps(data))) == drawing


@PROPERTY
@given(structure=structures())
def test_incidence_structure_json_round_trip(structure):
    data = structure.to_json_dict()
    assert IncidenceStructure.from_json_dict(data) == structure
    assert IncidenceStructure.from_json_dict(json.loads(dumps(data))) == structure


small = st.floats(-3.0, 3.0)


@PROPERTY
@given(params=st.builds(RhombusParams, small, small, small, small))
def test_solution_json_round_trip(params):
    text = dumps(solution_to_json_dict(params))
    assert solution_from_json_dict(json.loads(text)) == params


def _json_value(value):
    """value as json.loads returns it: tuples become lists, ±inf null."""
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


@PROPERTY
@given(drawing=drawings(st.tuples(small, small)))
@example(drawing=Drawing(Graph(0, ()), ()))  # no pairs: both minima are inf
def test_report_json_round_trip(drawing):
    report = verify(drawing)
    fields = dataclasses.asdict(report)
    assert json.loads(dumps(report.to_json_dict())) == _json_value(fields)
