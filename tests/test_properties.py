"""Property tests: artifact JSON round trips, mutated artifacts at the CLI,
and configuration axioms against an incidence-matrix oracle.

Examples are derandomized, so every run checks the same 100 cases per test.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from unitdist._jsonfmt import dumps
from unitdist.cli import main
from unitdist.configuration import (ConfigurationCheck, IncidenceStructure,
                                    dual, validate_configuration)
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
    pairs = [(pl, cl) for pl in labels[:v] for cl in labels[v:]]
    return IncidenceStructure(
        points=tuple(draw(st.lists(points, min_size=v, max_size=v))),
        centers=tuple(draw(st.lists(points, min_size=b, max_size=b))),
        incidence=tuple(draw(st.sets(st.sampled_from(pairs))) if pairs else ()),
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


def _matrix_validate(s: IncidenceStructure) -> ConfigurationCheck:
    """The configuration axioms checked over the incidence matrix that the
    pairs describe: the oracle for validate_configuration."""
    pairs = set(s.incidence)
    incidence = [[(pl, cl) in pairs for cl in s.circle_labels]
                 for pl in s.point_labels]
    v, b = len(s.points), len(s.centers)
    point_deg = [sum(row) for row in incidence]
    circle_deg = [sum(incidence[i][j] for i in range(v)) for j in range(b)]
    r = point_deg[0] if point_deg else 0
    c = circle_deg[0] if circle_deg else 0

    violations: list[str] = []
    for i, deg in enumerate(point_deg):
        if deg != r:
            violations.append(f"point {i} lies on {deg} circles, expected {r}")
    for j, deg in enumerate(circle_deg):
        if deg != c:
            violations.append(f"circle {j} passes through {deg} points, expected {c}")
    for i, j in combinations(range(v), 2):
        shared = sum(1 for t in range(b) if incidence[i][t] and incidence[j][t])
        if shared > 1:
            violations.append(f"points {i} and {j} share {shared} circles")
    for i, j in combinations(range(b), 2):
        shared = sum(1 for t in range(v) if incidence[t][i] and incidence[t][j])
        if shared > 1:
            violations.append(f"circles {i} and {j} share {shared} points")

    if violations:
        return ConfigurationCheck(None, tuple(violations))
    return ConfigurationCheck((v, b, r, c), ())


@PROPERTY
@given(structure=structures())
# a square with a pendant edge: every kind of violation, in either role
@example(structure=IncidenceStructure(
    ((1.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)),
    ((1, 0), (1, 2), (1, 4), (3, 0), (3, 2)), (1, 3), (0, 2, 4)))
def test_validate_configuration_matches_matrix_oracle(structure):
    check = validate_configuration(structure)
    assert check == _matrix_validate(structure)
    assert dual(dual(structure)) == structure
    dual_signature = validate_configuration(dual(structure)).signature
    if check.signature is None:
        assert dual_signature is None
    else:
        v, b, r, c = check.signature
        assert dual_signature == (b, v, c, r)


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
