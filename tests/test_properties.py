"""Property tests: dumps against the stdlib's json.dumps, artifact JSON
round trips, mutated artifacts at the CLI, configuration axioms against an
incidence-matrix oracle, Levi drawings against the drawings they came from,
and verify against its scalar pair scans.

Examples are derandomized, so every run checks the same 100 cases per test
(400 for verify against its scalar scans).
"""

import contextlib
import copy
import io
import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import REPORT_FIELDS
from unitdist._jsonfmt import dumps, json_number, json_points
from unitdist.cli import main
from unitdist.configuration import (ConfigurationCheck, IncidenceStructure,
                                    build_point_circle, dual, levi_drawing,
                                    validate_configuration)
from unitdist.graph import Graph, bipartition
from unitdist.layout import Drawing, circular_layout
from unitdist.solver import (RhombusParams, solution_from_json_dict,
                             solution_to_json_dict)
from unitdist.verifier import (COINCIDENT_VERTICES,
                               COLLINEAR_OVERLAPPING_EDGES,
                               DEFAULT_DEGENERACY_TOL, DEFAULT_EDGE_TOL,
                               DEFAULT_GAP_THRESHOLD, VERTEX_ON_EDGE_INTERIOR,
                               Degeneracy, FaithfulnessReport,
                               point_on_segment_interior, segments_overlap,
                               verify)

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


def test_dumps_edge_cases():
    assert dumps({}) == "{}\n"
    assert dumps({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}\n'
    with pytest.raises(TypeError, match="keys must be str, got int"):
        dumps({1: 0.5})
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps({"points": {1.0}})


class _FloatSubclass(float):
    pass


@pytest.mark.parametrize("value", [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.5, 7, -(10 ** 300),
    _FloatSubclass(0.25), _FloatSubclass(-0.0)])
def test_json_points_passes_json_numbers_float(value):
    # the same bits, as a plain float, in either coordinate
    want = json_number(value)
    ((x, _),) = json_points([(value, 0.5)])
    ((_, y),) = json_points([(0.5, value)])
    for got in (x, y):
        assert type(got) is float
        assert got.hex() == want.hex()


@pytest.mark.parametrize("value", [
    math.nan, -math.nan, math.inf, -math.inf, True, False, "1.0", None,
    10 ** 400, _FloatSubclass(math.nan), _FloatSubclass(math.inf)])
def test_json_points_raises_json_numbers_error(value):
    with pytest.raises(Exception) as want:
        json_number(value)
    for point in ((value, 0.5), (0.5, value)):
        with pytest.raises(Exception) as got:
            json_points([point])
        assert got.type is want.type
        assert str(got.value) == str(want.value)


# float-free JSON values: ints of any size, any string, containers nested
# to any depth, empty ones included
json_values = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers() | st.integers(-10 ** 400, 10 ** 400),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=20)


@PROPERTY
@given(value=json_values)
@example(value={"é": [(), {}, [[{}]]], "big": -10 ** 399, "t": (True, None)})
def test_dumps_is_stdlib_json_without_floats(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


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


@pytest.mark.parametrize("centers_class", ["a", "b"])
@pytest.mark.parametrize("sign", [None, 1, -1],
                         ids=["rhombus", "gp10_3_plus", "gp10_3_minus"])
def test_levi_drawing_of_a_built_structure_is_its_drawing(faithful_drawing,
                                                          sign, centers_class):
    # the tests' faithful, bipartite drawings: the rhombus drawing of
    # GP(8,3) and both circular drawings of GP(10,3)
    d = faithful_drawing if sign is None else circular_layout(10, 3, sign)
    s = build_point_circle(d, bipartition(d.graph), centers_class)
    assert levi_drawing(s) == d
    assert levi_drawing(dual(s)) == levi_drawing(s)


@PROPERTY
@given(structure=structures())
def test_levi_drawing_draws_labels_in_order(structure):
    d = levi_drawing(structure)
    labels = sorted(structure.point_labels + structure.circle_labels)
    assert d.graph.n_vertices == len(labels)
    assert d.graph.edges == tuple(sorted(
        tuple(sorted((labels.index(pl), labels.index(cl))))
        for pl, cl in structure.incidence))
    for i, label in enumerate(labels):
        if label in structure.point_labels:
            xy = structure.points[structure.point_labels.index(label)]
        else:
            xy = structure.centers[structure.circle_labels.index(label)]
        assert d.positions[i] == xy
    assert levi_drawing(dual(structure)) == d


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
    fields = {name: getattr(report, name) for name in REPORT_FIELDS}
    fields["degeneracies"] = [{"kind": d.kind, "witness": d.witness}
                              for d in report.degeneracies]
    assert json.loads(dumps(report.to_json_dict())) == _json_value(fields)


def _scalar_verify(d: Drawing) -> FaithfulnessReport:
    """verify as plain loops over every pair, vertex/edge and edge pair,
    with no screen: the oracle for verify."""
    pos = d.positions
    n = d.graph.n_vertices
    edge_set = d.graph.edge_set

    max_edge_residual = 0.0
    edge_witness = None
    min_gap = math.inf
    gap_witness = None
    min_sep = math.inf
    sep_witness = None
    degeneracies = []

    for i, j in combinations(range(n), 2):
        dist = math.dist(pos[i], pos[j])
        if dist < min_sep:
            min_sep, sep_witness = dist, (i, j)
        if (i, j) in edge_set:
            res = abs(dist - 1.0)
            if res > max_edge_residual or edge_witness is None:
                max_edge_residual, edge_witness = res, (i, j)
        else:
            gap = abs(dist - 1.0)
            if gap < min_gap:
                min_gap, gap_witness = gap, (i, j)
        if dist < DEFAULT_DEGENERACY_TOL:
            degeneracies.append(Degeneracy(COINCIDENT_VERTICES, (i, j)))

    solid_edges = [e for e in d.graph.edges
                   if math.dist(pos[e[0]], pos[e[1]]) > DEFAULT_DEGENERACY_TOL]
    for a, b in solid_edges:
        for v in range(n):
            if v == a or v == b:
                continue
            if point_on_segment_interior(pos[v], pos[a], pos[b]):
                degeneracies.append(Degeneracy(VERTEX_ON_EDGE_INTERIOR, (v, a, b)))
    for e1, e2 in combinations(solid_edges, 2):
        if segments_overlap(pos[e1[0]], pos[e1[1]], pos[e2[0]], pos[e2[1]]):
            degeneracies.append(
                Degeneracy(COLLINEAR_OVERLAPPING_EDGES, e1 + e2))

    n_edges = len(d.graph.edges)
    is_unit = max_edge_residual <= DEFAULT_EDGE_TOL
    faithful = is_unit and min_gap >= DEFAULT_GAP_THRESHOLD and not degeneracies
    return FaithfulnessReport(
        is_unit_distance=is_unit,
        is_faithful=faithful,
        max_edge_residual=max_edge_residual,
        max_edge_residual_witness=edge_witness,
        min_nonedge_gap=min_gap,
        min_nonedge_gap_witness=gap_witness,
        min_vertex_separation=min_sep,
        min_vertex_separation_witness=sep_witness,
        degeneracies=tuple(degeneracies),
        edge_tol=DEFAULT_EDGE_TOL,
        gap_threshold=DEFAULT_GAP_THRESHOLD,
        n_edges=n_edges,
        n_nonadjacent_pairs=n * (n - 1) // 2 - n_edges,
    )


# half-integer points: coincident vertices, vertices on edges, collinear
# overlapping edges and exact unit distances are all common
grid = st.tuples(*[st.integers(-2, 2).map(lambda k: k / 2)] * 2)
PUSHES = tuple(k * DEFAULT_DEGENERACY_TOL for k in (0.5, 1, 1.5, 2, 3))


@st.composite
def pushed(draw):
    """A grid drawing with one to three vertices each moved a few
    DEFAULT_DEGENERACY_TOL off another edge's interior, or along that edge
    past one of its endpoints."""
    drawing = draw(drawings(grid))
    positions = list(drawing.positions)
    for _ in range(draw(st.integers(1, 3)) if drawing.graph.edges else 0):
        a, b = draw(st.sampled_from(drawing.graph.edges))
        (ax, ay), (bx, by) = positions[a], positions[b]
        length = math.hypot(bx - ax, by - ay)
        others = [v for v in range(len(positions)) if v not in (a, b)]
        if length == 0.0 or not others:
            continue
        ux, uy = (bx - ax) / length, (by - ay) / length
        push = draw(st.sampled_from(PUSHES)) * draw(st.sampled_from((-1, 1)))
        if draw(st.booleans()):
            s = draw(st.sampled_from((0.25, 0.5, 0.75)))
            moved = (ax + s * (bx - ax) - push * uy,
                     ay + s * (by - ay) + push * ux)
        else:
            ex, ey = positions[draw(st.sampled_from((a, b)))]
            moved = (ex + push * ux, ey + push * uy)
        positions[draw(st.sampled_from(others))] = moved
    return Drawing(drawing.graph, tuple(positions))


@st.composite
def translated(draw):
    """A pushed() drawing moved by about 2**10 to 2**34, where the slack of
    verify's sweeps is mostly its term in the largest coordinate."""
    drawing = draw(pushed())
    shift = 2.0 ** draw(st.integers(10, 34))
    sx = draw(st.sampled_from((-1, 0, 1))) * shift
    sy = draw(st.sampled_from((-1, 1))) * shift
    return Drawing(drawing.graph,
                   tuple((x + sx, y + sy) for x, y in drawing.positions))


@settings(PROPERTY, max_examples=400)
# points at +-1.7e308: the differences overflow to inf
@example(drawing=Drawing(Graph(3, ((0, 1), (1, 2))),
                         ((1.7e308, 0.0), (-1.7e308, 0.0), (0.0, 0.0))))
# |01| and |23| are equal under math.dist, but np.hypot screens |01| an ulp
# away from |23|, on the far side: (0, 1) is the first witness of the least
# separation (|45| = 1 is the least gap), then of the least gap (|45| = 0.2
# is the least separation)
@example(drawing=Drawing(Graph(6, ()), (
    (0.0, 0.0), (0.2517, 0.1632), (0.0, 10.0), (0.2999785492331076, 10.0),
    (20.0, 0.0), (21.0, 0.0))))
@example(drawing=Drawing(Graph(6, ()), (
    (0.0, 0.0), (0.512, 0.477), (0.0, 10.0), (0.699766389590126, 10.0),
    (20.0, 0.0), (20.2, 0.0))))
# every non-edge more than 2 apart: the least gap lies outside the sweep's
# window, so verify scans every pair
@example(drawing=Drawing(Graph(4, ((0, 1), (2, 3))), (
    (0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (11.0, 0.0))))
# two adjacent edges that fold back over each other: they overlap through
# their shared endpoint, which passes the inline near-line tests
@example(drawing=Drawing(Graph(3, ((0, 1), (1, 2))),
                         ((0.0, 0.0), (1.0, 0.0), (0.5, 0.0))))
# two adjacent edges that continue in a straight line: collinear, no overlap
@example(drawing=Drawing(Graph(3, ((0, 1), (1, 2))),
                         ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))))
# overlapping vertical edges given in opposite orientations, exactly
# vertical, then leaning either way of vertical
@example(drawing=Drawing(Graph(4, ((0, 1), (2, 3))), (
    (0.0, 0.0), (0.0, 1.0), (0.0, 1.5), (0.0, 0.5))))
@example(drawing=Drawing(Graph(4, ((0, 1), (2, 3))), (
    (0.0, 0.0), (1e-12, 1.0), (0.0, 1.5), (1e-12, 0.5))))
# a 3e-9-long edge along a collinear edge, inside it
@example(drawing=Drawing(Graph(4, ((0, 1), (2, 3))), (
    (0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5 + 3e-9, 0.0))))
# a vertex 0.5 tol off a near-vertical edge's interior
@example(drawing=Drawing(Graph(3, ((0, 1),)), (
    (0.0, 0.0), (1e-12, 1.0), (0.5e-9, 0.5))))
@given(drawing=st.one_of(drawings(grid), pushed(), translated(), drawings()))
def test_verify_matches_scalar_scans(drawing):
    assert verify(drawing) == _scalar_verify(drawing)


def _bundle(rng, lines, edges):
    """edges segments 0.5 to 3 long on lines parallel lines 0.7 apart, their
    ends up to 3 tol off, some lines turned 1e-9 and a few 2e-8-long edges
    on the way, in a random direction (or near vertical), shifted by up to
    2**14, where an ulp is still well under tol: so many near-parallel
    edges overlap, or end near, the edges on their line."""
    tol = DEFAULT_DEGENERACY_TOL
    theta = rng.choice((rng.uniform(0.0, math.pi), math.pi / 2 + 1e-12))
    positions, pairs = [], []
    for _ in range(edges):
        line = rng.randrange(lines)
        turn = theta + rng.choice((0.0, 1e-9)) * line
        ux, uy = math.cos(turn), math.sin(turn)
        start = rng.uniform(-3.0, 3.0)
        ends = [start, start + rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)]
        for t in ends:
            off = 0.7 * line + rng.uniform(-3.0, 3.0) * tol * rng.choice((0, 1))
            positions.append((t * ux - off * uy, t * uy + off * ux))
        pairs.append((len(positions) - 2, len(positions) - 1))
        if rng.random() < 0.05:
            x, y = positions[-1]
            positions.append((x + 2e-8, y + 1e-8))
            pairs.append((len(positions) - 2, len(positions) - 1))
    shift = rng.choice((0.0, 2.0 ** rng.randint(4, 14)))
    return Drawing(Graph(len(positions), tuple(pairs)),
                   tuple((x + shift, y - shift) for x, y in positions))


@pytest.mark.parametrize("seed", range(12))
def test_verify_matches_scalar_scans_on_parallel_bundles(seed):
    # many near-parallel edges, with overlapping edges and vertices on
    # edges among them
    drawing = _bundle(random.Random(seed), 1 + seed % 3, 20 + seed)
    assert verify(drawing) == _scalar_verify(drawing)


@pytest.mark.parametrize("turn, shift", [
    (0.0, 0.0), (0.3, 0.0), (math.pi / 2 + 1e-12, 0.0),
    # so far out that slack is 0.25 to 2 of a unit edge (at 2**45 each box
    # keeps its edge's neighbours as near vertices), with lower edge
    # indices to the left, and (turned by pi) to the right
    (0.0, 2.0 ** 42), (0.0, 2.0 ** 43), (math.pi, 2.0 ** 43), (math.pi, -(2.0 ** 45))])
def test_verify_matches_scalar_scans_on_a_grid(turn, shift):
    # a 12 x 12 unit grid: rows of collinear edges that touch end to end,
    # edges over two grid edges, two of them overlapping by one, a vertex
    # on an edge's interior and a 2e-8-long edge, all turned and moved
    k = 12
    edges = [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
    edges += [(i * k + j, i * k + j + k) for i in range(k - 1) for j in range(k)]
    edges += [(0, 2), (0, 2 * k), (k, 3 * k), (k * k, k * k + 1)]
    points = [(float(i), float(j)) for i in range(k) for j in range(k)]
    points += [(5.0, 5.5), (5.0 + 2e-8, 5.5 + 1e-8)]
    c, s = math.cos(turn), math.sin(turn)
    drawing = Drawing(Graph(len(points), tuple(sorted(edges))),
                      tuple((x * c - y * s + shift, x * s + y * c - shift)
                            for x, y in points))
    report = verify(drawing)
    assert report == _scalar_verify(drawing)
    assert {d.kind for d in report.degeneracies} >= {
        COLLINEAR_OVERLAPPING_EDGES, VERTEX_ON_EDGE_INTERIOR}


@pytest.mark.parametrize("turn", [0.0, 1.0, math.pi / 2 - 1e-8, math.pi / 2 + 1e-12])
def test_verify_matches_scalar_scans_on_a_fan(turn):
    # 22 unit edges whose directions fan out 1e-9 apart, rows 3 apart: a
    # pair crossing at their midpoints 1.8e-9 apart, and a collinear pair in
    # opposite orientations overlapping by 0.1, whose starts lie 1.9 apart
    # along a line turned 2e-8 from the first edge's
    points, edges = [], []

    def edge(row, angle, start, end):
        c, s = math.cos(angle), math.sin(angle)
        x, y = -3.0 * row * math.sin(turn), 3.0 * row * math.cos(turn)
        points.extend([(x + start * c, y + start * s), (x + end * c, y + end * s)])
        edges.append((len(points) - 2, len(points) - 1))

    for row in range(18):
        edge(row, turn + row * 1e-9, 0.0, 1.0)
    edge(18, turn + 1.8e-8, -0.5, 0.5)
    edge(18, turn + 1.98e-8, -0.5, 0.5)
    edge(19, turn + 2e-8, 0.0, 1.0)
    edge(19, turn + 2e-8, 1.9, 0.9)
    drawing = Drawing(Graph(len(points), tuple(edges)), tuple(points))
    report = verify(drawing)
    assert report == _scalar_verify(drawing)
    assert [d.witness for d in report.degeneracies
            if d.kind == COLLINEAR_OVERLAPPING_EDGES] == [
                (36, 37, 38, 39), (40, 41, 42, 43)]


@pytest.mark.parametrize("turn, shift", [
    (0.0, 0.0), (0.7, 0.0), (math.pi / 2 + 1e-12, 2.0 ** 20)])
def test_verify_matches_scalar_scans_on_a_hub(turn, shift):
    # a hub vertex of degree 36 inside 18 long edges through it, each along
    # two opposite spokes, or 0.5, 1 or 3 tol off them: every edge pairs
    # with all 36 spokes at each near hub, the O(findings x degree) side
    # of verify's pairing
    tol = DEFAULT_DEGENERACY_TOL
    points, edges = [(shift, -shift)], []
    for m in range(36):
        angle = turn + m * math.pi / 18
        c, s = math.cos(angle), math.sin(angle)
        spoke = 0.5 + 0.1 * (m % 12)
        points.append((shift + spoke * c, -shift + spoke * s))
        edges.append((0, len(points) - 1))
        if m % 2 == 0:
            off = (0.0, 0.5, 1.0, 3.0)[m // 2 % 4] * tol
            points += [(shift + t * c - off * s, -shift + t * s + off * c)
                       for t in (-2.0, 2.0)]
            edges.append((len(points) - 2, len(points) - 1))
    drawing = Drawing(Graph(len(points), tuple(edges)), tuple(points))
    report = verify(drawing)
    assert report == _scalar_verify(drawing)
    kinds = [d.kind for d in report.degeneracies]
    assert kinds.count(VERTEX_ON_EDGE_INTERIOR) >= 9
    assert kinds.count(COLLINEAR_OVERLAPPING_EDGES) >= 20


@pytest.mark.parametrize("n, s, sign", [
    (n, s, sign)
    # every GP(n, s) of perfbench's family with a circular drawing, and more;
    # GP(128, 1)'s coincident rings send many overlapping pairs to the
    # predicates
    for n, s in ((5, 2), (7, 2), (8, 3), (9, 4), (10, 2), (10, 3), (16, 1),
                 (32, 1), (64, 1), (128, 1))
    for sign in (1, -1)])
def test_verify_matches_scalar_scans_on_circular_drawings(n, s, sign):
    # equal distances of a symmetric drawing round apart by an ulp or two
    drawing = circular_layout(n, s, sign)
    assert verify(drawing) == _scalar_verify(drawing)
