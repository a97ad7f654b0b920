"""Command-line interface: artifacts, exit codes, idempotence."""

import json

import pytest

from unitdist.cli import main

ALL_ARTIFACTS = [
    "solutions.json", "drawing.json", "circular.json",
    "drawing_report.json", "circular_report.json",
    "config_centers_a.json", "config_centers_b.json",
    "drawing.svg", "circular.svg",
    "config_centers_a.svg", "config_centers_b.svg",
]


def _run_all(out_dir, extra=()):
    return main(["all", "--seeds", "600", "--rng-seed", "1",
                 "--out-dir", str(out_dir), *extra])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert _run_all(out) == 0
    return out


class TestSolve:
    def test_writes_solutions_and_succeeds(self, tmp_path, capsys):
        code = main(["solve", "--seeds", "500", "--rng-seed", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        entries = json.loads((tmp_path / "solutions.json").read_text())
        assert len(entries) == 2
        assert abs(entries[0]["h"] - 1.133693) < 1e-5
        out = capsys.readouterr().out
        assert "2 non-degenerate solution(s)" in out

    def test_no_roots_found_exits_2(self, tmp_path):
        code = main(["solve", "--seeds", "1", "--rng-seed", "0",
                     "--out-dir", str(tmp_path)])
        assert code == 2


class TestLayout:
    def test_builds_both_drawings(self, pipeline_dir, tmp_path):
        code = main(["layout", "--solutions",
                     str(pipeline_dir / "solutions.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "drawing.json").exists()
        assert (tmp_path / "circular.json").exists()

    def test_missing_solutions_file(self, tmp_path):
        assert main(["layout", "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("text", [
        '{"h": 1.1, "k": 1.6, "p": 0.9, "q": 0.1}',
        '[{"h": 1.1, "p": 0.9, "q": 0.1}]',
        '[{"h": "x", "k": 1.6, "p": 0.9, "q": 0.1}]',
        '[{"h": "nan", "k": 1.6, "p": 0.9, "q": 0.1}]',
    ], ids=["object", "no-k", "h-not-a-number", "h-nan"])
    def test_malformed_solutions_file_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "solutions.json"
        path.write_text(text)
        assert main(["layout", "--solutions", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "not a solutions artifact" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_solutions_list_is_a_verdict(self, tmp_path):
        path = tmp_path / "solutions.json"
        path.write_text("[]")
        assert main(["layout", "--solutions", str(path),
                     "--out-dir", str(tmp_path)]) == 2


class TestVerify:
    def test_faithful_drawing_passes(self, pipeline_dir, tmp_path, capsys):
        code = main(["verify", str(pipeline_dir / "drawing.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "drawing_report.json").read_text())
        assert report["is_faithful"] is True
        table = capsys.readouterr().out
        assert "PASS" in table and "faithful" in table

    def test_circular_drawing_fails(self, pipeline_dir, tmp_path):
        code = main(["verify", str(pipeline_dir / "circular.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        report = json.loads((tmp_path / "circular_report.json").read_text())
        assert report["is_faithful"] is False
        assert report["min_nonedge_gap_witness"] == [0, 10]


class TestConfig:
    def test_derives_configuration(self, pipeline_dir, tmp_path):
        code = main(["config", str(pipeline_dir / "drawing.json"),
                     "--centers-class", "b", "--out-dir", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "config_centers_b.json").read_text())
        assert len(data["points"]) == 8
        assert len(data["incidences"]) == 24

    def test_rejects_non_faithful_drawing(self, pipeline_dir, tmp_path):
        code = main(["config", str(pipeline_dir / "circular.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 2


class TestRender:
    def test_renders_drawing_and_configuration(self, pipeline_dir, tmp_path):
        code = main(["render",
                     "--drawing", str(pipeline_dir / "drawing.json"),
                     "--configuration",
                     str(pipeline_dir / "config_centers_a.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "drawing.svg").exists()
        assert (tmp_path / "config_centers_a.svg").exists()

    def test_no_inputs_is_usage_error(self, tmp_path):
        assert main(["render", "--out-dir", str(tmp_path)]) == 1


class TestAll:
    def test_produces_every_artifact(self, pipeline_dir):
        for name in ALL_ARTIFACTS:
            assert (pipeline_dir / name).exists(), name

    def test_rerun_is_byte_identical(self, pipeline_dir, tmp_path):
        assert _run_all(tmp_path) == 0
        for name in ALL_ARTIFACTS:
            assert (tmp_path / name).read_bytes() == \
                (pipeline_dir / name).read_bytes(), name

    def test_excessive_gap_threshold_fails(self, tmp_path):
        code = _run_all(tmp_path, extra=["--gap-threshold", "0.5"])
        assert code == 2


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["solve", "--bogus"]) == 1

    def test_gap_threshold_must_exceed_edge_tol(self, tmp_path):
        code = main(["all", "--edge-tol", "1e-3", "--gap-threshold", "1e-4",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_no_command(self):
        assert main([]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "0"), ("--seeds", "-3"), ("--rng-seed", "-1"),
        ("--edge-tol", "-1"), ("--tol", "0"), ("--tol", "nan"),
        ("--edge-tol", "nan"), ("--gap-threshold", "nan"),
    ])
    def test_out_of_range_number_is_usage_error(self, tmp_path, capsys,
                                                flag, value):
        code = main(["all", flag, value, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_wrong_artifact_schema(self, pipeline_dir, tmp_path):
        # feeding a solutions file where a drawing is expected
        code = main(["config", str(pipeline_dir / "solutions.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_directory_as_input_is_usage_error(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unitdist: error:" in err and "Traceback" not in err

    def test_out_dir_naming_a_file_is_usage_error(self, pipeline_dir, tmp_path,
                                                   capsys):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        code = main(["layout", "--solutions", str(pipeline_dir / "solutions.json"),
                     "--out-dir", str(a_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert "unitdist: error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, text", [
        ("verify", "[" * 200_000 + "]" * 200_000),
        ("verify", '{"graph": {"n_vertices": 1e400, "edges": []}, '
                   '"positions": []}'),
        ("verify", '{"graph": {"n_vertices": 2, "edges": [[0, 1.5]]}, '
                   '"positions": [[0, 0], [1, 0]]}'),
        ("--configuration", '{"points": [[0, 0]], "centers": [[1, 0]], '
                            '"radius": 1.0, "point_labels": [0.5], '
                            '"circle_labels": [1], "incidences": []}'),
    ], ids=["too-deep", "overflowing-count", "float-vertex-id",
            "float-point-label"])
    def test_adversarial_artifact_is_usage_error(self, tmp_path, capsys,
                                                 command, text):
        path = tmp_path / "artifact.json"
        path.write_text(text)
        args = ([command, str(path)] if command == "verify"
                else ["render", command, str(path)])
        code = main([*args, "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unitdist: error:" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


def _strings(data):
    data["positions"] = [[repr(x), repr(y)] for x, y in data["positions"]]


def _bool_coordinate(data):
    data["positions"][0][0] = bool(data["positions"][0][0])  # vertex 0: x = 0


def _bool_vertex_id(data):
    data["graph"]["edges"][0][0] = bool(data["graph"]["edges"][0][0])


def _huge_integer_coordinate(data):
    data["positions"][0][0] = 10 ** 400


def _string_parameters(data):
    for entry in data:
        for key in "hkpq":
            entry[key] = repr(entry[key])


def _string_radius(data):
    data["radius"] = "1.0"


def _bool_radius(data):
    data["radius"] = True


def _bool_point_label(data):
    data["point_labels"][1] = True
    data["incidences"] = [[True if a == 1 else a, b]
                          for a, b in data["incidences"]]


def _string_point(data):
    data["points"][0] = [repr(v) for v in data["points"][0]]


class TestStringsAndBooleansAreNotNumbers:
    """Apart from the huge integer, each edited artifact holds the valid
    one's values, so float() and operator.index() would read it as valid."""

    @pytest.mark.parametrize("artifact, command, edit", [
        ("drawing.json", "verify", _strings),
        ("drawing.json", "verify", _bool_coordinate),
        ("drawing.json", "verify", _bool_vertex_id),
        ("drawing.json", "verify", _huge_integer_coordinate),
        ("solutions.json", "layout", _string_parameters),
        ("config_centers_a.json", "render", _string_radius),
        ("config_centers_a.json", "render", _bool_radius),
        ("config_centers_a.json", "render", _bool_point_label),
        ("config_centers_a.json", "render", _string_point),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_usage_error(self, pipeline_dir, tmp_path, capsys,
                         artifact, command, edit):
        data = json.loads((pipeline_dir / artifact).read_text())
        edit(data)
        path = tmp_path / artifact
        path.write_text(json.dumps(data))
        args = {"verify": ["verify", str(path)],
                "layout": ["layout", "--solutions", str(path)],
                "render": ["render", "--configuration", str(path)]}[command]
        code = main([*args, "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unitdist: error:" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()
