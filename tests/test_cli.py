"""Command-line interface: artifacts, exit codes, idempotence."""

import hashlib
import json

import pytest

from conftest import run_python
from unitdist import cli, verifier
from unitdist._jsonfmt import dumps
from unitdist.cli import main
from unitdist.configuration import ConfigurationCheck
from unitdist.layout import RhombusParams
from unitdist.solver import _max_norm, _residuals

ALL_ARTIFACTS = [
    "solutions.json", "drawing.json", "circular.json",
    "drawing_report.json", "circular_report.json",
    "config_centers_a.json", "config_centers_b.json",
    "drawing.svg", "circular.svg",
    "config_centers_a.svg", "config_centers_b.svg",
]

# sha256 of the artifacts of a default `unitdist all` that no trig function
# reaches; circular.* take libm's cos, sin and acos, so they are compared
# run against run only
PINNED_SHA256 = {
    "solutions.json": "e85742e5251bb87373d31f58a9f2a699fc7913d846a132a50fd481a159dc5903",
    "drawing.json": "b4a3c77050726c9dac07cacd58c1449813f9c9f16cae553dde69a9702a2e0ca4",
    "drawing_report.json": "258ba1bafd861dd879fe20e632d009002b33b4e7533d8c5b4bcd7f220fb9fd1c",
    "config_centers_a.json": "e74980c17100747bff58d6babb719b2e2cb6014fcbd2d6d65a7a90c794fa0e56",
    "config_centers_b.json": "3c740b1ec78489a4c6a1d6e0888890fa2002cda427bc20000d823241933e6817",
    "drawing.svg": "8fc4425833f3c5be782ef98688ec662b6af8a4bd6889643c97e04806ffe4591e",
    "config_centers_a.svg": "c9da1a26d6382229408ff13a2388ef3e06b5050a4b1de714c32f03b9e822c1d6",
    "config_centers_b.svg": "ce6407433414d93cd857c6414034e482e32dcff24f8f85b77d2803816fb29cc5",
}


def _run_all(out_dir):
    return main(["all", "--seeds", "600", "--rng-seed", "1",
                 "--out-dir", str(out_dir)])


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
        code = main(["solve", "--seeds", "1", "--rng-seed", "1",
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
        '[{"h": 1.1, "k": 1.6, "p": 0.9, "q": 0.1, "residual_max": -1.0}]',
    ], ids=["object", "no-k", "h-not-a-number", "h-nan", "negative-residual"])
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

    def test_inputs_sharing_a_stem_are_usage_error(self, pipeline_dir,
                                                   tmp_path, capsys):
        # both would write drawing_report.json; the second would win
        (tmp_path / "x").mkdir()
        other = tmp_path / "x" / "drawing.json"
        other.write_text((pipeline_dir / "circular.json").read_text())
        code = main(["verify", str(pipeline_dir / "drawing.json"), str(other),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unitdist: error:" in err and "drawing_report.json" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestConfig:
    def test_derives_configuration(self, pipeline_dir, tmp_path, capsys):
        code = main(["config", str(pipeline_dir / "drawing.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        for cls in "ab":
            assert f"centers {cls}: valid (8_3, 8_3) configuration" in out
            name = f"config_centers_{cls}.json"
            data = json.loads((tmp_path / name).read_text())
            assert len(data["points"]) == 8
            assert len(data["incidences"]) == 24
            # the same configurations as unitdist all's, byte for byte
            assert (tmp_path / name).read_bytes() == \
                (pipeline_dir / name).read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["config_centers_a.json", "config_centers_b.json"]

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
        for name in ("drawing.svg", "config_centers_a.svg"):
            assert (tmp_path / name).read_bytes() == \
                (pipeline_dir / name).read_bytes(), name

    def test_no_inputs_is_usage_error(self, tmp_path):
        assert main(["render", "--out-dir", str(tmp_path)]) == 1

    def test_no_inputs_prints_a_usage_error_line(self, tmp_path, capsys):
        assert main(["render", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "unitdist: error: nothing to render")

    def test_inputs_sharing_a_stem_are_usage_error(self, pipeline_dir,
                                                   tmp_path, capsys):
        # a drawing and a configuration that would both write drawing.svg
        config = tmp_path / "drawing.json"
        config.write_text((pipeline_dir / "config_centers_a.json").read_text())
        code = main(["render", "--drawing", str(pipeline_dir / "drawing.json"),
                     "--configuration", str(config),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unitdist: error:" in err and "drawing.svg" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, name, key", [
        ("drawing", "drawing", "positions"),
        ("configuration", "config_centers_a", "points"),
    ], ids=["drawing", "configuration"])
    def test_overflowing_extent_is_usage_error(self, pipeline_dir, tmp_path,
                                               capsys, kind, name, key):
        # finite coordinates whose pixel extent overflows a float
        data = json.loads((pipeline_dir / f"{name}.json").read_text())
        data[key][0], data[key][1] = [1.7e308, 0.0], [-1.7e308, 0.0]
        path = tmp_path / f"huge_{name}.json"
        path.write_text(json.dumps(data))
        # the valid drawing before it is not written either
        code = main(["render", "--drawing", str(pipeline_dir / "drawing.json"),
                     f"--{kind}", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unitdist: error:" in err and "Traceback" not in err
        assert "overflows a float" in err
        assert not (tmp_path / "o").exists()


class TestAll:
    def test_produces_every_artifact(self, pipeline_dir):
        for name in ALL_ARTIFACTS:
            assert (pipeline_dir / name).exists(), name

    def test_rerun_is_byte_identical(self, pipeline_dir, tmp_path):
        assert _run_all(tmp_path) == 0
        for name in ALL_ARTIFACTS:
            assert (tmp_path / name).read_bytes() == \
                (pipeline_dir / name).read_bytes(), name

    def test_default_artifacts_match_their_pinned_hashes(self, tmp_path):
        assert main(["all", "--out-dir", str(tmp_path)]) == 0
        hashes = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in PINNED_SHA256}
        assert hashes == PINNED_SHA256

    def test_json_artifacts_are_dumps_text(self, pipeline_dir):
        # each JSON file is dumps' text of its own content, byte for byte
        names = [name for name in ALL_ARTIFACTS if name.endswith(".json")]
        assert len(names) == 7
        for name in names:
            text = (pipeline_dir / name).read_text()
            assert dumps(json.loads(text)) == text, name

    def test_residual_max_recomputes_from_its_parameters(self, pipeline_dir):
        # 17 significant digits round-trip a float, so the recorded number
        # is max |f_i| at the written (h, k, p, q), bit for bit
        entries = json.loads((pipeline_dir / "solutions.json").read_text())
        assert len(entries) == 2
        for e in entries:
            f = _residuals(e["h"], e["k"], e["p"], e["q"])
            assert e["residual_max"] == _max_norm(f), e

    def test_each_drawing_is_swept_once(self, tmp_path, monkeypatch):
        # the solver verifies its two roots' drawings and all the circular
        # drawing, then the rhombus one, whose stored report centres a and b
        # reuse: 4 sweeps for 6 verify calls
        sweeps = []
        segment_pairs = verifier._segment_pairs

        def counting_segment_pairs(*args):
            sweeps.append(len(args[0]))
            return segment_pairs(*args)

        monkeypatch.setattr(verifier, "_segment_pairs", counting_segment_pairs)
        assert main(["all", "--out-dir", str(tmp_path)]) == 0
        assert sweeps == [16, 16, 16, 16]

    def test_unfaithful_drawing_stops_before_config(self, tmp_path, capsys,
                                                    monkeypatch):
        # parameters that are not a root: the drawing is not unit-distance
        monkeypatch.setattr(cli, "enumerate_solutions",
                            lambda **kw: [RhombusParams(1.2, 1.6, 0.85, 0.13)])
        assert _run_all(tmp_path) == 2
        err = capsys.readouterr().err
        assert "stage verify failed: rhombus drawing is not faithful" in err
        assert "Traceback" not in err
        assert (tmp_path / "drawing.svg").exists()
        assert (tmp_path / "circular.svg").exists()
        assert not list(tmp_path.glob("config_centers_*"))

    def test_no_roots_stops_after_solve(self, tmp_path, capsys):
        assert main(["all", "--seeds", "1", "--rng-seed", "1",
                     "--out-dir", str(tmp_path)]) == 2
        assert "stage solve failed" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["solutions.json"]

    def test_invalid_configuration_stops_before_its_render(self, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.setattr(cli, "validate_configuration",
                            lambda s: ConfigurationCheck(None, ("forced",)))
        assert _run_all(tmp_path) == 2
        err = capsys.readouterr().err
        assert "configuration axioms violated: forced" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("config_centers_*.svg"))


def test_stages_after_solve_run_without_numpy(pipeline_dir, tmp_path):
    # None in sys.modules makes `import numpy` raise ImportError, so a stage
    # that loaded numpy would fail here
    a = pipeline_dir
    stages = {
        "layout": (["layout", "--solutions", f"{a}/solutions.json"],
                   ["drawing.json", "circular.json"]),
        "verify": (["verify", f"{a}/drawing.json"], ["drawing_report.json"]),
        "config": (["config", f"{a}/drawing.json"],
                   ["config_centers_a.json", "config_centers_b.json"]),
        "render": (["render", "--drawing", f"{a}/drawing.json",
                    "--drawing", f"{a}/circular.json",
                    "--configuration", f"{a}/config_centers_a.json",
                    "--configuration", f"{a}/config_centers_b.json"],
                   ["drawing.svg", "circular.svg", "config_centers_a.svg",
                    "config_centers_b.svg"]),
    }
    argvs = [argv + ["--out-dir", str(tmp_path / name)]
             for name, (argv, _) in stages.items()]
    probe = ("import json, sys\n"
             "sys.modules['numpy'] = None\n"
             "from unitdist.cli import main\n"
             "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    done = run_python(probe, json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, 0, 0, 0]
    for name, (_, written) in stages.items():
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == \
            sorted(written)
        for file in written:
            assert (tmp_path / name / file).read_bytes() == \
                (a / file).read_bytes(), file


def test_default_all_runs_without_numpy_and_ignores_rng_seed(tmp_path):
    # with no --seeds, all writes the certified roots: numpy is blocked, and
    # --rng-seed, which only seeds the starts of --seeds, changes no byte
    outs = [tmp_path / "r0", tmp_path / "r7"]
    probe = ("import json, sys\n"
             "sys.modules['numpy'] = None\n"
             "from unitdist.cli import main\n"
             "print(json.dumps([main(['all', '--rng-seed', seed, '--out-dir', out])"
             " for seed, out in zip('07', sys.argv[1:])]))\n")
    done = run_python(probe, *map(str, outs))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, 0]
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(ALL_ARTIFACTS)
    for name in ALL_ARTIFACTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    entries = json.loads((outs[0] / "solutions.json").read_text())
    assert [e["residual_max"] for e in entries] == [2.0 ** -53] * 2


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["solve", "--bogus"]) == 1

    def test_no_command(self):
        assert main([]) == 1

    @pytest.mark.parametrize("argv", [["--version"], ["solve", "--help"]])
    def test_version_and_help_exit_0(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "0"), ("--seeds", "-3"), ("--rng-seed", "-1"),
    ])
    def test_out_of_range_number_is_usage_error(self, tmp_path, capsys,
                                                flag, value):
        code = main(["all", flag, value, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--tol", "1e-10"], ["all", "--tol", "1e-10"],
        ["layout", "--rotation-sign", "1"], ["all", "--rotation-sign", "1"],
        ["config", "drawing.json", "--centers-class", "b"],
        ["verify", "x.json", "--edge-tol", "1e-6"],
        ["config", "x.json", "--gap-threshold", "0.5"],
        ["all", "--edge-tol", "1e-6"], ["all", "--gap-threshold", "0.5"],
    ])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, argv):
        # the tolerances, rotation branch and centres class are fixed
        code = main([*argv, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and argv[-2] in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_input_that_is_not_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "drawing.json"
        path.write_text("nope{")
        code = main(["verify", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "is not valid JSON" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

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
        ("verify", '{"graph": {"n_vertices": -1, "edges": []}, '
                   '"positions": []}'),
        ("--configuration", '{"points": [[0, 0]], "centers": [[1, 0]], '
                            '"radius": 1.0, "point_labels": [0.5], '
                            '"circle_labels": [1], "incidences": []}'),
    ], ids=["too-deep", "overflowing-count", "float-vertex-id",
            "negative-count", "float-point-label"])
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


def _nan_point(data):
    data["points"][0][0] = float("nan")


def _infinite_center(data):
    data["centers"][0][1] = float("inf")


def _unknown_label(data):
    data["incidences"].append([999, data["circle_labels"][0]])


def _repeated_incidence(data):
    data["incidences"].append(data["incidences"][0])


def _repeated_label(data):
    data["point_labels"][1] = data["point_labels"][0]


def _non_unit_radius(data):
    data["radius"] = 2.0


class TestConfigurationReaderIsStrict:
    """Each edited configuration still parses as JSON with the right keys;
    none of them describes a structure the reader could keep whole."""

    @pytest.mark.parametrize("edit", [
        _nan_point, _infinite_center, _unknown_label, _repeated_incidence,
        _repeated_label, _non_unit_radius,
    ], ids=lambda edit: edit.__name__)
    def test_usage_error(self, pipeline_dir, tmp_path, capsys, edit):
        data = json.loads((pipeline_dir / "config_centers_a.json").read_text())
        edit(data)
        path = tmp_path / "config_centers_a.json"
        path.write_text(json.dumps(data))
        for command in (["render", "--configuration"], ["verify"]):
            code = main([*command, str(path), "--out-dir", str(tmp_path / "o")])
            assert code == 1, command
            err = capsys.readouterr().err
            assert "not a configuration artifact" in err and "Traceback" not in err
            assert not (tmp_path / "o").exists()

    def test_literal_nan_solution_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "solutions.json"
        path.write_text('[{"h": NaN, "k": 1.6, "p": 0.9, "q": 0.1}]')
        assert main(["layout", "--solutions", str(path),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "not a solutions artifact" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConfigVerdicts:
    def test_verify_checks_a_configuration_geometrically(self, pipeline_dir,
                                                       tmp_path):
        path = pipeline_dir / "config_centers_a.json"
        assert main(["verify", str(path), "--out-dir", str(tmp_path)]) == 0
        # the configuration's Levi drawing is the drawing it came from
        assert (tmp_path / "config_centers_a_report.json").read_bytes() == \
            (pipeline_dir / "drawing_report.json").read_bytes()
        data = json.loads(path.read_text())
        # point 0 leaves its three circles but keeps its incidences
        data["points"][0] = [50.0, 50.0]
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(data))
        assert main(["verify", str(moved), "--out-dir", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "moved_report.json").read_text())
        assert report["is_unit_distance"] is False
        # witnesses are label ranks; unitdist config's labels are 0..15
        assert data["point_labels"][0] in report["max_edge_residual_witness"]

    def test_edges_2e_7_too_long_are_not_faithful(self, pipeline_dir, tmp_path):
        data = json.loads((pipeline_dir / "drawing.json").read_text())
        # every distance grows by 2e-7: past the fixed edge tolerance 1e-9
        data["positions"] = [[x * (1 + 2e-7), y * (1 + 2e-7)]
                             for x, y in data["positions"]]
        path = tmp_path / "drawing.json"
        path.write_text(json.dumps(data))
        assert main(["config", str(path), "--out-dir", str(tmp_path / "o")]) == 2

    def test_non_bipartite_drawing_is_a_verdict(self, tmp_path, capsys):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({
            "graph": {"n_vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
            "positions": [[0.0, 0.0], [1.0, 0.0], [0.5, 3 ** 0.5 / 2]]}))
        out = tmp_path / "o"
        assert main(["verify", str(path), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["config", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "odd cycle" in err
        assert "Traceback" not in err

    def test_configuration_axioms_violated_is_a_verdict(self, tmp_path, capsys):
        # a faithful unit path: point 1 lies on two circles, point 3 on one
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "graph": {"n_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
            "positions": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}))
        out = tmp_path / "o"
        assert main(["verify", str(path), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["config", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration axioms violated" in err and "Traceback" not in err
        # neither configuration is written when one of them fails
        assert not list(out.glob("config_centers_*.json"))
