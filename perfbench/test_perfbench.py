"""The benchmark's own checks, run at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import contextlib
import io
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from unitdist import cli, solver  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY_SEEDS = "500"


def _all(out: Path, seeds: str = TINY_SEEDS) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["all", "--seeds", seeds, "--out-dir", str(out)])


@pytest.fixture(scope="module")
def traced_all(tmp_path_factory):
    """A traced `unitdist all` with 500 seeds: (tracer, exit code)."""
    tracer = spans.Tracer()
    with tracer.patched():
        code = _all(tmp_path_factory.mktemp("traced") / "out")
    return tracer, code


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))


def test_end_to_end_metrics_are_the_declared_ones(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "NEWTON_BLOCK", 5)
    ctx = workloads.Context(0, tmp_path, run.child_env())
    metrics, measured = run.run_untraced("newton_single", ctx, 0.0, {})
    assert set(metrics) == END_TO_END
    assert all(v > 0 for v in metrics.values())
    assert (measured.attempted, measured.failed) == (15, 0)


def test_per_layer_metrics_are_the_declared_ones(traced_all):
    tracer, _ = traced_all
    produced = set(spans.layer_metrics(tracer.spans))
    other = spans.Tracer()
    with other.patched():
        workloads.newton_block(np.random.default_rng(0).uniform(-3, 3, (5, 4)))
        for n, s in ((8, 3), (10, 3)):
            workloads.one_graph(n, s)
    produced |= set(spans.layer_metrics(other.spans))
    produced |= set(run.import_times(run.child_env())) | {"trace.overhead_s"}
    family = {f"graph.automorphism_s.gp{n}_{s}" for n, s in workloads.FAMILY}
    assert produced <= PER_LAYER
    assert PER_LAYER == produced | family


def test_all_default_span_tree(traced_all):
    tracer, code = traced_all
    assert code == 0
    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    verifies = [s for s in tracer.spans if s.name == "verifier.verify"]
    nested = [s for s in verifies
              if by_id[s.parent].name == "configuration.build_point_circle"]
    assert len(nested) == 2
    checks = [s for s in tracer.spans if s.name == "layout.rhombus_layout"
              and by_id[s.parent].name == "solver.enumerate_solutions"]
    assert checks


def test_verify_runs_four_times_three_on_one_drawing(traced_all):
    tracer, _ = traced_all
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["verifier.verify_calls"] == 4
    drawings = Counter(s.attrs["drawing"] for s in tracer.spans
                       if s.name == "verifier.verify")
    assert sorted(drawings.values()) == [1, 3]
    assert metrics["verifier.pairs_checked"] == 4 * (120 + 24 * 16 + 276)


def test_tampered_artifacts_count_as_failures(tmp_path):
    out = tmp_path / "out"
    assert _all(out) == 0
    failures, hashes = workloads.check_cli_output(out, 0, None)
    assert failures == [] and len(hashes) == 11

    svg = out / "drawing.svg"
    svg.write_text(svg.read_text() + " ")
    failures, _ = workloads.check_cli_output(out, 0, hashes)
    assert any("drawing.svg" in f for f in failures)

    path = out / "solutions.json"
    entries = json.loads(path.read_text())
    entries[0]["h"] += 1e-6
    path.write_text(json.dumps(entries))
    assert oracles.check_all_artifacts(out)

    (out / "circular.svg").unlink()
    assert oracles.check_all_artifacts(out)


def test_wrong_oracle_values_count_as_failures(monkeypatch, tmp_path):
    out = tmp_path / "out"
    assert _all(out) == 0
    monkeypatch.setattr(oracles, "MIN_NONEDGE_GAP", oracles.MIN_NONEDGE_GAP + 1e-6)
    assert oracles.check_all_artifacts(out)

    monkeypatch.setitem(oracles.FGW_EXCEPTIONS, (8, 3), 48)
    monkeypatch.setattr(workloads, "FAMILY", ((8, 3), (10, 3)))
    _, failures, failed = workloads.graph_pass()
    assert failed == 1 and "GP(8,3)" in failures[0]


def test_wrong_newton_result_counts_as_failure(monkeypatch):
    monkeypatch.setattr(solver, "newton_solve",
                        lambda seed: solver.RhombusParams(1.0, 1.0, 1.0, 1.0))
    _, failures = workloads.newton_block(np.zeros((3, 4)))
    assert len(failures) == 3


def test_tail_leaves_samples_beyond():
    t = run.tail([float(i) for i in range(80)])
    assert (t["value"], t["percentile"], t["beyond"]) == (69.0, 87.5, 10)
    t = run.tail([float(i) for i in range(15)])
    assert (t["value"], t["percentile"], t["beyond"]) == (11.0, 80.0, 3)
    assert run.tail([3.0, 1.0, 2.0])["value"] == 3.0


def test_speed_scale_follows_the_reference_loop(monkeypatch):
    monkeypatch.setattr(speed, "reference_block", lambda: 0.125)
    meter = speed.Meter()
    for wall in (1.0, 3.0):
        meter.end_pass(wall)
    factor = speed.REF_NOMINAL_S / 0.125
    assert meter.scale() == pytest.approx(factor)
    assert meter.scaled_each([1.0, 3.0]) == pytest.approx([factor, 3 * factor])
    # the reference runs for REF_SHARE of each pass, at least one block
    assert len(meter.samples) == (1.0 + 3.0) * speed.REF_SHARE / 0.125
    meter.end_pass(0.0)
    assert meter.per_pass == [0.125] * 3
