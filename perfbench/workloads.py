"""The three workloads, each measured untraced and runnable under a Tracer.

Every workload calls unitdist only through its public functions, looked up
on the defining module at call time, so ``spans.Tracer.patched()`` can
trace the same code path that the untraced measurement times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import spans
import speed
from unitdist import _jsonfmt, cli, configuration, graph, layout, render, solver, verifier

# the console script `unitdist` is unitdist.cli:main
ENTRY = "import sys; from unitdist.cli import main; sys.exit(main())"
NEWTON_BLOCK = 100          # newton_solve calls in one newton_single pass
NEWTON_BOX = (-3.0, 3.0)    # the solver's default start box, every coordinate
FAMILY = ((5, 2), (8, 3), (10, 2), (10, 3), (12, 5), (16, 7), (18, 5),
          (24, 5), (26, 5), (16, 1), (32, 1), (64, 1))
MIN_PASSES = 3


@dataclass
class Context:
    seed: int
    work: Path                     # scratch directory of this run
    env: dict                      # environment of child processes
    expected_hashes: dict | None = None   # artifact sha256 of an earlier run


@dataclass
class Measured:
    pass_s: list[float]            # wall time of each pass
    ops: int                       # work units done by all passes
    attempted: int                 # checked outputs: pipelines, sweeps, calls, graphs
    failed: int                    # checked outputs that failed
    peak_rss_mb: float
    failures: list[str] = field(default_factory=list)
    hashes: dict | None = None     # artifact sha256 of the first pass


def timed_passes(seconds: float, one_pass, min_passes: int = MIN_PASSES,
                 meter: speed.Meter | None = None) -> list[float]:
    """Run passes until the next one would end after `seconds`.

    one_pass(i) returns the wall time it measured.  With a meter, the
    reference blocks after each pass count toward `seconds` too.
    """
    times: list[float] = []
    stretch = 1.0 + (speed.REF_SHARE if meter is not None else 0.0)
    start = time.perf_counter()
    while (len(times) < min_passes
           or time.perf_counter() - start + stretch * statistics.median(times) <= seconds):
        times.append(one_pass(len(times)))
        if meter is not None:
            meter.end_pass(times[-1])
    return times


def run_cold(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """One `unitdist` process: (wall seconds, exit code, peak RSS in MB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _self_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- cold CLI processes: all_default ----------------------------------------

def _cli_argv(seed: int, out: Path) -> list[str]:
    return ["all", "--rng-seed", str(seed), "--out-dir", str(out)]


def check_cli_output(out: Path, exit_code: int,
                     expected: dict | None) -> tuple[list[str], dict]:
    """Oracle and determinism checks of one CLI pass; returns (failures, hashes)."""
    if exit_code != 0:
        return [f"all_default: exit code {exit_code}"], {}
    if not out.is_dir():
        return ["all_default: no output directory"], {}
    failures = oracles.check_all_artifacts(out)
    hashes = oracles.file_hashes(out)
    if expected is not None and hashes != expected:
        changed = sorted(k for k in expected.keys() | hashes.keys()
                         if expected.get(k) != hashes.get(k))
        failures.append(f"all_default: artifacts differ from the same seed's "
                        f"earlier output: {changed}")
    return failures, hashes


def measure_cli(ctx: Context, seconds: float, meter: speed.Meter) -> Measured:
    out = ctx.work / "out"
    rss: list[float] = []
    m = Measured([], 0, 0, 0, 0.0, hashes=ctx.expected_hashes)

    def one_pass(i: int) -> float:
        shutil.rmtree(out, ignore_errors=True)
        wall, code, mb = run_cold(_cli_argv(ctx.seed, out), ctx.env,
                                  ctx.work / "stderr.log")
        rss.append(mb)
        failures, hashes = check_cli_output(out, code, m.hashes)
        if m.hashes is None:
            m.hashes = hashes
        m.attempted += 1
        m.failed += bool(failures)
        m.failures += failures
        return wall

    m.pass_s = timed_passes(seconds, one_pass, meter=meter)
    shutil.rmtree(out, ignore_errors=True)
    m.peak_rss_mb = statistics.median(rss)
    m.ops = m.attempted
    return m


def cli_in_process(seed: int, out: Path) -> tuple[float, list[str]]:
    """The same command run by cli.main in this process; (wall, failures)."""
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(_cli_argv(seed, out))
    wall = time.perf_counter() - start
    failures, _ = check_cli_output(out, code, None)
    shutil.rmtree(out, ignore_errors=True)
    return wall, failures


# --- in-process: newton_single ----------------------------------------------

def newton_block(starts: np.ndarray) -> tuple[float, list[str]]:
    """One newton_solve call per start; (wall, failures)."""
    outcomes = []
    start = time.perf_counter()
    for row in starts.tolist():
        try:
            x = solver.newton_solve(solver.RhombusParams(*row)).as_tuple()
            outcomes.append(("converged", x))
        except solver.SolverError as exc:
            outcomes.append((type(exc).__name__, None))
        except Exception as exc:  # counted as a failed call, the run goes on
            outcomes.append((f"{type(exc).__name__}: {exc}", None))
    wall = time.perf_counter() - start
    return wall, [f for outcome, x in outcomes for f in oracles.check_newton(outcome, x)]


def measure_newton(ctx: Context, seconds: float, meter: speed.Meter) -> Measured:
    rng = np.random.default_rng(ctx.seed)
    m = Measured([], 0, 0, 0, 0.0)

    def one_pass(i: int) -> float:
        wall, failures = newton_block(rng.uniform(*NEWTON_BOX, size=(NEWTON_BLOCK, 4)))
        m.attempted += NEWTON_BLOCK
        m.failed += len(failures)
        m.failures += failures
        return wall

    m.pass_s = timed_passes(seconds, one_pass, meter=meter)
    m.ops = m.attempted
    m.peak_rss_mb = _self_rss_mb()
    return m


# --- in-process: graph_family -----------------------------------------------

def one_graph(n: int, s: int) -> tuple[float, list[str]]:
    """GP(n, s) through every stage that applies; (wall, failures)."""
    start = time.perf_counter()
    g = graph.generalized_petersen(n, s)
    try:
        bp = graph.bipartition(g)
    except graph.NotBipartiteError:
        bp = None
    autos = graph.automorphism_count(g)
    drawings = {}
    for sign in (1, -1):
        try:
            d = layout.circular_layout(n, s, sign)
        except layout.InfeasibleLayoutError:
            continue
        report = verifier.verify(d)
        outputs = {"report": report}
        if report.is_faithful and bp is not None:
            pair = [configuration.build_point_circle(d, bp, cls) for cls in "ab"]
            outputs["signatures"] = [configuration.validate_configuration(c).signature
                                     for c in pair]
            outputs["dual"] = configuration.dual(pair[0])
            outputs["pair"] = pair
            outputs["svg"] = [render.render_drawing(d)] + [
                render.render_configuration(c) for c in pair]
            outputs["json"] = [_jsonfmt.dumps(report.to_json_dict())] + [
                _jsonfmt.dumps(c.to_json_dict()) for c in pair]
        drawings[sign] = (d, outputs)
    wall = time.perf_counter() - start
    return wall, _check_graph(n, s, g, bp is not None, autos, drawings)


def _check_graph(n, s, g, bipartite, autos, drawings) -> list[str]:
    failures = oracles.check_graph(n, s, g.n_vertices, len(g.edges), bipartite, autos)
    name = f"GP({n},{s})"
    if bool(drawings) != oracles.circular_feasible(n, s):
        failures.append(f"{name}: circular layout feasibility is wrong")
    for sign, (d, out) in drawings.items():
        failures += oracles.check_unit_edges(d.positions, d.graph.edges,
                                             f"{name} sign {sign}")
        if (n, s) == (8, 3) and sign == -1:
            gap = abs(math.dist(d.positions[0], d.positions[10]) - 1.0)
            if out["report"].is_faithful or gap > oracles.GAP_TOL:
                failures.append(f"{name}: circular drawing should be unit-distance "
                                "but not faithful, with |0,10| = 1")
        if "pair" in out:
            if out["signatures"] != [(n, n, 3, 3)] * 2:
                failures.append(f"{name}: configurations {out['signatures']}")
            b, dual = out["pair"][1], out["dual"]
            if (dual.point_labels, dual.incidence) != (b.point_labels, b.incidence):
                failures.append(f"{name}: dual of class a is not class b")
            if not all(svg.startswith("<svg") for svg in out["svg"]):
                failures.append(f"{name}: malformed SVG")
            try:
                for text in out["json"]:
                    json.loads(text)
            except ValueError:
                failures.append(f"{name}: dumps wrote invalid JSON")
    return failures


def graph_pass(between=None) -> tuple[float, list[str], int]:
    """Every graph of FAMILY once; (wall, failures, graphs that failed).

    between(wall), if given, runs untimed after each graph.
    """
    total, failures, failed = 0.0, [], 0
    for n, s in FAMILY:
        try:
            wall, problems = one_graph(n, s)
        except Exception as exc:  # counted as a failed graph, the run goes on
            wall, problems = 0.0, [f"GP({n},{s}): {type(exc).__name__}: {exc}"]
        total += wall
        failures += problems
        failed += bool(problems)
        if between:
            between(wall)
    return total, failures, failed


def measure_graphs(ctx: Context, seconds: float, meter: speed.Meter) -> Measured:
    m = Measured([], 0, 0, 0, 0.0)

    def one_pass(i: int) -> float:
        wall, failures, failed = graph_pass(between=meter.pause)
        m.attempted += len(FAMILY)
        m.failed += failed
        m.failures += failures
        return wall

    m.pass_s = timed_passes(seconds, one_pass, meter=meter)
    m.ops = m.attempted
    m.peak_rss_mb = _self_rss_mb()
    return m


MEASURE = {
    "all_default": measure_cli,
    "newton_single": measure_newton,
    "graph_family": measure_graphs,
}


# --- traced passes -----------------------------------------------------------

@dataclass
class Traced:
    metrics: dict[str, float]      # per-layer metrics, median over traced passes
    spans: list[dict]              # spans of the last traced pass
    attempted: int
    failed: int
    failures: list[str]


def traced_passes(workload: str, ctx: Context, seconds: float,
                  min_passes: int = 1) -> Traced:
    """Traced passes of one workload until `seconds` is used up.

    all_default runs an untraced in-process pass before each traced one and
    adds trace.overhead_s, the median over these pairs of traced minus
    untraced wall time.
    """
    rng = np.random.default_rng(ctx.seed)
    per_pass: list[dict[str, float]] = []
    untraced: list[float] = []
    traced: list[float] = []
    t = Traced({}, [], 0, 0, [])

    def run() -> float:
        """One untraced or traced pass; adds its outcome to t."""
        if workload == "all_default":
            wall, failures = cli_in_process(ctx.seed, ctx.work / "out")
            attempted, failed = 1, int(bool(failures))
        elif workload == "newton_single":
            wall, failures = newton_block(
                rng.uniform(*NEWTON_BOX, size=(NEWTON_BLOCK, 4)))
            attempted, failed = NEWTON_BLOCK, len(failures)
        else:
            wall, failures, failed = graph_pass()
            attempted = len(FAMILY)
        t.attempted += attempted
        t.failed += failed
        t.failures += failures
        return wall

    def one_pass(i: int) -> float:
        if workload == "all_default":
            untraced.append(run())
        tracer = spans.Tracer()
        with tracer.patched():
            traced.append(run())
        per_pass.append(spans.layer_metrics(tracer.spans))
        t.spans = tracer.to_json()
        return traced[-1] + (untraced[-1] if untraced else 0.0)

    if workload == "all_default":
        run()  # untimed: the first pass in a process also grows the heap
    timed_passes(seconds, one_pass, min_passes)
    t.metrics = spans.median_metrics(per_pass)
    if untraced:
        t.metrics["trace.overhead_s"] = statistics.median(
            b - a for a, b in zip(untraced, traced))
    return t
