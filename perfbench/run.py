"""Benchmark of unitdist: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload all_default --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  The package is used from its source
(src/ on PYTHONPATH); nothing is installed.  With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics from separately traced passes.  Every output is checked
against the oracles in oracles.py.  Times are scaled to nominal machine
speed by the reference work in speed.py.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the lines before it give
every metric with its unit and the environment.  A fuller record, and the
spans of a traced run, go to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("all_default", "newton_single", "graph_family")
# a traced run takes each per-layer metric from the selected workload when
# that workload calls the layer, otherwise from the first of these that does
FILL_ORDER = ("all_default", "graph_family", "newton_single")
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import unitdist.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "unitdist").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_head() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_head": git_head(),
        "source_sha256": source_digest(),
    }


def cold_import_seconds(env: dict) -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def import_times(env: dict) -> dict[str, float]:
    """import.numpy_s and import.unitdist_own_s from `python -X importtime`.

    numpy is the cumulative time of the top-level numpy import; unitdist's
    own time is the sum of the self times of unitdist and its submodules.
    """
    numpy_s, own_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import unitdist.cli"], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        numpy_us, own_us = 0, 0
        for line in done.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            self_us, cumulative_us, module = int(parts[0]), int(parts[1]), parts[2].strip()
            if module == "numpy":
                numpy_us = cumulative_us
            elif module == "unitdist" or module.startswith("unitdist."):
                own_us += self_us
        numpy_s.append(numpy_us / 1e6)
        own_s.append(own_us / 1e6)
    return {"import.numpy_s": statistics.median(numpy_s),
            "import.unitdist_own_s": statistics.median(own_s)}


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    A run of long passes has too few samples for that (fewer than 20 would
    put it below the median), so below 40 samples a quarter of them, rounded
    down, are left beyond it instead.
    """
    xs = sorted(samples)
    n = len(xs)
    beyond = min(10, n // 4)
    return {"value": xs[n - 1 - beyond], "percentile": 100.0 * (n - beyond) / n,
            "samples": n, "beyond": beyond}


def run_untraced(workload: str, ctx, seconds: float, record: dict) -> tuple[dict, object]:
    """End-to-end metrics, every time scaled to nominal machine speed (speed.py)."""
    import workloads
    setup, fresh = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(cold_import_seconds(ctx.env))
        fresh.append(speed.fresh_process_seconds())
    setup_scale = speed.FRESH_NOMINAL_S / statistics.median(fresh)
    meter = speed.Meter()
    m = workloads.MEASURE[workload](ctx, seconds, meter)
    scale = meter.scale()
    scaled = meter.scaled_each(m.pass_s)
    wall_tail = tail(scaled)
    metrics = {
        "setup_s": statistics.median(setup) * setup_scale,
        "wall_s": statistics.median(scaled),
        "wall_tail_s": wall_tail["value"],
        "ops_per_s": m.ops / (sum(m.pass_s) * scale),
        "peak_rss_mb": m.peak_rss_mb,
    }
    measured = {  # the same figures in plain seconds, for the record
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(m.pass_s),
        "wall_tail_s": tail(m.pass_s)["value"],
        "ops_per_s": m.ops / sum(m.pass_s),
    }
    record.update(pass_s=m.pass_s, pass_scaled_s=scaled, setup_s=setup, wall_tail=wall_tail,
                  speed_scale=scale, setup_scale=setup_scale, fresh_process_s=fresh,
                  reference_s=meter.samples, unscaled=measured,
                  failed_share=m.failed / m.attempted, artifact_sha256=m.hashes)
    return metrics, m


def run_traced(workload: str, ctx, seconds: float, declared: dict,
               record: dict) -> tuple[dict, object]:
    import workloads
    metrics = import_times(ctx.env)
    sources = dict.fromkeys(metrics, "import")
    total = workloads.Traced({}, [], 0, 0, [])
    span_sets = {}
    for name in (workload,) + tuple(w for w in FILL_ORDER if w != workload):
        if declared.keys() <= metrics.keys():
            break
        if name == workload:
            t = workloads.traced_passes(name, ctx, seconds / 2)
        else:  # one pass fills the metrics the selected workload lacks
            t = workloads.traced_passes(name, ctx, 0.0,
                                        min_passes=2 if name == "all_default" else 1)
        for key, value in t.metrics.items():
            if key not in metrics:
                metrics[key] = value
                sources[key] = name
        span_sets[name] = t.spans
        total.attempted += t.attempted
        total.failed += t.failed
        total.failures += t.failures
    missing = sorted(declared.keys() - metrics.keys())
    if missing:
        total.attempted += 1
        total.failed += 1
        total.failures.append(f"traced run produced no value for {missing}")
    record.update(metric_sources=sources, spans=span_sets)
    return {k: v for k, v in metrics.items() if k in declared}, total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unitdist" / "__init__.py").is_file():
        print(f"perfbench: no unitdist source at {SRC / 'unitdist'}; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    end_to_end, per_layer = declared_metrics()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "hashes").mkdir(parents=True, exist_ok=True)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "loadavg_before": loadavg()}
    hash_file = OUT / "hashes" / f"{env['source_sha256'][:16]}-{args.workload}-seed{args.seed}.json"
    expected = (json.loads(hash_file.read_text())
                if hash_file.is_file() and args.trace == 0 else None)
    ctx = workloads.Context(args.seed, work, child_env(), expected)

    if args.trace:
        metrics, outcome = run_traced(args.workload, ctx, args.seconds, per_layer, record)
        units = per_layer
    else:
        metrics, outcome = run_untraced(args.workload, ctx, args.seconds, record)
        units = end_to_end
        if expected is None and outcome.hashes:
            hash_file.write_text(json.dumps(outcome.hashes, indent=2))
    record["loadavg_after"] = loadavg()
    record["failures"] = outcome.failures[:50]
    record["metrics"] = metrics
    results_file = OUT / "results" / f"{tag}.json"
    results_file.write_text(json.dumps(record, indent=1))

    for message in outcome.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value!r} {units[name]}")
    if not args.trace:
        t = record["wall_tail"]
        print(f"wall_tail_s is p{t['percentile']:.1f} of {t['samples']} passes "
              f"({t['beyond']} beyond it); failed_share = {record['failed_share']!r}")
        print(f"speed: pass times are scaled by {record['speed_scale']:.4f} to a "
              f"reference loop of {speed.REF_NOMINAL_S} s, setup_s by "
              f"{record['setup_scale']:.4f} to a fresh process of "
              f"{speed.FRESH_NOMINAL_S} s; unscaled: {json.dumps(record['unscaled'])}")
    print(f"environment: {json.dumps(env)}")
    print(f"loadavg: before {record['loadavg_before']}, after {record['loadavg_after']}")
    print(f"record: {results_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
