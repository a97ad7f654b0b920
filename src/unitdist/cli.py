"""Command-line pipeline: solve -> layout -> verify -> config -> render.

Every stage reads and writes JSON files, so each step can be rerun or fed
user-supplied artifacts.  Exit codes: 0 success, 1 usage error, 2 a
computation verdict failed (no roots found, drawing not faithful, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from ._jsonfmt import dumps
from .configuration import (IncidenceStructure, IncidenceMismatchError,
                            NotFaithfulError, build_point_circle,
                            validate_configuration)
from .graph import bipartition
from .layout import Drawing, RhombusParams, circular_layout, rhombus_layout
from .render import RenderStyle, render_drawing, render_configuration
from .solver import (DEFAULT_SEED_COUNT, DEFAULT_TOL, enumerate_solutions,
                     solution_from_json_dict, solution_to_json_dict)
from .verifier import (DEFAULT_EDGE_TOL, DEFAULT_GAP_THRESHOLD,
                       FaithfulnessReport, verify)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(convert, zero_ok: bool = False):
    """An argparse type: a finite number > 0, or >= 0 with zero_ok."""
    def parse(text: str):
        value = convert(text)
        if not (0 < value < math.inf or (zero_ok and value == 0)):
            raise ValueError(text)
        return value

    # argparse reports the ValueError as "invalid <__name__> value: <text>"
    parse.__name__ = f"{'non-negative' if zero_ok else 'positive'} {convert.__name__}"
    return parse


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="unitdist",
        description="Faithful unit-distance embeddings of GP(8,3) and their "
                    "point-circle configurations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="directory for output artifacts (default: %(default)s)")
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("--seeds", type=_number(int), default=DEFAULT_SEED_COUNT,
                         help="number of random starts (default: %(default)s)")
    solving.add_argument("--rng-seed", type=_number(int, zero_ok=True), default=0,
                         help="seed for the random start generator "
                              "(default: %(default)s)")
    solving.add_argument("--tol", type=_number(float), default=DEFAULT_TOL,
                         help="residual max-norm tolerance (default: %(default)s)")
    verifying = argparse.ArgumentParser(add_help=False)
    verifying.add_argument("--edge-tol", type=_number(float),
                           default=DEFAULT_EDGE_TOL,
                           help="edge length tolerance (default: %(default)s)")
    verifying.add_argument("--gap-threshold", type=_number(float),
                           default=DEFAULT_GAP_THRESHOLD,
                           help="required non-edge clearance from distance 1 "
                                "(default: %(default)s)")
    rotation = argparse.ArgumentParser(add_help=False)
    rotation.add_argument("--rotation-sign", type=int, choices=(1, -1), default=-1,
                          help="inner-ring rotation branch of the circular "
                               "drawing (default: %(default)s)")

    p = sub.add_parser("solve", parents=[common, solving],
                       help="enumerate roots of the embedding system")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("layout", parents=[common, rotation],
                       help="build drawings from solved parameters")
    p.set_defaults(run=cmd_layout)
    p.add_argument("--solutions", type=Path, default=None,
                   help="solutions JSON (default: <out-dir>/solutions.json)")

    p = sub.add_parser("verify", parents=[common, verifying],
                       help="certify drawings from JSON files")
    p.set_defaults(run=cmd_verify)
    p.add_argument("drawings", type=Path, nargs="+", metavar="DRAWING.json")

    p = sub.add_parser("config", parents=[common, verifying],
                       help="derive a point-circle configuration")
    p.set_defaults(run=cmd_config)
    p.add_argument("drawing", type=Path, metavar="DRAWING.json")
    p.add_argument("--centers-class", choices=("a", "b"), default="a",
                   help="bipartition class used as circle centres "
                        "(default: %(default)s)")

    p = sub.add_parser("render", parents=[common],
                       help="render drawings/configurations to SVG")
    p.set_defaults(run=cmd_render)
    p.add_argument("--drawing", type=Path, action="append", default=[],
                   metavar="DRAWING.json")
    p.add_argument("--configuration", type=Path, action="append", default=[],
                   metavar="CONFIG.json")

    p = sub.add_parser("all", parents=[common, solving, verifying, rotation],
                       help="run the whole pipeline")
    p.set_defaults(run=cmd_all)
    return parser


class _InputError(Exception):
    """Unusable input artifact (missing file, bad JSON, wrong schema)."""


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _solutions_from_json(data) -> list[RhombusParams]:
    if not isinstance(data, list):
        raise TypeError("expected a list of solutions")
    solutions = [solution_from_json_dict(entry) for entry in data]
    if not all(math.isfinite(v) for s in solutions for v in s.as_tuple()):
        raise ValueError("non-finite parameter")
    return solutions


_PARSERS = {"drawing": Drawing.from_json_dict,
            "configuration": IncidenceStructure.from_json_dict,
            "solutions": _solutions_from_json}


def _read(path: Path, kind: str):
    """The kind of artifact stored in path; any failure is an _InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _PARSERS[kind](json.load(fh))
    except FileNotFoundError:
        raise _InputError(f"input file {path} not found") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise _InputError(f"{path} is nested too deeply") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _InputError(f"{path} is not a {kind} artifact: {exc}") from None


def _report_table(name: str, report: FaithfulnessReport) -> str:
    gap_ok = report.min_nonedge_gap >= report.gap_threshold
    gap_txt = ("-" if math.isinf(report.min_nonedge_gap)
               else f"{report.min_nonedge_gap:.6f}")
    rows = [
        ("unit-distance", report.is_unit_distance,
         f"max edge residual {report.max_edge_residual:.3e} "
         f"(tol {report.edge_tol:g}, witness {report.max_edge_residual_witness})"),
        ("non-edge gap", gap_ok,
         f"min gap {gap_txt} (threshold {report.gap_threshold:g}, "
         f"witness {report.min_nonedge_gap_witness})"),
        ("degeneracies", not report.degeneracies,
         f"{len(report.degeneracies)} finding(s)"),
        ("faithful", report.is_faithful,
         f"{report.n_edges} edges, {report.n_nonadjacent_pairs} non-adjacent pairs"),
    ]
    lines = [f"[{name}]"]
    for label, ok, detail in rows:
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {label:<14} {detail}")
    return "\n".join(lines)


# Stage helpers: each writes its artifacts, prints its lines and returns
# what it built.  The cmd_* functions wrap one stage; cmd_all chains them.

def _solve(args) -> list[RhombusParams]:
    solutions = enumerate_solutions(seed_count=args.seeds,
                                    rng_seed=args.rng_seed, tol=args.tol)
    _write(args.out_dir / "solutions.json",
           dumps([solution_to_json_dict(s) for s in solutions]))
    print(f"found {len(solutions)} non-degenerate solution(s)")
    for s in solutions:
        print(f"  h={s.h:.6f} k={s.k:.6f} p={s.p:.6f} q={s.q:.6f}")
    return solutions


def _layout(args, params: RhombusParams) -> dict[str, Drawing]:
    """The rhombus drawing of params and the circular drawing of GP(8,3)."""
    drawings = {"drawing": rhombus_layout(params),
                "circular": circular_layout(8, 3, args.rotation_sign)}
    for name, drawing in drawings.items():
        _write(args.out_dir / f"{name}.json", dumps(drawing.to_json_dict()))
    return drawings


def _verify(args, name: str, drawing: Drawing) -> FaithfulnessReport:
    report = verify(drawing, edge_tol=args.edge_tol,
                    gap_threshold=args.gap_threshold)
    _write(args.out_dir / f"{name}_report.json", dumps(report.to_json_dict()))
    print(_report_table(name, report))
    return report


def _config(args, drawing: Drawing, classes) -> dict[str, IncidenceStructure] | None:
    """A validated configuration per centres class, by name; None on a failure."""
    bp = bipartition(drawing.graph)
    structures = {}
    for cls in classes:
        try:
            structure = build_point_circle(drawing, bp, cls,
                                           edge_tol=args.edge_tol,
                                           gap_threshold=args.gap_threshold)
        except (NotFaithfulError, IncidenceMismatchError) as exc:
            print(f"error: centers {cls}: {exc}", file=sys.stderr)
            return None
        name = f"config_centers_{cls}"
        _write(args.out_dir / f"{name}.json", dumps(structure.to_json_dict()))
        check = validate_configuration(structure)
        if check.signature is None:
            print(f"error: centers {cls}: configuration axioms violated: "
                  f"{'; '.join(check.violations)}", file=sys.stderr)
            return None
        v, b, r, c = check.signature
        print(f"centers {cls}: valid ({v}_{r}, {b}_{c}) configuration")
        structures[name] = structure
    return structures


def _render(args, items) -> None:
    """One SVG per (name, drawing or configuration) pair."""
    for name, item in items:
        render = render_drawing if isinstance(item, Drawing) else render_configuration
        _write(args.out_dir / f"{name}.svg", render(item, RenderStyle()))


def cmd_solve(args) -> int:
    return EXIT_OK if _solve(args) else EXIT_VERDICT


def cmd_layout(args) -> int:
    solutions = _read(args.solutions or args.out_dir / "solutions.json",
                      "solutions")
    if not solutions:
        print("error: solutions file is empty", file=sys.stderr)
        return EXIT_VERDICT
    _layout(args, solutions[0])
    return EXIT_OK


def cmd_verify(args) -> int:
    drawings = [(path.stem, _read(path, "drawing")) for path in args.drawings]
    reports = [_verify(args, name, drawing) for name, drawing in drawings]
    return EXIT_OK if all(r.is_faithful for r in reports) else EXIT_VERDICT


def cmd_config(args) -> int:
    drawing = _read(args.drawing, "drawing")
    return EXIT_OK if _config(args, drawing, args.centers_class) else EXIT_VERDICT


def cmd_render(args) -> int:
    if not args.drawing and not args.configuration:
        print("error: nothing to render; pass --drawing and/or --configuration",
              file=sys.stderr)
        return EXIT_USAGE
    _render(args, [(path.stem, _read(path, "drawing")) for path in args.drawing]
            + [(path.stem, _read(path, "configuration"))
               for path in args.configuration])
    return EXIT_OK


def cmd_all(args) -> int:
    solutions = _solve(args)
    if not solutions:
        print("stage solve failed: no non-degenerate solutions found",
              file=sys.stderr)
        return EXIT_VERDICT
    drawings = _layout(args, solutions[0])
    reports = {name: _verify(args, name, d) for name, d in drawings.items()}
    _render(args, drawings.items())
    if not reports["drawing"].is_faithful:
        print("stage verify failed: rhombus drawing is not faithful",
              file=sys.stderr)
        return EXIT_VERDICT
    structures = _config(args, drawings["drawing"], "ab")
    if structures is None:
        return EXIT_VERDICT
    _render(args, structures.items())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "edge_tol" in args and args.gap_threshold <= args.edge_tol:
            parser.error("--gap-threshold must exceed --edge-tol")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except (_InputError, OSError) as exc:
        print(f"unitdist: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
