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
from .configuration import (IncidenceStructure, NotFaithfulError,
                            build_point_circle, levi_drawing,
                            validate_configuration)
from .graph import NotBipartiteError, bipartition
from .layout import Drawing, RhombusParams, circular_layout, rhombus_layout
from .render import render_drawing, render_configuration
from .solver import (enumerate_solutions, solution_from_json_dict,
                     solution_to_json_dict)
from .verifier import FaithfulnessReport, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2


def _number(zero_ok: bool = False):
    """An argparse type: an int > 0, or >= 0 with zero_ok."""
    def parse(text: str) -> int:
        value = int(text)
        if not (value > 0 or (zero_ok and value == 0)):
            raise ValueError(text)
        return value

    # argparse reports the ValueError as "invalid <__name__> value: <text>"
    parse.__name__ = f"{'non-negative' if zero_ok else 'positive'} int"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitdist",
        description="Faithful unit-distance embeddings of GP(8,3) and their "
                    "point-circle configurations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="directory for output artifacts (default: %(default)s)")
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("--seeds", type=_number(), default=None,
                         help="find the roots by multistart Newton from this "
                              "many random starts (default: exact "
                              "elimination, which proves the list complete)")
    solving.add_argument("--rng-seed", type=_number(zero_ok=True), default=0,
                         help="seed for the random starts of --seeds "
                              "(default: %(default)s)")

    p = sub.add_parser("solve", parents=[common, solving],
                       help="enumerate roots of the embedding system")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("layout", parents=[common],
                       help="build drawings from solved parameters")
    p.set_defaults(run=cmd_layout)
    p.add_argument("--solutions", type=Path, default=None,
                   help="solutions JSON (default: <out-dir>/solutions.json)")

    p = sub.add_parser("verify", parents=[common],
                       help="certify drawings or configurations from JSON files")
    p.set_defaults(run=cmd_verify)
    p.add_argument("drawings", type=Path, nargs="+", metavar="DRAWING.json")

    p = sub.add_parser("config", parents=[common],
                       help="derive both point-circle configurations")
    p.set_defaults(run=cmd_config)
    p.add_argument("drawing", type=Path, metavar="DRAWING.json")

    p = sub.add_parser("render", parents=[common],
                       help="render drawings/configurations to SVG")
    p.set_defaults(run=cmd_render)
    p.add_argument("--drawing", type=Path, action="append", default=[],
                   metavar="DRAWING.json")
    p.add_argument("--configuration", type=Path, action="append", default=[],
                   metavar="CONFIG.json")

    p = sub.add_parser("all", parents=[common, solving],
                       help="run the whole pipeline")
    p.set_defaults(run=cmd_all)
    return parser


class _InputError(Exception):
    """Unusable input: no input to render, or an artifact with a missing
    file, bad JSON, wrong schema, or an extent too large to render."""


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _solutions_from_json(data) -> list[RhombusParams]:
    if not isinstance(data, list):
        raise TypeError("expected a list of solutions")
    return [solution_from_json_dict(entry) for entry in data]


_PARSERS = {"drawing": Drawing.from_json_dict,
            "configuration": IncidenceStructure.from_json_dict,
            "solutions": _solutions_from_json}
_VERIFIABLE = "drawing or configuration"


def _read(path: Path, kind: str):
    """The kind of artifact stored in path; any failure is an _InputError.

    verify's kind reads a configuration, known by its incidences, as the
    drawing of its Levi graph, and anything else as a drawing."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if kind != _VERIFIABLE:
            return _PARSERS[kind](data)
        kind = ("configuration" if isinstance(data, dict) and "incidences" in data
                else "drawing")
        item = _PARSERS[kind](data)
        return levi_drawing(item) if kind == "configuration" else item
    except FileNotFoundError:
        raise _InputError(f"input file {path} not found") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise _InputError(f"{path} is nested too deeply") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _InputError(f"{path} is not a {kind} artifact: {exc}") from None


def _names(paths: list[Path], suffix: str) -> list[str]:
    """The inputs' file stems, which name their outputs: each must be unique."""
    stems = [path.stem for path in paths]
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            raise _InputError(f"{paths[stems.index(stem)]} and {paths[i]} "
                              f"would both write {stem}{suffix}")
    return stems


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
    solutions = enumerate_solutions(seed_count=args.seeds, rng_seed=args.rng_seed)
    _write(args.out_dir / "solutions.json",
           dumps([solution_to_json_dict(s) for s in solutions]))
    print(f"found {len(solutions)} non-degenerate solution(s)")
    for s in solutions:
        print(f"  h={s.h:.6f} k={s.k:.6f} p={s.p:.6f} q={s.q:.6f}")
    return solutions


def _layout(args, params: RhombusParams) -> dict[str, Drawing]:
    """The rhombus drawing of params and the circular drawing of GP(8,3)."""
    drawings = {"drawing": rhombus_layout(params),
                "circular": circular_layout(8, 3)}
    for name, drawing in drawings.items():
        _write(args.out_dir / f"{name}.json", dumps(drawing.to_json_dict()))
    return drawings


def _report(args, name: str, report: FaithfulnessReport) -> FaithfulnessReport:
    _write(args.out_dir / f"{name}_report.json", dumps(report.to_json_dict()))
    print(_report_table(name, report))
    return report


def _config(args, drawing: Drawing) -> dict[str, IncidenceStructure] | None:
    """The validated configurations, centres a then b, by name, written only
    once both have validated; None on a failure."""
    try:
        bp = bipartition(drawing.graph)
    except NotBipartiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    checked = []
    for cls in "ab":
        try:
            structure = build_point_circle(drawing, bp, cls)
        except NotFaithfulError as exc:
            print(f"error: centers {cls}: {exc}", file=sys.stderr)
            return None
        check = validate_configuration(structure)
        if check.signature is None:
            print(f"error: centers {cls}: configuration axioms violated: "
                  f"{'; '.join(check.violations)}", file=sys.stderr)
            return None
        checked.append((cls, structure, check.signature))
    structures = {}
    for cls, structure, (v, b, r, c) in checked:
        name = f"config_centers_{cls}"
        _write(args.out_dir / f"{name}.json", dumps(structure.to_json_dict()))
        print(f"centers {cls}: valid ({v}_{r}, {b}_{c}) configuration")
        structures[name] = structure
    return structures


def _render(args, items) -> None:
    """One SVG per (name, drawing or configuration) pair, written only once
    every item has rendered."""
    svgs = []
    for name, item in items:
        render = render_drawing if isinstance(item, Drawing) else render_configuration
        try:
            svgs.append((name, render(item)))
        except ValueError as exc:  # an extent that overflows a float
            raise _InputError(f"cannot render {name}: {exc}") from None
    for name, svg in svgs:
        _write(args.out_dir / f"{name}.svg", svg)


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
    names = _names(args.drawings, "_report.json")
    drawings = [_read(path, _VERIFIABLE) for path in args.drawings]
    reports = [_report(args, name, verify(d)) for name, d in zip(names, drawings)]
    return EXIT_OK if all(r.is_faithful for r in reports) else EXIT_VERDICT


def cmd_config(args) -> int:
    drawing = _read(args.drawing, "drawing")
    return EXIT_OK if _config(args, drawing) else EXIT_VERDICT


def cmd_render(args) -> int:
    if not args.drawing and not args.configuration:
        raise _InputError("nothing to render; pass --drawing and/or --configuration")
    names = _names(args.drawing + args.configuration, ".svg")
    _render(args, zip(names, [_read(path, "drawing") for path in args.drawing]
                      + [_read(path, "configuration") for path in args.configuration]))
    return EXIT_OK


def cmd_all(args) -> int:
    solutions = _solve(args)
    if not solutions:
        print("stage solve failed: no non-degenerate solutions found",
              file=sys.stderr)
        return EXIT_VERDICT
    drawings = _layout(args, solutions[0])
    # the circular drawing first, so that the rhombus drawing's report is
    # the one verify keeps when _config builds centres a
    circular = verify(drawings["circular"])
    rhombus = _report(args, "drawing", verify(drawings["drawing"]))
    _report(args, "circular", circular)
    _render(args, drawings.items())
    if not rhombus.is_faithful:
        print("stage verify failed: rhombus drawing is not faithful",
              file=sys.stderr)
        return EXIT_VERDICT
    structures = _config(args, drawings["drawing"])
    if structures is None:
        return EXIT_VERDICT
    _render(args, structures.items())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (_InputError, OSError) as exc:
        print(f"unitdist: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
