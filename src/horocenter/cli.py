"""Command line front end.

Subcommands: barycenter, select, classify, scan-shift, scan-mass,
scan-selector.  Structured results are emitted as JSON; barycenter and
the scans take --format csv for the trace or the scan records.  Exit
codes: 0 success, 1 input error, 2 non-convergence (barycenter still
writes its partial artifact; select prints the message and writes
nothing); usage errors such as an unknown flag are input errors and
exit 1.

--space/--dim are read as a space document by jsonio, so a flag and a
document field fail with one message; every ideal error names `ideal`.

All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .barycenter import (
    DEFAULT_MAX_ITERS,
    DEFAULT_MAX_POINTS,
    DEFAULT_TOL,
    ConvergenceError,
    center_of_mass,
)
from .jsonio import InputError
from .spaces import EUCLIDEAN, HYPERBOLIC, TREE, GeometryError, IdealPoint, Space

def _add_space_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--space", choices=[EUCLIDEAN, HYPERBOLIC, TREE], help="model space kind"
    )
    parser.add_argument("--dim", type=int, help="dimension (euclidean/hyperbolic)")
    parser.add_argument("--space-json", help="path to a space description document")


def _add_center_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)


def _add_output_flags(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    if formats:
        parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--output", help="output path (default: standard output)")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; 2 means non-convergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="horocenter",
        description="Weighted centers, horosphere selectors and Lipschitz scans "
        "in three model Hadamard spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barycenter", help="iterative center of a weighted point set")
    _add_space_flags(p)
    p.add_argument("--input", required=True, help="configuration document")
    _add_center_flags(p)
    p.add_argument(
        "--max-points",
        type=int,
        default=DEFAULT_MAX_POINTS,
        help="largest configuration that may take the recursion, whose cost is "
        "super-exponential (hyperbolic, or tree points spread over branches); "
        "euclidean and single-geodesic tree configurations are closed-form, and "
        "hyperbolic ones of diameter below tol**(1/3) close in one projected "
        "step, so neither is capped (default %(default)s)",
    )
    _add_output_flags(p)

    p = sub.add_parser("select", help="map a convex body to a point")
    _add_space_flags(p)
    p.add_argument("--input", required=True, help="body document (may carry 'ideal')")
    p.add_argument("--ideal", help="inline ideal-point JSON (overrides the document)")
    _add_center_flags(p)
    p.add_argument("--classify-tol", type=float)
    p.add_argument("--snap-tol", type=float)
    p.add_argument("--no-smoothing", action="store_true")
    _add_output_flags(p, formats=False)

    p = sub.add_parser("classify", help="shrinking / non-shrinking verdict for a body")
    _add_space_flags(p)
    p.add_argument("--input", required=True)
    p.add_argument("--ideal", help="inline ideal-point JSON (overrides the document)")
    p.add_argument("--classify-tol", type=float)
    _add_output_flags(p, formats=False)

    for name, blurb in (
        ("scan-shift", "Lipschitz scan: shift one point"),
        ("scan-mass", "Lipschitz scan: change one mass"),
        ("scan-selector", "Lipschitz scan: perturb a convex body"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_space_flags(p)
        p.add_argument("--n-points", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--scale", type=float)
        _add_center_flags(p)
        if name == "scan-selector":
            p.add_argument("--ideal", help="inline ideal-point JSON")
            p.add_argument("--no-smoothing", action="store_true")
        _add_output_flags(p)

    return parser


# -- input assembly ------------------------------------------------------------


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


def _resolve_space(args) -> Space:
    if args.space_json:
        doc = jsonio.loads(_read_file(args.space_json), "space")
    elif not args.space:
        raise InputError("space: pass --space or --space-json")
    elif args.space == TREE:
        raise InputError("space: tree spaces need --space-json")
    elif args.dim is None:
        raise InputError("space.dim: pass --dim for euclidean/hyperbolic")
    else:
        doc = {"space": args.space, "dim": args.dim}
    return jsonio.space_from_json(doc)


def _resolve_ideal(space: Space, args, doc=None) -> IdealPoint:
    if getattr(args, "ideal", None):
        return jsonio.ideal_from_json(space, jsonio.loads(args.ideal, "ideal"), "ideal")
    if doc is not None and "ideal" in doc:
        return jsonio.ideal_from_json(space, doc["ideal"], "ideal")
    # sensible defaults so quick runs need no boilerplate
    if space.kind == EUCLIDEAN:
        return IdealPoint.direction((1.0,) + (0.0,) * (space.dim - 1))
    if space.kind == HYPERBOLIC:
        return IdealPoint.null_vector((1.0, 1.0) + (0.0,) * (space.dim - 1))
    leaves = list(space.tree.ends)
    if not leaves:
        raise InputError("ideal: tree has no marked leaves; pass --ideal")
    return IdealPoint.end(leaves[0])


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


# -- subcommand bodies -----------------------------------------------------------


def _given(**flags) -> dict:
    """The flags the user set; the library's signatures hold each default."""
    return {name: value for name, value in flags.items() if value is not None}


def _run_barycenter(args) -> int:
    space = _resolve_space(args)
    config = jsonio.configuration_from_json(
        space, jsonio.loads(_read_file(args.input), "configuration")
    )
    status = 0
    try:
        result = center_of_mass(space, config, args.tol, args.max_iters, args.max_points)
    except ConvergenceError as exc:
        result, status = exc.result, 2
        print(f"barycenter: {exc}", file=sys.stderr)
    if args.format == "csv":
        _emit(jsonio.trace_csv(result), args.output)
    else:
        _emit(jsonio.dumps(jsonio.result_to_json(space, result)), args.output)
    return status


def _read_body(args):
    """The space, body and ideal point of a select or classify run."""
    space = _resolve_space(args)
    doc = jsonio.loads(_read_file(args.input), "body")
    return space, jsonio.body_from_json(space, doc), _resolve_ideal(space, args, doc)


def _run_select(args) -> int:
    from .horosphere import SelectOptions, select

    space, body, xi = _read_body(args)
    opts = SelectOptions(
        tol=args.tol,
        max_iters=args.max_iters,
        smoothing=not args.no_smoothing,
        **_given(classify_tol=args.classify_tol, snap_tol=args.snap_tol),
    )
    try:
        point = select(space, body, xi, opts=opts)
    except ConvergenceError as exc:
        print(f"select: {exc}", file=sys.stderr)
        return 2
    _emit(jsonio.dumps({"point": jsonio.point_to_json(space, point)}), args.output)
    return 0


def _run_classify(args) -> int:
    from .horosphere import classify_body

    space, body, xi = _read_body(args)
    shrink = classify_body(space, body, xi, **_given(tol=args.classify_tol))
    _emit(
        jsonio.dumps(
            {
                "verdict": shrink.verdict,
                "max_limit_separation": shrink.max_limit_separation,
            }
        ),
        args.output,
    )
    return 0


def _run_scan(args, kind: str) -> int:
    from .lipschitz import ScanParams, mass_shift_scan, point_shift_scan, selector_scan

    space = _resolve_space(args)
    ideal = None
    smoothing = True
    if kind == "selector":
        ideal = _resolve_ideal(space, args)
        smoothing = not args.no_smoothing
    params = ScanParams(
        space=space,
        tol=args.tol,
        max_iters=args.max_iters,
        smoothing=smoothing,
        ideal=ideal,
        **_given(
            n_points=args.n_points,
            samples=args.samples,
            epsilon=args.epsilon,
            seed=args.seed,
            scale=args.scale,
        ),
    )
    try:
        if kind == "shift":
            report = point_shift_scan(params)
        elif kind == "mass":
            report = mass_shift_scan(params)
        else:
            report = selector_scan(params)
    except GeometryError as exc:
        raise InputError(f"scan: {exc}") from None
    if args.format == "csv":
        _emit(jsonio.report_csv(report), args.output)
    else:
        _emit(jsonio.dumps(jsonio.report_to_json(report)), args.output)
    if args.output is not None:
        print(
            f"max_ratio={report.max_ratio!r} mean_ratio={report.mean_ratio!r} "
            f"failures={report.failures} skipped={report.skipped}"
        )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "barycenter":
            return _run_barycenter(args)
        if args.command == "select":
            return _run_select(args)
        if args.command == "classify":
            return _run_classify(args)
        return _run_scan(args, args.command.removeprefix("scan-"))
    except (InputError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
