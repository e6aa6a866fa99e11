"""Command-line interface.

Subcommands: analyze, polar-analyze, darboux, morales-check,
monodromy-period, g-verdict, ve-build, batch, dump-table.  JSON output
via --json; exit codes: 0 success, 1 analysis failure(s), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__, morales
from .darboux import DarbouxError, find_darboux_points, normalize
from .monodromy import LoopSpec, g_verdict, period_closed_form, period_quadrature
from .parse import parse_potential, parse_trig_poly
from .potential import PotentialError, jet_at
from .report import analyze, batch, polar_summary, report_json_text
from .scalars import GaussianRational, parse_rational, point_text
from .varequ import build_higher_ve


class _RationalFriendlyParser(argparse.ArgumentParser):
    """argparse variant that treats -1/2 style tokens as values, not flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(\.\d+)?(/\d+)?$")


def _dump(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _add_k5_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k5-variant", choices=[morales.K5_PRINTED, morales.K5_TENJ],
                   default=morales.K5_PRINTED,
                   help="which k=5 sporadic row to use (printed table value or "
                        "the pattern-matching variant)")


def cmd_analyze(args) -> int:
    try:
        rep = analyze(args.potential, args.k5_variant)
        text = (report_json_text(rep, include_timing=args.timing) if args.json
                else rep.to_text() + "\n")
    except (PotentialError, DarbouxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def cmd_polar_analyze(args) -> int:
    try:
        out = polar_summary(parse_trig_poly(args.U), args.k, args.k5_variant)
    except PotentialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _dump(out)
    else:
        print(f"U = {args.U}, k = {args.k}")
        if "theta0" in out:
            print(f"theta0 = {out['theta0']:.12g}")
        if "lambda" in out:
            print(f"lambda = {out['lambda']}")
        print(f"classification: {out['classification']}")
        print(f"note: {out['note']}")
    return 0


def cmd_darboux(args) -> int:
    try:
        V = parse_potential(args.potential)
        dset = find_darboux_points(V)
    except (PotentialError, DarbouxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _dump(dset.to_json())
    else:
        if dset.continuum:
            print("continuum of Darboux points; representative:")
        for p in dset.points:
            print(f"  c = {point_text(p.c)}  spectrum = {point_text(p.spectrum)}"
                  f"  multiple = {p.multiple}  isotropic = {p.isotropic}")
        for d in dset.degenerate_directions:
            print(f"  degenerate direction: {point_text(d)}")
    return 0


def cmd_morales_check(args) -> int:
    try:
        lam = parse_rational(args.lam)
        verdict = morales.admissible(args.k, lam, args.k5_variant)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _dump(verdict.to_json())
    else:
        state = "admissible" if verdict.admissible else "inadmissible"
        print(f"(k, lambda) = ({args.k}, {lam}): {state}")
        if verdict.witness:
            print(f"witness: {verdict.witness[0]} at i = {verdict.witness[1]}")
    return 0


def cmd_monodromy_period(args) -> int:
    try:
        alpha = parse_rational(args.alpha)
        closed = period_closed_form(alpha, args.j)
        quad = period_quadrature(LoopSpec(args.j), alpha, args.quad_tol)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    diff = abs(closed.value - quad.value)
    record = {
        "alpha": str(alpha),
        "j": args.j,
        "closed_form": [closed.value.real, closed.value.imag],
        "quadrature": [quad.value.real, quad.value.imag],
        "abs_diff": diff,
        "quadrature_error_bound": quad.error_bound,
        "gamma_pole": closed.gamma_pole,
    }
    if args.json:
        _dump(record)
    else:
        print(f"alpha = {alpha}, j = {args.j}")
        print(f"closed form : {closed.value:.15g}")
        print(f"quadrature  : {quad.value:.15g}")
        print(f"|difference|: {diff:.3e}")
    return 0


def cmd_g_verdict(args) -> int:
    try:
        g = g_verdict(args.level, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _dump(g.to_json())
    else:
        print(f"G(l={g.l}, k={g.k}): {g.verdict} ({g.reason})")
        for name, (val, hit) in g.checklist.items():
            print(f"  {name}: value {val}, triggered {hit}")
    return 0


def cmd_ve_build(args) -> int:
    try:
        if args.level < 1:  # checked before the jet of that order is taken
            raise ValueError("level must be >= 1")
        V = parse_potential(args.potential)
        dset = find_darboux_points(V)
        candidates = [p for p in dset.points if not p.isotropic]
        if not candidates:
            print("error: no non-isotropic Darboux point to normalize", file=sys.stderr)
            return 1
        candidates.sort(key=lambda p: not p.exact)  # exact points first
        point = candidates[0]
        Vn, c = normalize(V, point)
        jet = jet_at(Vn, c, args.level)
        lam = None
        if args.lam is not None:
            lam = parse_rational(args.lam)
        elif isinstance(point.spectrum[1], GaussianRational) and point.spectrum[1].is_real():
            lam = point.spectrum[1].re  # else lambda stays the symbol lam
        system = build_higher_ve(jet if jet.exact else None, args.level, V.degree,
                                 lam=lam)
    except (PotentialError, DarbouxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = system.to_json()
    if args.json:
        _dump(payload)
    else:
        print(f"level {system.level} system, dimension {system.dim}, "
              f"k = {system.k}, lambda = {system.lam}")
        print(f"{len(payload['entries'])} transition entries")
    return 0


def cmd_batch(args) -> int:
    try:
        result = batch(args.directory, args.k5_variant)
        reports = {name: rep.to_json(include_timing=args.timing)
                   for name, rep in result.reports} if args.json else None
    except NotADirectoryError as exc:
        print(f"error: not a directory: {exc}", file=sys.stderr)
        return 2
    except PotentialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_text = result.summary_csv()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(csv_text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    if args.json:
        _dump({
            "summary": [list(r) for r in result.summary_rows],
            "errors": [list(e) for e in result.errors],
            "reports": reports,
        })
    else:
        sys.stdout.write(csv_text)
        for name, msg in result.errors:
            print(f"error in {name}: {msg}", file=sys.stderr)
    return result.exit_code


def cmd_dump_table(args) -> int:
    ks = [args.k] if args.k is not None else [1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    try:
        payload = {str(k): [row.to_json() for row in morales.table_rows(k, args.k5_variant)]
                   for k in ks}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _dump(payload)
    else:
        for k, rows in payload.items():
            print(f"k = {k}:")
            for row in rows:
                print(f"  {row['row']}: lambda = {row['formula']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _RationalFriendlyParser(
        prog="homopot",
        description="Integrability analysis of planar homogeneous potentials")
    parser.add_argument("--version", action="version", version=f"homopot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_RationalFriendlyParser)

    p = sub.add_parser("analyze", help="full Darboux + eigenvalue-table pipeline")
    p.add_argument("potential", help="potential expression, e.g. 'q1^2*q2' or 'r^-3'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the --json output")
    _add_k5_option(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("polar-analyze", help="classify V = r^k U(theta) for k < 0")
    p.add_argument("--U", required=True, help="trig polynomial, e.g. '1 + 1/10*cos(2*theta)'")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--json", action="store_true")
    _add_k5_option(p)
    p.set_defaults(func=cmd_polar_analyze)

    p = sub.add_parser("darboux", help="locate and classify Darboux points")
    p.add_argument("potential")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_darboux)

    p = sub.add_parser("morales-check", help="exact table membership of (k, lambda)")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--lambda", dest="lam", required=True, help="rational, e.g. -37/11")
    p.add_argument("--json", action="store_true")
    _add_k5_option(p)
    p.set_defaults(func=cmd_morales_check)

    p = sub.add_parser("monodromy-period",
                       help="loop period of (t^2-1)^alpha, closed form vs quadrature")
    p.add_argument("--alpha", required=True, help="rational exponent, e.g. -1/2")
    p.add_argument("--j", required=True, type=int, help="winding count of the loop")
    p.add_argument("--quad-tol", type=float, default=1e-10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_monodromy_period)

    p = sub.add_parser("g-verdict",
                       help="commutativity checklist for the iterated-integral "
                            "monodromy at degree k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--level", "--l", dest="level", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_g_verdict)

    p = sub.add_parser("ve-build",
                       help="build the linearized variational system at the first "
                            "Darboux point")
    p.add_argument("potential")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None,
                   help="override the normal eigenvalue (rational)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ve_build)

    p = sub.add_parser("batch", help="analyze a directory of potential files")
    p.add_argument("directory")
    p.add_argument("--out", help="write the summary CSV here")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the --json output")
    _add_k5_option(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("dump-table", help="print the admissibility table data")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--json", action="store_true")
    _add_k5_option(p)
    p.set_defaults(func=cmd_dump_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "timing", False) and not args.json:
        parser.error(f"{args.command}: --timing requires --json")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
