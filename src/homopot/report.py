"""Analysis orchestration: the full Darboux/eigenvalue-table pipeline and
batch runs with machine-readable reports.

Each Darboux point's eigenvalue is decided by `morales.eigenvalue_verdict`;
this module aggregates those point verdicts with the multiplicity data.

Overall verdicts:

* non_integrable_by_morales_ramis - some Darboux point carries an
  eigenvalue outside the table, or a multiple Darboux point exists on a
  potential that is not rotation-invariant (uniqueness of the radial
  case), or V = r^k U(theta) has k < 0, k != -2 (the extremum theorem
  of `polar`).
* multiple_point_radial_candidate - the rotation-invariant potential:
  a continuum of multiple Darboux points, integrable via the angular
  momentum.
* indeterminate - some eigenvalue could not be pinned to a rational.
* passes_first_order_tests - every eigenvalue is admissible.

`polar_summary` is the `polar-analyze` view of a polar report.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import __version__
from .darboux import DarbouxSet, find_darboux_points
from .morales import (K5_PRINTED, ST_INADMISSIBLE, ST_INDETERMINATE, check_k5_variant,
                      eigenvalue_verdict)
from .parse import parse_potential
from .polar import PolarError, select_extremum
from .potential import (Potential, PotentialError, TrigPoly, potential_to_json,
                        potential_from_json)
from .scalars import GaussianRational, point_text

NON_INTEGRABLE = "non_integrable_by_morales_ramis"
PASSES = "passes_first_order_tests"
RADIAL_CANDIDATE = "multiple_point_radial_candidate"
INDETERMINATE = "indeterminate"

@dataclass
class AnalysisReport:
    input_text: str
    potential: Potential
    verdict: str
    darboux: DarbouxSet
    point_verdicts: list
    notes: list = field(default_factory=list)
    version: str = __version__
    elapsed_seconds: Optional[float] = None

    @property
    def n_points(self) -> int:
        return len(self.darboux.points)

    @property
    def n_multiple(self) -> int:
        return sum(1 for p in self.darboux.points if p.multiple)

    def to_json(self, include_timing: bool = False) -> dict:
        """The report as a JSON object; a number whose decimal form is
        beyond Python's int-to-str digit limit raises PotentialError."""
        try:
            out = {
                "input": self.input_text,
                "potential": potential_to_json(self.potential),
                "degree": self.potential.degree,
                "kind": self.potential.kind,
                "verdict": self.verdict,
                "darboux": self.darboux.to_json(),
                "points": [pv.to_json() for pv in self.point_verdicts],
                "multiplicity_summary": {
                    "n_points": self.n_points,
                    "n_multiple": self.n_multiple,
                    "continuum": self.darboux.continuum,
                },
                "notes": self.notes,
                "version": self.version,
            }
        except ValueError as exc:
            raise PotentialError(f"report has no JSON form: {exc}") from exc
        if include_timing and self.elapsed_seconds is not None:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out

    def to_text(self) -> str:
        """The report as text; like `to_json`, a number beyond the digit
        limit raises PotentialError."""
        try:
            lines = [f"potential: {self.input_text}",
                     f"kind: {self.potential.kind}, degree k = {self.potential.degree}",
                     f"darboux points: {self.n_points}"
                     + (" (continuum, one representative shown)" if self.darboux.continuum else ""),
                     f"multiple points: {self.n_multiple}"]
            for p, pv in zip(self.darboux.points, self.point_verdicts):
                lam = pv.lam if pv.lam is not None else p.spectrum[1]
                lines.append(f"  c = {point_text(p.c)}  lambda = {lam}"
                             f"  multiple = {p.multiple}  -> {pv.status}"
                             + (f" ({pv.reason})" if pv.reason else ""))
            for note in self.notes:
                lines.append(f"note: {note}")
            lines.append(f"verdict: {self.verdict}")
            return "\n".join(lines)
        except ValueError as exc:
            raise PotentialError(f"report has no text form: {exc}") from exc


def analyze(source, k5_variant: str = K5_PRINTED) -> AnalysisReport:
    """The full pipeline: parse, locate Darboux points, classify, test the
    table (or, for r^k U with k < 0, the extremum of U), aggregate."""
    started = time.perf_counter()
    check_k5_variant(k5_variant)
    if isinstance(source, Potential):
        V = source
        try:
            text = V.text()
        except ValueError as exc:  # Python's int-to-str digit limit
            raise PotentialError(f"potential has no text form: {exc}") from exc
    else:
        text = str(source)
        V = parse_potential(text)

    dset = find_darboux_points(V)
    notes = []
    if dset.degenerate_directions:
        notes.append(f"{len(dset.degenerate_directions)} degenerate direction(s) "
                     "with no finite Darboux point")
    point_verdicts = [eigenvalue_verdict(V.degree, p.spectrum[1], k5_variant)
                      for p in dset.points]

    is_radial = dset.continuum
    any_multiple = any(p.multiple for p in dset.points)
    any_inadmissible = any(pv.status == ST_INADMISSIBLE for pv in point_verdicts)
    any_indeterminate = any(pv.status == ST_INDETERMINATE for pv in point_verdicts)

    if is_radial and any_multiple:
        verdict = RADIAL_CANDIDATE
        notes.append("rotation-invariant potential: integrable (angular momentum)")
    elif any_inadmissible:
        verdict = NON_INTEGRABLE
    elif any_multiple and V.degree != -2:
        verdict = NON_INTEGRABLE
        notes.append("multiple Darboux point on a non-radial potential: only the "
                     "rotation-invariant potential admits one while integrable")
    elif V.U is not None and V.degree < 0 and V.degree != -2:
        # the extremum theorem of polar; U is not constant here, and
        # with no multiple point its extremum needs no root to be known simple
        verdict = NON_INTEGRABLE
        notes.append("no Darboux point is multiple, so the extremum of U is simple: "
                     "lambda < k there, and no table value lies below k")
    elif any_indeterminate:
        verdict = INDETERMINATE
    else:
        verdict = PASSES
        if not dset.points:
            notes.append("no Darboux points found: first-order tests are vacuous")

    return AnalysisReport(
        input_text=text, potential=V, verdict=verdict, darboux=dset,
        point_verdicts=point_verdicts, notes=notes,
        elapsed_seconds=time.perf_counter() - started)


_POLAR_NOTES = {
    "degree_minus_two_integrable": "every planar homogeneous potential of degree -2 "
                                   "is meromorphically integrable",
    "radial_integrable": "rotation-invariant potential; the angular momentum "
                         "is a first integral",
    "multiple_point_found": "U''(theta0) = 0: multiple Darboux point; only the "
                            "rotation-invariant potential is integrable with one",
    "non_integrable": "Hessian eigenvalue at the extremal Darboux point is not in the "
                      "admissibility table",
}


def polar_summary(U: TrigPoly, k: int, k5_variant: str = K5_PRINTED) -> dict:
    """The `polar-analyze` object for V = r^k U(theta) with k < 0: the
    verdict of `analyze` and its point at the extremum theta0 of U.

    An exact lambda, or that of a multiple point, comes with the point's
    table verdict; a float lambda at a simple point is reported as the
    point holds it, never as the report's rational reconstruction."""
    if k >= 0:
        raise PolarError("the polar classification applies to negative degrees only")
    rep = analyze(Potential.polar(U, k), k5_variant)
    if k == -2 or rep.verdict == RADIAL_CANDIDATE:
        kind = "degree_minus_two_integrable" if k == -2 else "radial_integrable"
        return {"classification": kind, "k": k, "note": _POLAR_NOTES[kind]}
    if rep.verdict != NON_INTEGRABLE:
        raise PolarError(f"analyze gave {rep.verdict} for r^{k} U, against the extremum theorem")
    theta0 = select_extremum(U).theta

    def off_theta0(pair):  # for k < 0, Re gamma > 0, so Re c points along the ray
        c0, c1 = (complex(v).real for v in pair[0].c)
        return abs((math.atan2(c1, c0) - theta0 + math.pi) % (2 * math.pi) - math.pi)

    p, pv = min(zip(rep.darboux.points, rep.point_verdicts), key=off_theta0)
    kind = "multiple_point_found" if p.multiple else "non_integrable"
    out = {"classification": kind, "k": k, "note": _POLAR_NOTES[kind], "theta0": theta0}
    if not (p.multiple or isinstance(p.spectrum[1], GaussianRational)):
        return {**out, "lambda": p.spectrum[1], "lambda_exact": False}
    point = pv.to_json()
    if p.multiple:
        point.pop("morales", None)  # the theorem decides a multiple point, not the table
    return {**out, **{key: point[key] for key in ("lambda", "lambda_exact", "morales")
                      if key in point}}


# -- batch runs ---------------------------------------------------------------


@dataclass
class BatchResult:
    reports: list                    # (filename, AnalysisReport)
    errors: list                     # (filename, message)
    summary_rows: list               # (file, k, n_points, n_multiple, verdict)

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def summary_csv(self) -> str:
        lines = ["file,k,n_points,n_multiple,verdict"]
        for row in self.summary_rows:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def _read_potential_file(path: Path) -> Potential:
    text = path.read_text().strip()
    if path.suffix == ".json":
        return potential_from_json(json.loads(text))
    return parse_potential(text)


def _analyze_file(path: Path, k5_variant: str):
    try:
        return path.name, analyze(_read_potential_file(path), k5_variant), None
    except (ValueError, OSError) as exc:
        return path.name, None, exc


def batch(directory, k5_variant: str = K5_PRINTED) -> BatchResult:
    """Analyze every potential file in a directory, in filename order, one
    after another."""
    check_k5_variant(k5_variant)
    base = Path(directory)
    if not base.is_dir():
        raise NotADirectoryError(str(base))
    files = [p for p in sorted(base.iterdir(), key=lambda p: p.name)
             if not p.is_dir() and not p.name.startswith(".")]
    reports, errors, rows = [], [], []
    for name, rep, exc in (_analyze_file(p, k5_variant) for p in files):
        if exc is not None:
            errors.append((name, str(exc)))
            rows.append((name, "", "", "", f"error: {exc.__class__.__name__}"))
            continue
        reports.append((name, rep))
        rows.append((name, rep.potential.degree, rep.n_points,
                     rep.n_multiple, rep.verdict))
    return BatchResult(reports=reports, errors=errors, summary_rows=rows)


def report_json_text(report: AnalysisReport, include_timing: bool = False) -> str:
    """Canonical byte-stable JSON rendering."""
    return json.dumps(report.to_json(include_timing=include_timing),
                      indent=2, sort_keys=True) + "\n"
