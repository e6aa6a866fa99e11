"""Integrability analysis of planar homogeneous potentials.

Locate Darboux points, test Hessian eigenvalues against the
admissibility table, evaluate monodromy period obstructions, and build
the linearized higher variational equations along homothetic orbits.
"""

# Defined before the submodule imports, because report reads it.
__version__ = "0.1.0"

from .parse import ParseError, parse_potential, parse_trig_poly, print_potential
from .potential import (HomoPoly, Potential, PotentialError, SingularPointError,
                        TrigPoly, euler_defect, jet_at, transform)
from .darboux import (DarbouxError, DarbouxPoint, DarbouxSet, classify,
                      direction_polynomial, find_darboux_points, normalize)
from .morales import MoralesVerdict, TableRow, admissible, reconstruct_rational, table_rows
from .monodromy import (CommutativityClass, LoopSpec, PeriodValue,
                        commutativity_class, det_A, g_verdict,
                        period_closed_form, period_quadrature)
from .varequ import (VariationalSystem, VeExpr, build_higher_ve, monomial_basis,
                     sym_power_ve1, ve1_residual)
from .polar import critical_points, select_extremum
from .report import AnalysisReport, analyze, batch, polar_summary

__all__ = [
    "AnalysisReport", "CommutativityClass", "DarbouxError",
    "DarbouxPoint", "DarbouxSet", "HomoPoly", "LoopSpec", "MoralesVerdict",
    "ParseError", "PeriodValue", "Potential", "PotentialError",
    "SingularPointError", "TableRow", "TrigPoly", "VariationalSystem",
    "VeExpr", "admissible", "analyze", "batch", "build_higher_ve", "classify",
    "commutativity_class", "det_A", "direction_polynomial", "euler_defect",
    "find_darboux_points", "g_verdict", "jet_at", "monomial_basis",
    "normalize", "parse_potential", "parse_trig_poly", "period_closed_form",
    "period_quadrature", "polar_summary", "print_potential", "reconstruct_rational",
    "select_extremum", "sym_power_ve1", "table_rows", "transform",
    "ve1_residual", "critical_points",
]
