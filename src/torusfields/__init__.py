"""Exact symbolic-numeric toolkit for polynomial vector fields on the torus
(x^2 + y^2 - a^2)^2 + z^2 = 1 with a > 1.

Exact arithmetic lives in Q(sqrt(m)) with m = a^2; invariance, cofactors,
family recognition and invariant-curve inventories are computed with exact
polynomial division, while periodicity scans, singular-point refinement and
trajectory integration run on one float evaluator: each polynomial is
compiled once to a generated straight-line python function.
"""

__version__ = "0.1.0"

from .scalars import MixedExtensionError, Scalar
from .poly import (MalformedDivisor, MultiPoly, NotDivisible, UniPoly, X, Y,
                   Z, divide_exact, divide_exact_z, restrict_to_line)
from .roots import dense_scan_roots, real_roots
from .parsing import ParseError, parse, serialize
from .vfield import (CofactorResult, RationalFn, TorusSurface, UnsupportedShape,
                     VectorField, apply, check_first_integral,
                     cofactor_on_torus, invariant_surface_cofactor,
                     lie_bracket, torus_polynomial)
from .families import (CubicParams, DegreeOneParams, DegreeViolation, Family,
                       FamilyTag, KolmogorovParams, NoKnownIntegral,
                       PseudoTypeParams, QuadraticParams, TwoParallelParams,
                       build_cubic, build_kolmogorov, build_pseudo_type,
                       build_quadratic, build_two_parallel,
                       canonical_first_integrals, recognize,
                       verified_first_integrals)
from .curves import (MeridianPlane, MeridianSet, ParallelPlane, ParallelSet,
                     check_four_meridian_criterion, extactic_xy,
                     invariant_meridians, invariant_parallels,
                     linear_xy_factors)
from .dynamics import (ChartError, CylindricalField, GridResolutionWarning,
                       MeridianVerdict, PeriodicityVerdict, SingClass,
                       SingKind, SingularSet, Verdict, chart_gradient,
                       chart_trace, classify_singularity, cylindrical_form,
                       grid_min_speed, meridian_periodicity,
                       parallel_periodicity, singular_points)
from .integrate import (StepOverflow, Trajectory, export, integrate,
                        trajectory_from_json)
from .report import build_report, report_json

__all__ = [name for name in dir() if not name.startswith("_")]
