"""Convex minorants of multi-index sequences and log-convex regularization.

The library computes, for real data a_alpha indexed by a d-dimensional box of
multi-indices, the largest convex sequence below it (the pointwise supremum of
affine minorants), together with supporting-plane certificates; on the
exponential scale this is log-convex regularization M -> exp((log M)^c).  On
top of that sit the associated weight function omega_M, a supremum check that
characterizes log-convexity, and verifiers for relations between weight
matrices and structural conditions on a single matrix.
"""
import types

from .assoc import (AssociatedFunction, LogConvexityReport, LogConvexMinorant,
                    OmegaEval, SGridSpec, check_log_convexity,
                    log_convex_minorant, omega, q3_supremum, q3_supremum_log)
from .core import (EXP, LOG, Columns, GrowthDiagnostic, SequenceGrid, Violation,
                   as_log_grid, boundary_infinities, growth_check, to_exp,
                   to_log, validate_grid)
from .envelope import (KGridSpec, MinorantResult, StabilityReport, audit_minorant,
                       axis_slope_range, boundary_restriction, minorant_lp,
                       stability_probe)
from .envelope1d import NewtonPolygon, PolygonSegment, evaluate, sweep
from .errors import (DimensionMismatch, EmptyKGrid, EmptySGrid, EmptyShell,
                     GridMismatch, GridValidationError, LevelNotFound, LogcvxError,
                     NotNormalized, NumericBreakdown, OutOfRange, ScaleMismatch,
                     SchemaError, WitnessError)
from .generators import (SplitMix64, convex_random_grid, factorial_grid,
                         log_convex_random_1d, notconvex_grid, random_grid)
from .io import (fmt_float, read_condition_witness, read_grid, read_matrix,
                 read_relation_witness, read_report, to_jsonable,
                 write_condition_witness, write_grid, write_matrix,
                 write_relation_witness, write_report)
from .matrices import (BEURLING, CONDITIONS, RELATION_KINDS, ROUMIEU,
                       TRIANGLE, ConditionEntry, ConditionReport,
                       ConditionWitness, RelationEntry, RelationReport,
                       RelationWitness, SearchOutcome, SlackRecord,
                       WeightMatrix, l37r_counterexample_curve,
                       l37r_counterexample_matrix, search_relation,
                       verify_condition, verify_relation)

__version__ = "0.1.0"

# every name imported above; the submodules themselves are not exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
