"""Numerical min-max representations of monotone local and nonlocal operators.

The package builds the full pipeline: dyadic grids and cube covers,
smooth extension of node data, exact normal-form splitting of comparison
stencils into diffusion/drift/jump pieces, generalized-derivative probes
of nonsmooth operators, and a zoo of reference operators with a CLI.
"""

from .grid import (
    DyadicGrid,
    GridError,
    GridFunction,
    RegularityClass,
    SmoothFn,
    restrict,
    translate,
)
from .special import CutoffPair, SClassFn, phi0, taylor_cutoff
from .cubes import CubeCover, WhitneyCube, base_family, uncovered_volume
from .calculus import ConvergenceStudy, dgrad, dhess, fit_order
from .whitney import ExtendedFn, extend, project
from .levy import (
    LevyError,
    LevyMeasure,
    LevyOperator,
    evaluate,
    tv_distance,
)
from .courrege import (
    CourregeDecomposition,
    CourregeError,
    RowFunctional,
    decompose,
    reconstruct_residual,
)
from .clarke import (
    ClarkeError,
    ClarkeSet,
    coefficient_fields,
    jacobian_at,
    mean_value_residual,
    minmax_eval,
    representation_residual,
    sample_differential,
    segment_differential,
)
from .approx import (
    ApproxError,
    DiscreteSurrogate,
    build_surrogate,
    convergence_study,
    probe_lipschitz,
    probe_shift_regularity,
    probe_tightness,
)
from .operators import (
    OperatorError,
    StencilOperator,
    StripProblem,
    bellman,
    boundary_derivative,
    dtn_apply,
    dtn_kernel,
    dtn_solve,
    fractional_laplacian,
    isaacs,
    levy_stencil,
    ma_infimum,
    monge_ampere,
    pucci,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxError",
    "ClarkeError",
    "ClarkeSet",
    "ConvergenceStudy",
    "CourregeDecomposition",
    "CourregeError",
    "CubeCover",
    "CutoffPair",
    "DiscreteSurrogate",
    "DyadicGrid",
    "ExtendedFn",
    "GridError",
    "GridFunction",
    "LevyError",
    "LevyMeasure",
    "LevyOperator",
    "OperatorError",
    "RegularityClass",
    "RowFunctional",
    "SClassFn",
    "SmoothFn",
    "StencilOperator",
    "StripProblem",
    "WhitneyCube",
    "base_family",
    "bellman",
    "boundary_derivative",
    "build_surrogate",
    "coefficient_fields",
    "convergence_study",
    "decompose",
    "dgrad",
    "dhess",
    "dtn_apply",
    "dtn_kernel",
    "dtn_solve",
    "evaluate",
    "extend",
    "fit_order",
    "fractional_laplacian",
    "isaacs",
    "jacobian_at",
    "levy_stencil",
    "ma_infimum",
    "mean_value_residual",
    "minmax_eval",
    "monge_ampere",
    "phi0",
    "probe_lipschitz",
    "probe_shift_regularity",
    "probe_tightness",
    "project",
    "pucci",
    "reconstruct_residual",
    "representation_residual",
    "restrict",
    "sample_differential",
    "segment_differential",
    "taylor_cutoff",
    "translate",
    "tv_distance",
    "uncovered_volume",
]
