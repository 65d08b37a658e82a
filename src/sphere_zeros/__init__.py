"""Common zeros of Laplace eigenfunctions on S1 and S2.

Numerical verification, at desk scale, of the exact pointwise identities of
orthonormal eigenbases, the closed-form average number of common zeros over
random subspaces, the Bezout ceiling on zero counts, integral-geometric
length estimation, and the tilted axis-symmetric pair construction.
"""

__version__ = "0.1.0"

from .embedding import (
    EmbeddingReport,
    UnexpectedFiberError,
    covering_degree,
    dilation_check,
    image_volume,
    radius_check,
)
from .harmonics import (
    HarmonicBasis,
    SphereInputError,
    build_basis,
    eval_basis_many,
    eval_gradient_many,
    laplacian_residual,
    zonal,
)
from .integralgeom import (
    AverageReport,
    LengthReport,
    average_zero_count,
    conjecture_mixed_average,
    crofton_length,
    sample_subspace,
    sphere_surface_area,
    zonal_pair_demo,
    zonal_tilt_threshold,
)
from .zerofinder import (
    DegenerateRestrictionError,
    RankDeficientError,
    SolverStatus,
    SubspaceSample,
    ZeroFindingResult,
    find_common_zeros_s1,
    find_common_zeros_s2,
    make_sample,
    restrict_to_great_circle,
    verify_bezout,
)

__all__ = [
    "AverageReport",
    "DegenerateRestrictionError",
    "EmbeddingReport",
    "HarmonicBasis",
    "LengthReport",
    "RankDeficientError",
    "SolverStatus",
    "SphereInputError",
    "SubspaceSample",
    "UnexpectedFiberError",
    "ZeroFindingResult",
    "average_zero_count",
    "build_basis",
    "conjecture_mixed_average",
    "covering_degree",
    "crofton_length",
    "dilation_check",
    "eval_basis_many",
    "eval_gradient_many",
    "find_common_zeros_s1",
    "find_common_zeros_s2",
    "image_volume",
    "laplacian_residual",
    "make_sample",
    "radius_check",
    "restrict_to_great_circle",
    "sample_subspace",
    "sphere_surface_area",
    "verify_bezout",
    "zonal",
    "zonal_pair_demo",
    "zonal_tilt_threshold",
]
