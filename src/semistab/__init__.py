"""Stability classification for pointwise operator families on discretized
vector-valued function spaces: uniform, strong, and almost weak stability of
the induced multiplication semigroups, plus the discrete-time analogues for
powers of a multiplication operator."""

from .measure import (
    ATOMIC,
    REFINEMENT_FAMILY,
    DiscretizedMeasureSpace,
    ess_sup,
)
from .linalg import (
    as_matrix,
    cesaro_mean,
    eigenvalues,
    ergodic_projection,
    expm,
    norm2,
    spectral_bound,
    spectral_radius,
)
from .semigroup import (
    BochnerFunction,
    PointwiseFamily,
    apply,
    identity_sample,
    lp_norm,
    random_probes,
    refine_family,
    time_grid,
    trajectory,
)
from .report import (
    INCONCLUSIVE,
    MODE_ATOMIC,
    MODE_NONATOMIC_LIMIT,
    NOT_STABLE,
    STABLE,
    AlmostWeakResult,
    Cluster,
    DiscreteReport,
    StabilityReport,
    StrongResult,
    UniformResult,
    Witness,
)
from .stability import (
    build_report,
    certify_bounded,
    cesaro_verify,
    classify_almost_weak,
    classify_strong,
    classify_uniform,
    imaginary_point_spectrum,
)
from .discrete import (
    build_discrete_report,
    classify_discrete_almost_weak,
    classify_discrete_strong,
    classify_discrete_uniform,
    power_bounded_estimate,
    unimodular_point_spectrum,
)
from .cases import (
    diagonal_family,
    random_hurwitz_family,
    rotation_family,
    zabczyk_family,
)
from . import errors

__version__ = "0.1.0"
