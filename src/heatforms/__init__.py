"""Heat kernels for 0-, 1-, and 2-forms on the Euclidean plane, the unit
sphere, and the hyperbolic plane, with image-sum assembly on their quotients.

The three base surfaces are the simply connected constant-curvature models
with curvature 0, +1, and -1.  Kernels come back with error estimates and
truncation diagnostics; every noncompact integral is truncated against an
explicit decay envelope rather than a silent cutoff.  The verify module
cross-checks independent computation routes against each other.
"""

from . import verify
from .errors import (CoincidentPointsError, CutLocusError, DecayHintError,
                     DomainError, EnumerationOverflowError, HeatformsError,
                     KindMismatchError, NonconvergenceError,
                     UnsupportedGroupError)
from .geometry import (CUT_LOCUS_TOL, BiTensor1, OneFormValue, Point,
                       SurfaceKind, apply_i_plus_star, distance,
                       distance_gradient, hodge_star_1, integrate_surface,
                       mixed_distance_hessian)
from .kernels import (T_MIN, FormField, HeatTime, Kernel0Value, Kernel1Value,
                      apply_k0, apply_k1, g1_scalar, heat_residual, k0,
                      k0_h2_mckean, k1, k2)
from .quadrature import (DEFAULT_BUDGET, DecayHint, ToleranceBudget,
                         gaussian_tail_radius)
from .quotient import (CoveringGroupSpec, GroupElement, QuotientSurface, act,
                       enumerate_elements, k0_quotient, k1_quotient_flat,
                       torus_fourier_oracle)
from .specfun import (RadialProfile, SpectralParameter, conical_p, conical_p1,
                      mehler_fock_forward, mehler_fock_inverse)
from .verify import PROFILES, SUITE_NAMES, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "HeatformsError", "DomainError", "KindMismatchError",
    "CoincidentPointsError", "CutLocusError", "DecayHintError",
    "UnsupportedGroupError", "EnumerationOverflowError",
    "NonconvergenceError",
    "SurfaceKind", "Point", "OneFormValue", "BiTensor1", "CUT_LOCUS_TOL",
    "distance", "distance_gradient", "mixed_distance_hessian",
    "hodge_star_1", "apply_i_plus_star", "integrate_surface",
    "ToleranceBudget", "DEFAULT_BUDGET", "DecayHint", "gaussian_tail_radius",
    "T_MIN", "HeatTime", "Kernel0Value", "Kernel1Value", "FormField",
    "k0", "k0_h2_mckean", "g1_scalar", "k1", "k2",
    "apply_k0", "apply_k1", "heat_residual",
    "SpectralParameter", "RadialProfile", "conical_p", "conical_p1",
    "mehler_fock_forward", "mehler_fock_inverse",
    "CoveringGroupSpec", "GroupElement", "QuotientSurface", "act",
    "enumerate_elements", "k0_quotient", "k1_quotient_flat",
    "torus_fourier_oracle",
    "CheckResult", "SUITE_NAMES", "run_suite", "PROFILES", "verify",
    "__version__",
]
