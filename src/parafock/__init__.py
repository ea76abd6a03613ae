"""Numerical engine for the paraboson Fock representation of osp(1|4).

The package builds the truncated two-mode paraboson Fock space on its
Gelfand-Zetlin pattern basis, realizes the generators as sparse matrices,
and verifies the closed-form structures living on top of them: lowering
kernels, ladder families, coherent and cat eigenstates, bicoherent joint
eigenstates, and the Bessel-measure resolutions of the identity.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .algebra import (
    GENERATOR_NAMES,
    RelationDeviation,
    SparseOperator,
    TripleReport,
    adjointness_deviation,
    build_generator,
    pair_anticommutator_deviation,
    structure_f,
    t1_inverse_apply,
    verify_triple_relations,
)
from .coherent import (
    BicoherentState,
    CoherentState,
    TruncationError,
    b2_element,
    b2_element_oracle,
    bicoherent,
    build_coherent,
    cat_state,
    coherent_norm,
    coherent_norm_series,
    coherent_overlap,
    eigen_residual,
    to_fock_vector,
)
from .fockspace import (
    FockBasis,
    FockVector,
    enumerate_basis,
    even_ind,
    odd_ind,
    weight_of,
)
from .resolution import (
    MomentReport,
    QuadratureGrid,
    RadialMeasure,
    ResolutionReport,
    diagonal_moment_form,
    measure,
    radial_grid,
    resolution_identity_check,
    stieltjes_closed_form,
    stieltjes_moment,
    stieltjes_moment_check,
)
from .specfun import (
    SeriesResult,
    bessel_i,
    bessel_k,
    bessel_k_oracle,
    besseli_values,
    besselk_values,
    hyp0f1,
)
from .verify import ALL_CHECKS, P_GRID, CheckResult, run_all
from .zeromodes import (
    b2sq_shift,
    kernel_oracle,
    ladder_family,
    ladder_normalization,
    ladder_step,
    zero_mode_coeffs,
    zero_mode_vector,
)

# every public name imported above, so the API is listed once
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
