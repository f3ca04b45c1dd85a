"""Exact exterior algebra and the geometry of the seven-dimensional cross product.

The package has four layers:

* exterior core: :class:`ExteriorForm` (sparse alternating forms over exact
  scalars), polynomial-coefficient forms with an exact exterior derivative,
  and the small exact linear algebra behind signatures and ranks;
* the cross-product algebra on R^7: the calibration 3-form, the membership
  test for its stabilizer, and adapted frames built from admissible triples;
* the coframe differential algebra encoding the structure equations, with
  machine checks of d^2 = 0, the invariant-form identities, and the
  distinguished Frobenius system;
* pointwise geometry on the six-sphere and the transition invariants (r, s)
  of an almost-complex structure against the reference one, including the
  determinant residual whose vanishing is necessary for integrability, the
  signature dichotomy, 3-form orbit classification, and the primitive
  decomposition of d(omega) with the elliptic-definite verdict.

All core identities are exact over the rationals; float mode exists for
sampling sweeps and is never mixed silently with exact data.
"""

from .scalars import (
    ANY,
    EXACT,
    FLOAT,
    ComplexRational,
    I_EXACT,
    MixedModeError,
)
from .forms import (
    DegreeError,
    DependentBasisError,
    DimensionMismatchError,
    ExteriorForm,
    InvalidIndexError,
    evaluate,
    form_defect,
    interior,
    pullback,
    wedge,
)
from .polyforms import DegreeCapError, Poly, PolyCoefForm, ext_d, position_field
from .linalg import DegenerateFormError
from .g2 import (
    AdaptedFrame,
    FrameConstructionError,
    adapted_frame,
    associative_three_form,
    cross,
    dot,
    frame_rotate,
    g2_defect,
    is_g2,
    standard_frame,
)
from .dga import CoframeDGA, DgaElement
from .sphere import (
    NotTangentError,
    SpherePoint,
    basis_point,
    nijenhuis_chart,
    nijenhuis_closed_form,
    nijenhuis_sphere,
    omega_at,
    phi_tangential,
    standard_j,
    upsilon_at,
    verify_domega_pointwise,
)
from .compat import (
    IncompatiblePairError,
    NotComplexStructureError,
    compatibility_space_dims,
    induced_metric,
    is_compatible_omega,
    omega_index,
    standard_complex_structure,
    standard_symplectic_matrix,
)
from .threeforms import (
    ComplexFormError,
    FloatRangeError,
    ThreeFormClass,
    classify_3form,
    elliptic_normal_form,
    recover_upsilon,
    split_normal_form,
    standard_volume_form,
)
from .almost_symplectic import (
    EllipticDefiniteReport,
    PrimitiveDecomposition,
    PrimitivityError,
    elliptic_definite_check,
    primitive_decompose,
)
from .chern import (
    CandidateJ,
    ChernCheckError,
    ChernData,
    TheoremContradictionError,
    canonical_eta_basis,
    compute_rs,
    equivariance_check,
    index_from_h,
    omega_type_components,
    random_residual_zero_data,
    signature_dichotomy_sweep,
    upsilon_type_extremes,
)

__version__ = "0.1.0"
