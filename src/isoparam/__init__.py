"""Isoparametric hypersurface geometry of complex hyperbolic space.

Kahler-angle invariants of real subspaces, the solvable group model of
CH^n with its ruled minimal submanifolds, Jacobi-field tube calculus,
Lorentzian lifts to the anti-De Sitter quadric with their Jordan-type
classification, and the congruence classification of isoparametric
families.
"""

from .classifier import (
    ClassificationReport,
    ConstraintCheck,
    ProfileFamily,
    TypeConstraintReport,
    cartan_residual,
    check_type_constraints,
    classify,
    enumerate_profiles,
    inside_cartan_phi,
)
from .errors import (
    ConstraintViolation,
    DimensionMismatch,
    DuplicateEigenvalue,
    FocalRadius,
    InvalidCodimension,
    InvalidK,
    IsoparamError,
    NondiagnosableOperator,
    NotNormal,
    NotTangent,
    ParityViolation,
    PoleAtP,
    VectorNotInSubspace,
    WNotProper,
)
from .hopf_lift import (
    LiftedShapeData,
    classify_lift,
    hopf_lift_data,
    lift_shape_operator,
    project_spectrum,
    tube_lift_data,
)
from .indefinite_linalg import JordanClassification, classify_jordan
from .kahler_angle import (
    KahlerProfile,
    RealSubspace,
    apply_J,
    complement,
    complex_structure,
    congruence_invariant,
    congruent,
    kahler_profile,
    pf_split,
    random_subspace,
    subspace_from_blocks,
    unitary_conjugate,
)
from .solvable_model import (
    ANPoint,
    ANVector,
    SubmanifoldW,
    an_J,
    an_inner,
    an_norm,
    bracket,
    build_w,
    contains_point,
    curvature_tensor,
    fundamental_equation_residuals,
    group_product,
    horocycle_point,
    levi_civita,
    second_fundamental_form,
    shape_operator,
)
from .tube_geometry import (
    TubeSpec,
    TubeSpectrum,
    jacobi_scalars,
    lohnherr_spectrum,
    normal_kahler_angle,
    numeric_shape_operator,
    parallel_data,
    spectrum_from_pairs,
    standard_spectrum,
    tube_char_poly,
    tube_char_roots,
    tube_mean_curvature,
    tube_spectrum_at,
)
from .verification import SUITES, RunConfig, verify_suites

__version__ = "0.1.0"
