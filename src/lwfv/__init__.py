"""Finite-volume weak-consistency toolkit.

Builds polyhedral meshes with dual volumes, discrete gradients and
translation seminorms on them, explicit finite-volume solves of scalar
conservation laws, and the residual decomposition showing that refined
scheme solutions can only converge to weak solutions.
"""
from .consistency import (
    ConsistencyReport,
    ResidualDecomposition,
    effective_c_phi,
    lw_study,
    residual_envelope_check,
    spacetime_translation_seminorm,
    weak_gap,
)
from .flux import (
    FluxFunction,
    NumericalFlux,
    burgers,
    check_flux_contract,
    linear_advection,
    muscl_three_point,
    rusanov,
    upwind_linear,
)
from .mesh import (
    GeometryError,
    Mesh,
    MeshError,
    MeshFamily,
    MeshQuality,
    RegularityError,
    build_cartesian_2d,
    build_nonuniform_1d,
    build_perturbed_triangular_2d,
    build_uniform_1d,
    cartesian_2d_family,
    compute_quality,
    nonuniform_1d_family,
    perturbed_triangular_2d_family,
    read_mesh,
    refine,
    uniform_1d_family,
    validate,
    write_mesh,
)
from .operators import (
    InvariantViolation,
    SmoothTestFunction,
    TimeGrid,
    VectorTestFunction,
    bump_corpus_spacetime,
    bump_corpus_spatial,
    discrete_gradient,
    gradient_weakstar_study,
    polynomial_bump,
    sup_bound_check,
    vector_corpus,
    weak_pairing,
)
from .solver import (
    BlowUpError,
    Problem,
    SpaceTimeField,
    Stepper,
    select_dt,
    solve,
)
from .translations import (
    IntegrableFunction,
    interval_indicator,
    project_l1,
    smooth_function,
    translation_decay_study,
    translation_seminorm,
    uniform_decay_study,
)

__version__ = "0.1.0"
