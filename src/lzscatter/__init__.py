"""Exact and numerical scattering matrices for multistate linear-sweep models."""

from .models import (
    FAMILIES,
    AffineModel,
    MissingPartnerError,
    SingularPartnerError,
    UnknownFamilyError,
    build_model,
    lift,
    model_from_descriptor,
)
from .numerics import (
    IntegrationDivergedError,
    NonHermitianError,
    OdeSettings,
    commutator,
    hermitian_eigs,
    propagate_unitary,
    unitarity_defect,
)
from .laxflow import (
    BlochVector,
    NegativeProbabilityError,
    asymptotic_v3,
    evolve_lax,
    first_row_element,
    lz_closed_form,
    smatrix_spin,
    stochastic_defect,
)
from .crossings import (
    CrossingEvent,
    UnsupportedCrossingError,
    compose,
    derive_schedule_generic,
    local_smatrix,
    path_counts,
    schedule_bowtie3,
    schedule_bowtieN,
    schedule_json,
    schedule_su3six,
)
from .zerocurv import CurvatureReport, curvature_residual, curvature_terms, verify_pair
from .oracle import (
    OracleResult,
    adiabatic_spectrum,
    numeric_smatrix,
    propagate,
)

__version__ = "0.1.0"
