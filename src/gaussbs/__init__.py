"""Entanglement of Gaussian states mixed on a beam splitter.

Core covariance toolkit, logarithmic-negativity measures with critical
thermal-noise thresholds, the equivalent single-mode noise channels, an
independent truncated Fock-space verification engine, and a sweep CLI.
"""

from .states import (
    BOUNDARY_TOL,
    BeamSplitter,
    CovMat1,
    CovMat2,
    DomainError,
    GaussianSpec,
    ThermalParams,
    apply_beam_splitter,
    covariance_from_spec,
    from_quadrature,
    nonclassical_depth,
    purity,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_covariance,
    thermal_occupation,
    to_quadrature,
)
from .entanglement import (
    CriticalNoise,
    OptimalAngle,
    ScenarioParams,
    SymplecticPTSpectrum,
    closed_form_terms,
    critical_noise,
    critical_noise_5050,
    critical_noise_near_optimal,
    log_negativity,
    negativity_5050,
    negativity_closed_form,
    optimal_angle,
    output_covariance,
    pt_symplectic_spectrum,
)
from .channels import (
    GaussianChannel,
    GaussianNoiseParams,
    add_gaussian_noise,
    classicality_threshold,
    preparation_channel,
    thermal_substitution,
)
from .fock import (
    OracleComparison,
    OracleConfig,
    compare_with_gaussian,
    fock_squeezed_thermal,
)

__version__ = "0.1.0"
