"""Pseudospectral Navier-Stokes toolkit on a periodic box.

Core layers: spectral grid operators (Leray projection, heat semigroup),
dyadic frequency analysis and Besov-type norms, dilation/translation
orthogonality functionals, a mild-solution solver with perturbation support,
profile synthesis with remainder tracking, and resolution-limited blow-up
monitors.
"""

__version__ = "0.1.0"

from .grid import (
    Grid,
    RealVectorField,
    heat_semigroup,
    leray_project,
)
from .norms import (
    BesovIndex,
    besov_norm,
    chemin_lerner_norm,
    critical_exponent,
    e_norm,
    heat_besov_norm,
    lebesgue_norm,
    serrin_norm,
)
from .scaling import (
    OrthogonalityVerdict,
    ScaleCore,
    ScaleCoreSequence,
    apply_lambda,
    apply_lambda_spacetime,
    cross_term,
    norm_additivity_defect,
    orthogonality_check,
)
from .solver import (
    PerturbationProblem,
    SolverConfig,
    Trajectory,
    evolve,
    evolve_perturbed,
    nonlinear_term,
    q_bilinear,
    verify_perturbation_bound,
)

__all__ = [
    "Grid",
    "RealVectorField",
    "leray_project",
    "heat_semigroup",
    "BesovIndex",
    "critical_exponent",
    "lebesgue_norm",
    "besov_norm",
    "chemin_lerner_norm",
    "e_norm",
    "heat_besov_norm",
    "serrin_norm",
    "ScaleCore",
    "ScaleCoreSequence",
    "OrthogonalityVerdict",
    "apply_lambda",
    "apply_lambda_spacetime",
    "cross_term",
    "norm_additivity_defect",
    "orthogonality_check",
    "SolverConfig",
    "Trajectory",
    "PerturbationProblem",
    "evolve",
    "evolve_perturbed",
    "nonlinear_term",
    "q_bilinear",
    "verify_perturbation_bound",
    "__version__",
]
