"""Discrete critical points of a Gagliardo-type double-sum energy for
sphere-valued lattice fields, with the spectral fractional operators,
pairing identities, and inequality probes used to cross-check the
computation."""

from .energy import (
    EnergyParams,
    PairKernelCache,
    duality_check,
    el_residual,
    energy_gradient,
    first_variation,
    holefill_check,
    riesz_pairing_constant,
    seminorm,
    t_operator,
)
from .fracops import (
    LPBank,
    build_lp_bank,
    commutator_H,
    frac_laplacian,
    lp_project,
    lp_sup_bound_probe,
    riesz_potential,
)
from .grid import (
    BallHierarchy,
    GridSpec,
    ScalarField,
    VectorField,
    ball_mask,
    ball_mean,
    make_grid,
    site_coords,
    torus_dist,
)
from .lab import (
    DecayTable,
    ProbeReport,
    decay_profile,
    holder_fit,
    kernel_case_check,
    lagrange_check,
    run_probe,
    sobolev_exponent,
)
from .solver import SolveReport, SolverConfig, el_residual_suite, minimize, project_sphere, tangent_project

__version__ = "0.1.0"
