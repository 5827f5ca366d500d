"""Discrete critical points of a Gagliardo-type double-sum energy for
sphere-valued lattice fields, with the spectral fractional operators,
pairing identities, and inequality probes used to cross-check the
computation."""

import os

# One BLAS thread per process, set before anything loads numpy. fracmap's
# BLAS calls are matrix-vector sized and every pair pass is serial, yet
# numpy's bundled OpenBLAS starts a worker thread that busy-waits: on a
# 2-vCPU x86 machine a fresh `import fracmap.cli` took 0.24 s of CPU with
# it and 0.17 s without (medians of 21). An outside OPENBLAS_NUM_THREADS
# is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .energy import (
    EnergyParams,
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
    make_grid,
    site_coords,
    torus_dist,
)
from .lab import (
    DecayTable,
    ProbeReport,
    decay_profile,
    lagrange_check,
    run_probe,
    sobolev_exponent,
)
from .solver import SolveReport, SolverConfig, el_residual_suite, minimize, project_sphere, tangent_project

__version__ = "0.1.0"
