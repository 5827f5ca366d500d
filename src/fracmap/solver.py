"""Sphere-constrained descent for the nonlocal energy.

The iteration is projected, preconditioned descent with a backtracking
line search. The pair weights depend only on x - y, so the kernel is
circulant and its discrete Fourier symbol

    m(k) = 2p (w^(0) - w^(k)),   w^ = rfftn of the length-S lag kernel w,

is 2p times the symbol D that the spectral passes of energy read from the
same cache, built once per process; at p = 2 it is the exact Hessian
symbol of the energy. With P = m + m_1 (m_1 the smallest positive m) and
g_T the tangential gradient at the current unit field u, the step is

    d = P_T(P^{-1} g_T),   u_next = normalize(u - tau d),

where P^{-1} is grid.fourier_multiply with the symbol 1 / P and P_T the
projection onto the tangent space. The first trial step is tau = STEP0,
and a step is accepted when E(u_next) - E(u) <= -ARMIJO_C tau (g_T . d); a
rejected step is shortened by the factor ARMIJO_SHRINK. Preconditioning by
an H^s-type metric (as in Alouges' projection method and its fractional
versions) makes the iteration count nearly independent of M: the
criterion-5 winding at s = 1/2, p = 2 converges in 56, 47, 44 and 40 steps
at M = 32 ... 256, where plain steepest descent took 445 ... 2673. For p != 2 the same
formula is used; it does not depend on u (a symbol rebuilt from the
current |du|^{p-2} did worse in every case tried). The stop rule does not
see the preconditioner: it tests the plain norm |g_T| against grad_tol,
and max_iters caps the iterations; these two are the only settings. The
step grows back by the factor GROWBACK after every accepted step, so the
search adapts in both directions.

Renormalization is the radial retraction onto the sphere. The solver
never asserts the winding class of one-dimensional data. The degree is a
continuous function on the energy space only where s p >= n (the maps are
then VMO), and below that a descent can unwind: at s = 0.3, p = 2 the
criterion-5 winding at M = 64 ends at degree 0 under this descent and
under plain steepest descent alike (at s = 0.3, p = 3 both keep degree 1).

Every Armijo test is decided by energy.energy_change, which forms
E(u_next) - E(u) from the differences u_next - u and u_next + u, free of
the cancellation between two rounded totals: near convergence the
decrease falls far below the rounding of E itself. energy is evaluated
once, at u0, and each accepted step adds its change to the recorded
energy, so the energy trace is non-increasing by construction and
accurate to about 2^-52 E(u0), not to the size of its own late rows.
When even the exact change cannot show a decrease, because
the gradient itself sits at its rounding floor, the search halves tau
until u - tau d rounds back to u bitwise. Every shorter step would try
that same candidate again, so the solve stops there with
line_search_stalled at the current iterate. The rule has no trial
budget: from any STEP0 the search halves until it accepts or until the
step vanishes in the rounding of u, which a finite d always reaches.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    ElResidualReport,
    EnergyParams,
    _pair_symbol,
    el_pairing,
    energy,
    energy_change,
    energy_gradient,
    pair_flux,
    seminorm,
)
from .grid import GridSpec, ScalarField, VectorField, fourier_multiply, site_coords, torus_dist

STEP0 = 1.0
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
GROWBACK = 2.0


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    grad_tol: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be nonnegative")


@dataclass
class SolveReport:
    energy_trace: list
    step_trace: list  # one accepted step per iteration
    grad_trace: list
    stop_reason: str
    energy_changes: int  # calls of energy_change: one per trial step
    el_suite: ElResidualReport  # the EL suite at the returned field

    @property
    def iterations(self) -> int:
        return len(self.step_trace)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"

    @property
    def final_grad_norm(self) -> float:
        return self.grad_trace[-1]

    @property
    def final_el_residual_max(self) -> float:
        return self.el_suite.max_abs


def project_sphere(samples: np.ndarray) -> np.ndarray:
    """Rowwise radial projection onto the unit sphere."""
    norms = np.linalg.norm(samples, axis=1, keepdims=True)
    if not np.isfinite(norms).all() or float(norms.min()) < 1e-8:
        raise ValueError("cannot project: a sample vector is not finite or shorter than 1e-8")
    return samples / norms


def tangent_project(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Remove the radial component: g - (u.g) u, rowwise."""
    return g - (u * g).sum(axis=1, keepdims=True) * u


def _preconditioner(grid: GridSpec, params: EnergyParams):
    """v -> P^{-1} v with P = m + m_1, m = 2p D the kernel symbol (D the
    cached symbol of the spectral passes) and m_1 its smallest positive
    value, applied per component over the grid axes."""
    m = 2.0 * params.p * _pair_symbol(grid, params.s, params.p)
    inv = 1.0 / (m + m[m > 0].min())
    return lambda v: fourier_multiply(grid, v, inv)


def minimize(u0: VectorField, params: EnergyParams, config: SolverConfig):
    """Descend from u0; returns (critical field, SolveReport). The report
    carries the EL residual suite of the returned field.

    Stops when the tangential gradient norm falls below grad_tol, after
    max_iters accepted steps, or when a line search can no longer move the
    map. The energy, the energy change and the gradient are fixed-order
    sums, so the iteration path is the same on every rerun. The energy is
    evaluated once, at u0; the report counts the calls of energy_change,
    one per trial step, and the gradient is evaluated once at the start
    and once per accepted step.
    """
    precondition = _preconditioner(u0.grid, params)
    u = project_sphere(np.array(u0.samples))
    E = energy(_wrap(u, u0), params)

    def tangential_gradient(u):
        gt = tangent_project(energy_gradient(_wrap(u, u0), params).samples, u)
        return gt, float(np.linalg.norm(gt))

    gt, gn = tangential_gradient(u)
    tau = STEP0
    energy_trace = [E]
    step_trace: list = []
    grad_trace = [gn]
    energy_changes = 0
    stop_reason = "max_iters"
    while True:
        if gn <= config.grad_tol:
            stop_reason = "grad_tol"
            break
        if len(step_trace) >= config.max_iters:
            break
        d = tangent_project(precondition(gt), u)
        slope = float(np.sum(gt * d))
        while not np.array_equal(trial := u - tau * d, u):
            cand = project_sphere(trial)
            change = energy_change(_wrap(u, u0), _wrap(cand, u0), params)
            energy_changes += 1
            if change <= -ARMIJO_C * tau * slope:
                break
            tau *= ARMIJO_SHRINK
        else:
            # this step and every shorter one leave u where it is
            stop_reason = "line_search_stalled"
            break
        u, E = cand, E + change
        step_trace.append(tau)
        tau *= GROWBACK
        energy_trace.append(E)
        gt, gn = tangential_gradient(u)
        grad_trace.append(gn)
    result = VectorField(grid=u0.grid, components=u0.components, samples=u, unit_constrained=True)
    report = SolveReport(
        energy_trace=energy_trace,
        step_trace=step_trace,
        grad_trace=grad_trace,
        stop_reason=stop_reason,
        energy_changes=energy_changes,
        el_suite=el_residual_suite(result, params),
    )
    return result, report


def _wrap(samples: np.ndarray, like: VectorField) -> VectorField:
    return VectorField(grid=like.grid, components=like.components, samples=samples)


def bump_basis(grid: GridSpec):
    """Deterministic bumps for the residual suite: four centers spread over
    the torus, two widths each. Plateau radius r0, support radius 2 r0."""
    L = grid.box_length
    x = site_coords(grid)
    out = []
    for frac in (0.0, 0.25, 0.5, 0.75):
        center = np.full(grid.dim, frac * L)
        d = torus_dist(x, center[None, :], L)
        for r0 in (L / 16.0, L / 8.0):
            # cubic smoothstep 3v^2 - 2v^3 of v = (2 r0 - d) / r0 clipped to [0, 1]
            v = np.clip((2.0 * r0 - d) / r0, 0.0, 1.0)
            vals = v * v * (3.0 - 2.0 * v)
            out.append((f"bump(c={frac:.2f}L, r={r0:.4g})", ScalarField(grid=grid, samples=vals)))
    return out


def elementary_omegas(N: int):
    """The generators E_ab - E_ba, a < b: a basis of so(N). A negated one
    would only repeat a residual, as the pairing is linear in omega."""
    out = []
    for a in range(N):
        for b in range(a + 1, N):
            w = np.zeros((N, N))
            w[a, b], w[b, a] = 1.0, -1.0
            out.append((f"omega[{a},{b}]", w))
    return out


def el_residual_suite(u: VectorField, params: EnergyParams) -> ElResidualReport:
    """Euler-Lagrange residuals over the bump basis and a basis of so(N),
    normalized by [phi]_{s,p} [u]_{s,p}^{p-1}: one per bump and generator.

    The pairing region is the full torus: the residual of a critical point
    only vanishes when the whole double sum is tested, and that is the
    quantity the convergence verdict reports. Every entry is read off one
    pair flux of u.
    """
    flux = pair_flux(u, params)
    u_sem = seminorm(u, params.s, params.p)
    entries = []
    for phi_label, phi in bump_basis(u.grid):
        denom = seminorm(phi, params.s, params.p) * u_sem ** (params.p - 1.0)
        for om_label, om in elementary_omegas(u.components):
            raw = abs(el_pairing(u, flux, phi, om))
            entries.append((phi_label, om_label, raw / denom if denom > 0 else raw))
    # np.max, unlike max, keeps a NaN entry
    worst = float(np.max([0.0] + [val for _, _, val in entries]))
    return ElResidualReport(entries=tuple(entries), max_abs=worst)
