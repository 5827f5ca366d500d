"""Fractional Laplacian, Riesz potential, band projections, and the
three-term product commutator, all on scalar fields of the periodic grid.

Lambda^t is the Fourier multiplier |k|^t on the DFT modes (physical
frequency k = 2 pi j / L for integer j) with the zero mode annihilated, and
Lambda^{-t} is |k|^{-t} on mean-zero input. The nonlocal energy does not
reuse these kernels: its pair weights are raw minimum-image distances (see
energy.py). Every operator here is applied through grid.fourier_multiply.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, ScalarField, fourier_multiply, frequency_norms


@lru_cache(maxsize=32)
def forward_constant(t: float, n: int) -> float:
    """c_{n,t} = 2^t Gamma((n+t)/2) / (pi^{n/2} |Gamma(-t/2)|), the
    normalization of the singular-integral form of Lambda^t. No operator
    here uses it; it stays only as a hook that bench/traced.py wraps."""
    import mpmath as mp

    tt = mp.mpf(t)
    return float(
        2**tt * mp.gamma((n + tt) / 2) / (mp.pi ** (mp.mpf(n) / 2) * abs(mp.gamma(-tt / 2)))
    )


def frac_laplacian(field: ScalarField, t: float) -> ScalarField:
    """Lambda^t: multiplier |k|^t."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"Lambda^t needs t in (0,1), got {t}")
    grid = field.grid
    mult = frequency_norms(grid) ** t
    mult.flat[0] = 0.0
    return ScalarField(grid=grid, samples=fourier_multiply(grid, field.samples, mult))


def riesz_potential(field: ScalarField, t: float) -> ScalarField:
    """Lambda^{-t}: multiplier |k|^{-t} on mean-zero input."""
    grid = field.grid
    if not (0.0 < t < grid.dim):
        raise ValueError(f"Lambda^-t needs t in (0, n) = (0, {grid.dim}), got {t}")
    samples = field.samples
    scale = max(1.0, float(np.max(np.abs(samples))))
    mean = samples.mean()
    if abs(mean) > 1e-10 * scale:
        raise ValueError(f"riesz_potential needs mean-zero input, got mean {mean}")
    kn = frequency_norms(grid)
    mult = np.zeros_like(kn)
    nz = kn > 0
    mult[nz] = kn[nz] ** (-t)
    return ScalarField(grid=grid, samples=fourier_multiply(grid, samples, mult))


# ---------------------------------------------------------------------------
# Littlewood-Paley bank
# ---------------------------------------------------------------------------


def _theta_profile(r: np.ndarray) -> np.ndarray:
    """1 for r <= 1, 0 for r >= 2, cubic smoothstep down in between.
    Exactly 0.0 / 1.0 outside the transition (clipping), which is what
    makes far-apart band products vanish identically."""
    u = np.clip(r - 1.0, 0.0, 1.0)
    return 1.0 - u * u * (3.0 - 2.0 * u)


@dataclass(frozen=True)
class LPBank:
    grid: GridSpec
    level_max: int
    profiles: tuple  # tuple of multiplier arrays, index j


def build_lp_bank(grid: GridSpec) -> LPBank:
    """Dyadic multiplier bank over the levels j = 0 ... ceil(log2 max |k|):
    band j covers |k| in [2^{j-1}, 2^{j+1}], band 0 absorbs everything
    below it, and the bands sum to one on every nonzero grid frequency (the
    top level is chosen so the profile has already reached 1 at the largest
    |k|)."""
    kn = frequency_norms(grid)
    level_max = int(np.ceil(np.log2(float(kn.max()))))
    if level_max < 0:
        raise ValueError("every grid frequency lies below the lowest band |k| = 1")
    profiles = []
    nonzero = kn > 0
    for j in range(level_max + 1):
        theta_j = _theta_profile(kn / 2.0**j)
        if j == 0:
            band = theta_j.copy()
        else:
            band = theta_j - _theta_profile(kn / 2.0 ** (j - 1))
        band = np.where(nonzero, band, 0.0)
        profiles.append(band)
    return LPBank(grid=grid, level_max=level_max, profiles=tuple(profiles))


def lp_project(field: ScalarField, bank: LPBank, j: int) -> ScalarField:
    if not (0 <= j <= bank.level_max):
        raise ValueError(f"level {j} outside [0, {bank.level_max}]")
    grid = bank.grid
    if field.grid != grid:
        raise ValueError("field grid does not match the bank grid")
    return ScalarField(grid=grid, samples=fourier_multiply(grid, field.samples, bank.profiles[j]))


def commutator_H(a: ScalarField, b: ScalarField, alpha: float) -> ScalarField:
    """H_alpha(a,b) = Lambda^alpha(ab) - b Lambda^alpha a - a Lambda^alpha b."""
    if a.grid != b.grid:
        raise ValueError("commutator needs both factors on one grid")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    ab = ScalarField(grid=a.grid, samples=a.samples * b.samples)
    out = (
        frac_laplacian(ab, alpha).samples
        - b.samples * frac_laplacian(a, alpha).samples
        - a.samples * frac_laplacian(b, alpha).samples
    )
    return ScalarField(grid=a.grid, samples=out)


def lp_sup_bound_probe(f: ScalarField, bank: LPBank, s: float, t: float, p: float, sem: float):
    """Per band j: sup |Lambda^t P_j f| against 2^{j(n/p + t - s)} sem,
    where sem is the caller's [f]_{s,p}.

    Returns a list of (j, lhs, rhs, ratio) rows; ratios of zero-energy
    inputs are reported as 0. The bound constant is empirical, measured by
    the calibration sweep.
    """
    if not (0.0 < t < s < 1.0):
        raise ValueError(f"need 0 < t < s < 1, got t={t}, s={s}")
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")
    n = f.grid.dim
    rows = []
    for j in range(bank.level_max + 1):
        lhs = float(np.max(np.abs(frac_laplacian(lp_project(f, bank, j), t).samples)))
        rhs = 2.0 ** (j * (n / p + t - s)) * sem
        ratio = lhs / rhs if rhs > 0 else 0.0
        rows.append((j, lhs, rhs, ratio))
    return rows
