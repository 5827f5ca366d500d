"""Fractional Laplacian, Riesz potential, band projections, and the
three-term product commutator, all on the periodic grid.

Spectral variants are the reference implementations: the multiplier |k|^t
acts on the DFT modes (physical frequency k = 2 pi j / L for integer j)
with the zero mode annihilated. The singular-integral variant of the
Laplacian is an independent check of the spectral one: it sums the
difference quotient against the fully periodized kernel

    K(d) = sum_m |d + m L|^{-n-t}

(for n = 1 in closed form through the Hurwitz zeta, for n = 2 as a
truncated image sum with an analytic tail constant), scaled by the
standard normalization

    c_{n,t} = 2^t Gamma((n+t)/2) / (pi^{n/2} |Gamma(-t/2)|),

which makes the two variants agree on plane waves up to quadrature error
of order h^{2-t}. The nonlocal energy does not reuse these kernels: its
pair weights are raw minimum-image distances (see energy.py). Every
operator here is applied through grid.fourier_multiply.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (GridSpec, ScalarField, VectorField, fourier_multiply, frequency_norms,
                   lag_spectrum)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FracOpParams:
    order: float
    variant: str = "spectral"

    def __post_init__(self):
        if self.variant not in ("spectral", "singular_integral"):
            raise ValueError(f"unknown variant {self.variant!r}")


def _componentwise(field, f):
    """f of the (S,) or (S, N) samples, as a field of the same kind."""
    if isinstance(field, ScalarField):
        return ScalarField(grid=field.grid, samples=f(field.samples))
    if isinstance(field, VectorField):
        return VectorField(grid=field.grid, components=field.components, samples=f(field.samples))
    raise TypeError(f"expected a field, got {type(field).__name__}")


@lru_cache(maxsize=32)
def forward_constant(t: float, n: int) -> float:
    import mpmath as mp

    tt = mp.mpf(t)
    return float(
        2**tt * mp.gamma((n + tt) / 2) / (mp.pi ** (mp.mpf(n) / 2) * abs(mp.gamma(-tt / 2)))
    )


@lru_cache(maxsize=32)
def _forward_kernel_1d(M: int, L: float, t: float) -> np.ndarray:
    import mpmath as mp

    out = np.zeros(M)
    pref = L ** (-(1.0 + t))
    for j in range(1, M):
        a = mp.mpf(j) / M
        out[j] = pref * float(mp.zeta(1 + t, a) + mp.zeta(1 + t, 1 - a))
    return out


@lru_cache(maxsize=8)
def _forward_kernel_2d(M: int, L: float, t: float) -> np.ndarray:
    images = 32  # periodic images summed on each side of the box, per axis
    d = np.arange(M) * (L / M)
    D0, D1 = np.meshgrid(d, d, indexing="ij")
    K = np.zeros((M, M))
    ms = np.arange(-images, images + 1) * L
    for mx in ms:
        r0 = D0 + mx
        for my in ms:
            r2 = r0**2 + (D1 + my) ** 2
            with np.errstate(divide="ignore"):
                c = r2 ** (-(2.0 + t) / 2.0)
            if mx == 0.0 and my == 0.0:
                c[0, 0] = 0.0
            K += c
    # images beyond the truncation radius contribute, to leading order, a
    # d-independent constant: integral of |y|^{-2-t} outside |y| > (B+1/2)L
    K += TWO_PI * ((images + 0.5) * L) ** (-t) / (t * L**2)
    K[0, 0] = 0.0
    return K


def _singular_frac(samples: np.ndarray, grid: GridSpec, t: float) -> np.ndarray:
    M, L = grid.points_per_axis, grid.box_length
    K = _forward_kernel_1d(M, L, t) if grid.dim == 1 else _forward_kernel_2d(M, L, t).ravel()
    conv = fourier_multiply(grid, samples, lag_spectrum(grid, K))
    return forward_constant(t, grid.dim) * grid.h**grid.dim * (K.sum() * samples - conv)


def frac_laplacian(field, params: FracOpParams):
    """Lambda^t: multiplier |k|^t (spectral) or periodized difference
    quadrature (singular_integral). Acts componentwise on vector fields."""
    t = params.order
    if not (0.0 < t < 1.0):
        raise ValueError(f"Lambda^t needs t in (0,1), got {t}")
    grid = field.grid
    if params.variant == "spectral":
        mult = frequency_norms(grid) ** t
        mult.flat[0] = 0.0
        return _componentwise(field, lambda s: fourier_multiply(grid, s, mult))
    return _componentwise(field, lambda s: _singular_frac(s, grid, t))


def riesz_potential(field, params: FracOpParams):
    """Lambda^{-t}: spectral multiplier |k|^{-t} on mean-zero input."""
    t = params.order
    grid = field.grid
    if not (0.0 < t < grid.dim):
        raise ValueError(f"Lambda^-t needs t in (0, n) = (0, {grid.dim}), got {t}")
    if params.variant != "spectral":
        raise ValueError("the Riesz potential is spectral-only")
    samples = field.samples
    scale = max(1.0, float(np.max(np.abs(samples))))
    means = samples.mean(axis=0)
    if np.max(np.abs(np.atleast_1d(means))) > 1e-10 * scale:
        raise ValueError(f"riesz_potential needs mean-zero input, got mean {means}")
    kn = frequency_norms(grid)
    mult = np.zeros_like(kn)
    nz = kn > 0
    mult[nz] = kn[nz] ** (-t)
    return _componentwise(field, lambda s: fourier_multiply(grid, s, mult))


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
    level_min: int
    level_max: int
    profiles: tuple  # tuple of multiplier arrays, index j - level_min

    def level_index(self, j: int) -> int:
        if not (self.level_min <= j <= self.level_max):
            raise ValueError(f"level {j} outside [{self.level_min}, {self.level_max}]")
        return j - self.level_min


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
    return LPBank(grid=grid, level_min=0, level_max=level_max, profiles=tuple(profiles))


def lp_project(field, bank: LPBank, j: int):
    mult = bank.profiles[bank.level_index(j)]
    grid = bank.grid
    if field.grid != grid:
        raise ValueError("field grid does not match the bank grid")
    return _componentwise(field, lambda s: fourier_multiply(grid, s, mult))


def commutator_H(a: ScalarField, b: ScalarField, alpha: float) -> ScalarField:
    """H_alpha(a,b) = Lambda^alpha(ab) - b Lambda^alpha a - a Lambda^alpha b."""
    if a.grid != b.grid:
        raise ValueError("commutator needs both factors on one grid")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    par = FracOpParams(order=alpha, variant="spectral")
    ab = ScalarField(grid=a.grid, samples=a.samples * b.samples)
    out = (
        frac_laplacian(ab, par).samples
        - b.samples * frac_laplacian(a, par).samples
        - a.samples * frac_laplacian(b, par).samples
    )
    return ScalarField(grid=a.grid, samples=out)


def lp_sup_bound_probe(f: ScalarField, bank: LPBank, s: float, t: float, p: float):
    """Per band j: sup |Lambda^t P_j f| against 2^{j(n/p + t - s)} [f]_{s,p}.

    Returns a list of (j, lhs, rhs, ratio) rows; ratios of zero-energy
    inputs are reported as 0. The bound constant is empirical, measured by
    the calibration sweep.
    """
    if not (0.0 <= t < s < 1.0):
        raise ValueError(f"need 0 <= t < s < 1, got t={t}, s={s}")
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")
    from .energy import seminorm

    n = f.grid.dim
    sem = seminorm(f, s, p)
    rows = []
    for j in range(bank.level_min, bank.level_max + 1):
        fj = lp_project(f, bank, j)
        if t == 0.0:
            lhs = float(np.max(np.abs(fj.samples)))
        else:
            lhs = float(
                np.max(np.abs(frac_laplacian(fj, FracOpParams(order=t)).samples))
            )
        rhs = 2.0 ** (j * (n / p + t - s)) * sem
        ratio = lhs / rhs if rhs > 0 else 0.0
        rows.append((j, lhs, rhs, ratio))
    return rows
