"""Numerical verification of the regularity estimates.

Each probe in this module takes an inequality that holds up to an
unspecified constant and turns it into a regression test: a calibration
sweep measures the worst ratio lhs/rhs over a seeded sample family, the
constant is frozen (times a safety margin) into a versioned data file,
and later runs check the same sweep against the frozen value. The
kernel_case probe has no sample family: its ratio is a function of one
real variable, and the probe reports that function's maximum in each of
the three cases, whatever the seed. The holefill probe needs no
calibration: its inequality holds termwise, and its constant is exactly 1.
The probe functions only measure: each returns its rows (sample id, lhs,
rhs, ratio). measure_probe writes each sweep's setup (exponents, sample
counts, grid, family seeds) once and returns its rows and worst ratio,
which is all calibration reads. run_probe alone loads the frozen constant
and judges, by one rule for all six probes: a probe passes when its worst
ratio is at most its constant. Nothing is configurable, because a
constant frozen on one setup says nothing about another. Nothing here
estimates sharp constants, bar the kernel_case maxima; the point is that
the ratios are bounded and stay bounded.

Alongside the probes: localized-energy decay tables with a power-law
fit, and the exact Lagrange decomposition of a vector against a unit
vector.

The probe names, the fewest levels of a decay table and config_hash, the
digest of the frozen constants, belong to the run config and live in
reporting. The functions here import them when they run, so that
`import fracmap.lab` loads neither reporting nor the solver.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import EnergyParams, energy, holefill_check, seminorm
from .fracops import build_lp_bank, commutator_H, frac_laplacian, lp_sup_bound_probe
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


@dataclass(frozen=True)
class DecayTable:
    """Localized energies over a dyadic ball hierarchy plus the fitted
    power law energy ~ radius^theta. theta is None when the fit has
    fewer than two usable levels (constant maps, tiny hierarchies)."""

    rows: tuple  # of (level, radius, localized energy)
    theta: float | None
    fit_residual: float | None


@dataclass(frozen=True)
class ProbeReport:
    name: str
    sample_count: int
    worst_ratio: float
    frozen_c: float | None
    passed: bool
    seed: int
    rows: tuple  # of (sample id, lhs, rhs, ratio)


# ---------------------------------------------------------------------------
# seeded sample families (shared by probes, calibration, and tests)
# ---------------------------------------------------------------------------


def band_limited_family(grid: GridSpec, count: int, seed: int, max_mode: int = 8):
    """Mean-zero random trigonometric polynomials, amplitudes ~ N(0,1)/|m|.

    The cutoff max_mode stays well below the Nyquist mode, so spectral
    operators act on these fields without aliasing.
    """
    rng = np.random.default_rng(seed)
    x = site_coords(grid)
    L = grid.box_length
    out = []
    for _ in range(count):
        vals = np.zeros(grid.n_sites)
        if grid.dim == 1:
            for m in range(1, max_mode + 1):
                a, b = rng.standard_normal(2) / m
                vals += a * np.cos(2 * np.pi * m * x[:, 0] / L) + b * np.sin(
                    2 * np.pi * m * x[:, 0] / L
                )
        else:
            top = max(1, max_mode // 2)
            for m0 in range(0, top + 1):
                for m1 in range(-top, top + 1):
                    if m0 == 0 and m1 <= 0:
                        continue
                    norm = np.hypot(m0, m1)
                    a, b = rng.standard_normal(2) / norm
                    phase = 2 * np.pi * (m0 * x[:, 0] + m1 * x[:, 1]) / L
                    vals += a * np.cos(phase) + b * np.sin(phase)
        out.append(ScalarField(grid=grid, samples=vals))
    return out


def unit_circle_family(grid: GridSpec, count: int, seed: int):
    """Random smooth maps into the unit circle, u = (cos th, sin th) with a
    band-limited angle field (modes up to 6). Unit-constrained by
    construction."""
    angles = band_limited_family(grid, count, seed, max_mode=6)
    out = []
    for th in angles:
        samples = np.stack([np.cos(th.samples), np.sin(th.samples)], axis=1)
        out.append(VectorField(grid=grid, samples=samples))
    return out


def _grid_norm(values: np.ndarray, grid: GridSpec, q: float) -> float:
    """Discrete L^q norm (h^n sum |v|^q)^{1/q}."""
    return float((grid.h**grid.dim * np.sum(np.abs(values) ** q)) ** (1.0 / q))


# ---------------------------------------------------------------------------
# decay tables
# ---------------------------------------------------------------------------


def decay_profile(u: VectorField, hierarchy: BallHierarchy, params: EnergyParams) -> DecayTable:
    """Localized energies over the ball hierarchy and the power-law fit.

    The fit runs over levels above the base level whose radius is below
    half the box length L and whose energy is positive. The base ball
    holds only a handful of sites and its energy is pure quadrature noise;
    a ball of radius L/2 or more wraps onto itself (in 1d it is the whole
    torus). Neither enters the fit, but every level keeps its row.
    Energies must come out non-decreasing in the level (they are sums of
    nonnegative terms over nested index sets); a violation means the
    caller handed in inconsistent pieces and raises.
    """
    from .reporting import DECAY_MIN_LEVELS

    levels = range(hierarchy.level_max + 1)
    if len(levels) < DECAY_MIN_LEVELS:
        raise ValueError(f"hierarchy must span at least {DECAY_MIN_LEVELS} levels")
    rows = []
    for lev in levels:
        e = energy(u, params, region=ball_mask(hierarchy, lev))
        rows.append((lev, hierarchy.radius(lev), e))
    for (_, _, e0), (_, _, e1) in zip(rows, rows[1:]):
        if e1 < e0 - 1e-12 * max(1.0, e0):
            raise ValueError(f"localized energies not monotone: {e0} then {e1}")
    half = hierarchy.grid.box_length / 2.0
    fit = [(r, e) for _, r, e in rows[1:] if r < half and e > 0.0]
    if len(fit) < 2:
        return DecayTable(rows=tuple(rows), theta=None, fit_residual=None)
    logr = np.log([r for r, _ in fit])
    loge = np.log([e for _, e in fit])
    A = np.stack([logr, np.ones_like(logr)], axis=1)
    coef, *_ = np.linalg.lstsq(A, loge, rcond=None)
    resid = float(np.sqrt(np.mean((loge - A @ coef) ** 2)))
    return DecayTable(rows=tuple(rows), theta=float(coef[0]), fit_residual=resid)


# ---------------------------------------------------------------------------
# Lagrange decomposition
# ---------------------------------------------------------------------------


def lagrange_check(u_sample: np.ndarray, v_sample: np.ndarray):
    """Exact decomposition of |v|^2 against a unit vector u:

        |v|^2 = (u.v)^2 + sum_{i<j} (u_i v_j - u_j v_i)^2.

    Returns (lhs, rhs, equal) with equality tested to 1e-12 relative.
    """
    u = np.asarray(u_sample, dtype=np.float64)
    v = np.asarray(v_sample, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be vectors of the same length")
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("u must be a unit vector")
    radial = float(u @ v) ** 2
    cross = np.outer(u, v) - np.outer(v, u)
    iu = np.triu_indices(len(u), k=1)
    rhs = radial + float(np.sum(cross[iu] ** 2))
    lhs = float(v @ v)
    return lhs, rhs, bool(abs(lhs - rhs) <= 1e-12 * max(1.0, lhs))


def lagrange_bound_factor(N: int) -> float:
    """sqrt(1 + N(N-1)/2): |v| is at most this times the largest single
    term among |u.v| and the cross entries |u_i v_j - u_j v_i|."""
    return float(np.sqrt(1.0 + N * (N - 1) / 2.0))


def lagrange_sweep(N: int, count: int, seed: int):
    """Monte-Carlo sweep of the decomposition; returns the worst identity
    deviation and the number of max-bound violations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    factor = lagrange_bound_factor(N)
    for _ in range(count):
        u = rng.standard_normal(N)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(N)
        lhs, rhs, _ = lagrange_check(u, v)
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
        cross = np.outer(u, v) - np.outer(v, u)
        iu = np.triu_indices(N, k=1)
        peak = max(abs(float(u @ v)), float(np.max(np.abs(cross[iu]))))
        if np.sqrt(lhs) > factor * peak * (1.0 + 1e-12):
            violations += 1
    return worst, violations


# ---------------------------------------------------------------------------
# kernel case analysis
# ---------------------------------------------------------------------------


def _classify_case(dxy, dxz, dyz):
    case1 = (dxy <= 0.5 * dxz) | (dxy <= 0.5 * dyz)
    out = np.where(case1, 1, np.where(dxz <= dyz, 2, 3))
    return out


def _case_majorant(case, dxy, dxz, dyz, beta, eps, n):
    expo = beta - eps - n
    near = np.minimum(dxz, dyz)
    base = np.where(case == 1, near, np.where(case == 2, dxz, dyz))
    return dxy**eps * base**expo


def kernel_case_probe(beta: float, eps: float) -> list:
    """The largest ratio lhs/rhs of the three-case majorant in each case, n = 1.

    The ratio is homogeneous of degree 0 in the three distances and
    invariant under translation and reflection, so every triple reduces
    to x = 1, z = 0 and one real y outside {0, 1}: case 1 is 1/2 <= y <= 2,
    case 2 is y <= -1 or y > 2, case 3 the rest. A grid of 64 points per
    octave over 2^-20 <= |y| <= 2^20, which holds the case boundaries -1,
    1/2 and 2, brackets each case's maximum between the neighbours of its
    best point; twelve zooms of 65 points each narrow the bracket to
    adjacent floats. One row per case: (case<k>/y=<maximizer>, lhs, rhs,
    ratio).
    """
    mags = np.exp2(np.arange(-20 * 64, 20 * 64 + 1) / 64.0)
    grid = np.concatenate([-mags[::-1], mags[mags != 1.0]])  # ascending
    rows = []
    for target in (1, 2, 3):
        y = grid
        for _ in range(13):  # the scan, then twelve zooms
            dxy, dxz, dyz = np.abs(1.0 - y), np.ones_like(y), np.abs(y)
            case = _classify_case(dxy, dxz, dyz)
            lhs = np.abs(1.0 - dyz ** (beta - 1.0))
            rhs = _case_majorant(case, dxy, dxz, dyz, beta, eps, 1)
            ratio = np.where(case == target, lhs / rhs, -np.inf)
            i = int(np.argmax(ratio))
            best = (float(y[i]), float(lhs[i]), float(rhs[i]), float(ratio[i]))
            y = np.linspace(y[max(i - 1, 0)], y[min(i + 1, len(y) - 1)], 65)
        rows.append((f"case{target}/y={best[0]!r}", *best[1:]))
    return rows


# ---------------------------------------------------------------------------
# embedding and commutator probes
# ---------------------------------------------------------------------------


def sobolev_exponent(n, s, t, p):
    """p* = n p / (n - (s - t) p) in float arithmetic. At the critical
    edge (s - t) p = n the denominator is exactly zero, and the division
    raises ZeroDivisionError."""
    return float(n) * float(p) / (float(n) - (float(s) - float(t)) * float(p))


def sobolev_probe(f_family, s: float, t: float, p: float) -> list:
    """||Lambda^t f||_{p*} against [f]_{s,p} over a field family."""
    if not (0.0 < t < s < 1.0):
        raise ValueError(f"need 0 < t < s < 1, got t={t}, s={s}")
    n = f_family[0].grid.dim
    if not (1.0 < p < n / (s - t)):
        raise ValueError(f"p must lie in (1, n/(s-t)) = (1, {n / (s - t)})")
    p_star = sobolev_exponent(n, s, t, p)
    rows = []
    for i, f in enumerate(f_family):
        lhs = _grid_norm(frac_laplacian(f, t).samples, f.grid, p_star)
        rhs = seminorm(f, s, p)
        if rhs == 0.0:
            continue  # constants carry no information here
        ratio = lhs / rhs
        rows.append((i, lhs, rhs, ratio))
    return rows


def commutator_probe(pairs, alpha: float, p: float, p1: float, p2: float) -> list:
    """||H_alpha(a,b)||_p against ||Lambda^alpha a||_{p1} ||Lambda^alpha b||_{p2}
    over seeded smooth pairs.

    The exponents must satisfy 1/p = 1/p1 + 1/p2 - alpha/n; a violated
    relation is a caller bug and raises immediately.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0,1)")
    n = pairs[0][0].grid.dim
    gap = abs(1.0 / p - (1.0 / p1 + 1.0 / p2 - alpha / n))
    if gap > 1e-12:
        raise ValueError(f"exponent relation 1/p = 1/p1 + 1/p2 - alpha/n violated by {gap:.3e}")
    rows = []
    for i, (a, b) in enumerate(pairs):
        lhs = _grid_norm(commutator_H(a, b, alpha).samples, a.grid, p)
        la = frac_laplacian(a, alpha).samples
        lb = frac_laplacian(b, alpha).samples
        rhs = _grid_norm(la, a.grid, p1) * _grid_norm(lb, b.grid, p2)
        if rhs == 0.0:
            continue
        ratio = lhs / rhs
        rows.append((i, lhs, rhs, ratio))
    return rows


# ---------------------------------------------------------------------------
# T1 commutator bound (exhaustive triple sum, tiny grids only)
# ---------------------------------------------------------------------------


def t1_bound_probe(f: ScalarField, g: ScalarField, s: float, t: float):
    """Direct evaluation of the T1 triple sum and its norm bound.

    T1(z) = h^2 sum_{x != y} |f(x)-f(y)|^{p_s - 1}
            |g(x)+g(y)-2g(z)| | d(x,z)^{t-1} - d(y,z)^{t-1} |
            / d(x,y)^{1 + s p_s},

    kernel evaluations at zero displacement excluded. Returns
    (lhs, rhs, ratio) with lhs = ||T1||_{1/(1-t)} and
    rhs = [f]^{p_s-1} [g], both seminorms at (s, p_s).
    """
    grid = f.grid
    if grid.dim != 1:
        raise ValueError("the triple sum is implemented for dim 1 only")
    if grid.points_per_axis > 32:
        raise ValueError("grid too large: the triple sum is O(M^3), use M <= 32")
    if g.grid != grid:
        raise ValueError("f and g must share a grid")
    p_s = grid.dim / s
    M = grid.n_sites
    x = site_coords(grid)
    D = torus_dist(x[:, None, :], x[None, :, :], grid.box_length)
    A = np.zeros_like(D)
    off = D > 0
    A[off] = D[off] ** (t - 1.0)
    F = np.zeros_like(D)
    F[off] = np.abs(f.samples[:, None] - f.samples[None, :])[off] ** (p_s - 1.0) / D[off] ** (
        1.0 + s * p_s
    )
    G = np.abs(g.samples[:, None, None] + g.samples[None, :, None] - 2.0 * g.samples[None, None, :])
    kern = np.abs(A[:, None, :] - A[None, :, :])  # (x, y, z)
    idx = np.arange(M)
    valid = (
        (idx[:, None, None] != idx[None, :, None])
        & (idx[:, None, None] != idx[None, None, :])
        & (idx[None, :, None] != idx[None, None, :])
    )
    T1 = grid.h**2 * np.einsum("xy,xyz,xyz,xyz->z", F, G, kern, valid.astype(np.float64))
    lhs = _grid_norm(T1, grid, 1.0 / (1.0 - t))
    rhs = seminorm(f, s, p_s) ** (p_s - 1.0) * seminorm(g, s, p_s)
    ratio = lhs / rhs if rhs > 0 else 0.0
    return lhs, rhs, ratio


# ---------------------------------------------------------------------------
# hole-filling probe (an exact inequality)
# ---------------------------------------------------------------------------


def holefill_probe(grid: GridSpec, params: EnergyParams, hierarchy: BallHierarchy, count: int,
                   seed: int) -> list:
    """Nested-ball energy comparison over random unit fields: the ring
    sum never exceeds the energy difference (termwise nonnegativity), so
    every ratio is at most 1, the probe's exact constant."""
    fields = unit_circle_family(grid, count, seed)
    levels = range(hierarchy.level_max + 1)
    combos = [(a, b) for a in levels for b in levels if a < b]
    rows = []
    for i, u in enumerate(fields):
        for K, L in combos:
            lhs, rhs, _ = holefill_check(u, hierarchy, K, L, params)
            rows.append((f"{i}/B{K}in{L}", lhs, rhs, lhs / rhs if rhs > 0 else 0.0))
    return rows


# ---------------------------------------------------------------------------
# frozen constants
# ---------------------------------------------------------------------------

FROZEN_FILE = "frozen_constants.json"


def frozen_constants_path() -> Path:
    return Path(__file__).parent / "data" / FROZEN_FILE


def load_frozen_constants() -> dict:
    """Read the versioned constants file, verifying its digest. A digest
    mismatch means the file was edited by hand; recalibrate instead."""
    from .reporting import config_hash

    try:
        raw = json.loads(frozen_constants_path().read_text())
    except FileNotFoundError:
        raise FileNotFoundError(
            "no frozen constants file; run fracmap-calibrate to generate one"
        ) from None
    payload = {k: v for k, v in raw.items() if k != "digest"}
    if config_hash(payload) != raw.get("digest"):
        raise ValueError("frozen constants digest mismatch: file was modified outside calibration")
    return raw["constants"]


# ---------------------------------------------------------------------------
# canonical probe setups (shared by the CLI, calibration, and acceptance)
# ---------------------------------------------------------------------------


def measure_probe(name: str, seed: int) -> tuple:
    """One probe's canonical sweep, measured but not judged: its rows and
    their worst ratio (0 without rows).

    Each branch below is the only place that probe's setup is written:
    exponents, sample counts, grid, family seed offsets and mode cutoffs.
    The frozen constants were measured on exactly these sweeps, so none of
    it is a parameter.
    """
    grid = make_grid(1, 64, 2.0 * np.pi)
    if name == "sobolev":
        family = band_limited_family(grid, 20, seed + 101)
        rows = sobolev_probe(family, s=0.5, t=0.25, p=2.0)
    elif name == "commutator":
        pairs = list(zip(band_limited_family(grid, 50, seed + 202),
                         band_limited_family(grid, 50, seed + 203)))
        rows = commutator_probe(pairs, alpha=0.5, p=2.0, p1=2.0, p2=2.0)
    elif name == "kernel_case":
        rows = kernel_case_probe(beta=0.5, eps=0.3)
    elif name == "lp_sup":
        # band-localized sup bound: sup |Lambda^t P_j f| against 2^{j(n/p + t - s)} [f]_{s,p}
        bank = build_lp_bank(grid)
        rows = []
        for i, f in enumerate(band_limited_family(grid, 10, seed + 404)):
            sem = seminorm(f, 0.5, 2.0)
            for j, lhs, rhs, ratio in lp_sup_bound_probe(f, bank, s=0.5, t=0.25, p=2.0, sem=sem):
                if rhs != 0.0:
                    rows.append((f"{i}/band{j}", lhs, rhs, ratio))
    elif name == "t1":
        # the triple sum is O(M^3), so this probe runs on M = 16
        small = make_grid(1, 16, 2.0 * np.pi)
        fs = band_limited_family(small, 5, seed + 505, max_mode=4)
        gs = band_limited_family(small, 5, seed + 506, max_mode=4)
        rows = []
        for i, (f, g) in enumerate(zip(fs, gs)):
            lhs, rhs, ratio = t1_bound_probe(f, g, s=0.5, t=0.45)
            if rhs != 0.0:
                rows.append((i, lhs, rhs, ratio))
    elif name == "holefill":
        hierarchy = BallHierarchy(grid=grid, center=(np.pi,), base_radius=0.3, level_max=3)
        rows = holefill_probe(grid, EnergyParams(s=0.5, p=2.0), hierarchy, count=8,
                              seed=seed + 606)
    else:
        from .reporting import PROBE_NAMES

        raise ValueError(f"unknown probe {name!r}; choose from {PROBE_NAMES}")
    return rows, max([0.0] + [row[3] for row in rows])


def run_probe(name: str, seed: int = 0) -> ProbeReport:
    """Measure one probe's canonical sweep and judge it by the one rule of
    every probe: it passes when its worst ratio is at most its frozen
    constant C."""
    rows, worst = measure_probe(name, seed)
    frozen_c = load_frozen_constants()[name]
    return ProbeReport(name=name, sample_count=len(rows), worst_ratio=worst, frozen_c=frozen_c,
                       passed=bool(worst <= frozen_c), seed=seed, rows=tuple(rows))
