"""Numerical verification of the regularity estimates.

Each probe in this module takes an inequality that holds up to an
unspecified constant and turns it into a regression test: a calibration
sweep measures the worst ratio lhs/rhs over a seeded sample family, the
constant is frozen (times a safety margin) into a versioned data file,
and later runs check the same sweep against the frozen value. Each
sweep's setup (exponents, sample counts, grid, family seeds) is written
once, in run_probe, and is not configurable: a constant frozen on one
setup says nothing about another. Nothing here estimates sharp
constants; the point is that the ratios are bounded and stay bounded.

Alongside the probes: localized-energy decay tables with a power-law
fit, a Holder-quotient fit over dyadic distance bands, and the exact
Lagrange decomposition of a vector against a unit vector.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
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

PROBE_NAMES = ("sobolev", "commutator", "kernel_case", "lp_sup", "t1", "holefill")

# fewest hierarchy levels a decay table accepts
DECAY_MIN_LEVELS = 4

# worst-offender rows kept per case in the kernel_case CSV; the full
# 1e5-per-case sweep would dominate the output directory otherwise
KERNEL_CASE_CSV_ROWS = 200
# triples classified at a time by the kernel_case sampler
KERNEL_CASE_SLICE = 2**14


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


def _probe_report(name, rows, seed, bound_const=None, sample_count=None, passed=None):
    """Close a probe: the worst ratio over rows (0 when there are none)
    against the frozen constant, loaded when bound_const is None. The
    sample count defaults to the row count and the verdict to worst <= C."""
    if bound_const is None:
        bound_const = load_frozen_constants()[name]
    worst = max([0.0] + [row[3] for row in rows])
    return ProbeReport(
        name=name,
        sample_count=len(rows) if sample_count is None else sample_count,
        worst_ratio=worst,
        frozen_c=bound_const,
        passed=bool(worst <= bound_const) if passed is None else passed,
        seed=seed,
        rows=tuple(rows),
    )


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


def unit_circle_family(grid: GridSpec, count: int, seed: int, max_mode: int = 6):
    """Random smooth maps into the unit circle, u = (cos th, sin th) with a
    band-limited angle field. Unit-constrained by construction."""
    angles = band_limited_family(grid, count, seed, max_mode=max_mode)
    out = []
    for th in angles:
        samples = np.stack([np.cos(th.samples), np.sin(th.samples)], axis=1)
        out.append(VectorField(grid=grid, components=2, samples=samples, unit_constrained=True))
    return out


def _grid_norm(values: np.ndarray, grid: GridSpec, q: float) -> float:
    """Discrete L^q norm (h^n sum |v|^q)^{1/q}."""
    return float((grid.h**grid.dim * np.sum(np.abs(values) ** q)) ** (1.0 / q))


# ---------------------------------------------------------------------------
# decay tables and Holder fit
# ---------------------------------------------------------------------------


def decay_profile(u: VectorField, hierarchy: BallHierarchy, params: EnergyParams) -> DecayTable:
    """Localized energies over the ball hierarchy and the power-law fit.

    The fit runs over levels above the base level whose energy is
    positive; the base ball holds only a handful of sites and its energy
    is pure quadrature noise, so it never enters the fit. Energies must
    come out non-decreasing in the level (they are sums of nonnegative
    terms over nested index sets); a violation means the caller handed in
    inconsistent pieces and raises.
    """
    levels = range(hierarchy.level_min, hierarchy.level_max + 1)
    if len(levels) < DECAY_MIN_LEVELS:
        raise ValueError(f"hierarchy must span at least {DECAY_MIN_LEVELS} levels")
    rows = []
    for lev in levels:
        e = energy(u, params, region=ball_mask(hierarchy, lev))
        rows.append((lev, hierarchy.radius(lev), e))
    for (_, _, e0), (_, _, e1) in zip(rows, rows[1:]):
        if e1 < e0 - 1e-12 * max(1.0, e0):
            raise ValueError(f"localized energies not monotone: {e0} then {e1}")
    fit = [(r, e) for lev, r, e in rows[1:] if e > 0.0]
    if len(fit) < 2:
        return DecayTable(rows=tuple(rows), theta=None, fit_residual=None)
    logr = np.log([r for r, _ in fit])
    loge = np.log([e for _, e in fit])
    A = np.stack([logr, np.ones_like(logr)], axis=1)
    coef, *_ = np.linalg.lstsq(A, loge, rcond=None)
    resid = float(np.sqrt(np.mean((loge - A @ coef) ** 2)))
    return DecayTable(rows=tuple(rows), theta=float(coef[0]), fit_residual=resid)


def holder_fit(u, beta_grid):
    """Largest Holder exponent with a stable sup-quotient.

    For each beta the pairwise quotients |u(x)-u(y)| / dist^beta are
    maximized inside dyadic distance bands, lag by lag: the pairs of a lag
    z = y - x share the distance dist(z, 0), so each lag contributes
    max_x |u(x + z) - u(x)| and the fit holds O(S) numbers. Beta counts
    as stable when the band maxima stay within an overall factor 2 of
    each other, i.e. the quotient neither blows up at small scales (beta
    too big) nor dies off (beta too small). Returns (best beta or None, table of
    (beta, band sups, stable)).
    """
    if isinstance(u, ScalarField):
        samples = u.samples[:, None]
    else:
        samples = u.samples
    grid = u.grid
    beta_grid = sorted(float(b) for b in beta_grid)
    if not beta_grid or beta_grid[0] <= 0.0 or beta_grid[-1] > 1.0:
        raise ValueError("beta_grid must lie in (0, 1]")
    if grid.n_sites < 4:
        raise ValueError("grid too small for a quotient fit")
    shape = (grid.points_per_axis,) * grid.dim
    axes = tuple(range(grid.dim))
    U = samples.reshape(shape + samples.shape[1:])
    # every nonzero lag z, with max_x |u(x + z) - u(x)| and dist(z, 0)
    du = np.array([np.linalg.norm(np.roll(U, tuple(-c for c in z), axis=axes) - U, axis=-1).max()
                   for z in np.ndindex(shape)])[1:]
    d = torus_dist(site_coords(grid), 0.0, grid.box_length)[1:]
    d_top = float(d.max())
    n_bands = int(np.floor(np.log2(d_top / float(d.min())))) + 1
    bands = []
    for k in range(n_bands):
        hi = d_top * 2.0**-k
        lo = d_top * 2.0 ** -(k + 1) if k < n_bands - 1 else 0.0
        sel = (d > lo) & (d <= hi)
        if np.any(sel):
            bands.append((d[sel], du[sel]))
    table = []
    best = None
    for beta in beta_grid:
        sups = tuple(float(np.max(dub / db**beta)) for db, dub in bands)
        positive = [w for w in sups if w > 0.0]
        if not positive:
            stable = True  # no variation at any scale: constant input
        elif len(positive) < len(sups):
            stable = False
        else:
            stable = max(positive) / min(positive) <= 2.0
        table.append((beta, sups, stable))
        if stable:
            best = beta
    return best, tuple(table)


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


def kernel_case_check(x, y, z, beta: float, eps: float, bound_const: float | None = None):
    """Classify one triple and test the difference-of-kernels majorant.

    lhs = | |x-z|^{beta-n} - |y-z|^{beta-n} |, rhs the per-case majorant
    |x-y|^eps (relevant distance)^{beta-eps-n}. Passes iff
    lhs <= C rhs with the calibrated constant. x = y is allowed (both
    sides vanish); z may not coincide with x or y.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    n = x.size
    if not (0.0 < beta < n):
        raise ValueError(f"beta must lie in (0, n) = (0, {n})")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    dxz = float(np.linalg.norm(x - z))
    dyz = float(np.linalg.norm(y - z))
    if dxz == 0.0 or dyz == 0.0:
        raise ValueError("z must not coincide with x or y")
    dxy = float(np.linalg.norm(x - y))
    case = int(_classify_case(np.array(dxy), np.array(dxz), np.array(dyz)))
    lhs = abs(dxz ** (beta - n) - dyz ** (beta - n))
    rhs = float(_case_majorant(np.array(case), dxy, dxz, dyz, beta, eps, n))
    if bound_const is None:
        bound_const = load_frozen_constants()["kernel_case"]
    return case, lhs, rhs, bool(lhs <= bound_const * rhs)


def _sample_case_triples(rng, n, count, target_case):
    """Rejection-sample `count` random triples landing in target_case and
    return their distances (dxy, dxz, dyz), a (3, count) array. A round
    draws x, y and z whole and classifies them KERNEL_CASE_SLICE rows at a
    time, keeping the distances of the first triples that land."""
    kept = []
    have = 0
    while have < count:
        m = max(4 * count, 1024)
        x = rng.standard_normal((m, n))
        y = rng.standard_normal((m, n))
        z = rng.standard_normal((m, n))
        for lo in range(0, m, KERNEL_CASE_SLICE):
            rows = slice(lo, lo + KERNEL_CASE_SLICE)
            d = np.stack([np.linalg.norm(a[rows] - b[rows], axis=1)
                          for a, b in ((x, y), (x, z), (y, z))])
            sel = np.all(d > 0, axis=0) & (_classify_case(*d) == target_case)
            idx = np.flatnonzero(sel)[:count - have]
            kept.append(d[:, idx])
            have += len(idx)
            if have == count:
                break
    return np.concatenate(kept, axis=1)


def kernel_case_probe(
    beta: float,
    eps: float,
    n: int,
    count_per_case: int,
    seed: int,
    bound_const: float | None = None,
) -> ProbeReport:
    """Monte-Carlo sweep of the three-case majorant, count_per_case
    triples per case; the CSV keeps the worst offenders per case."""
    rng = np.random.default_rng(seed)
    rows = []
    for target in (1, 2, 3):
        dxy, dxz, dyz = _sample_case_triples(rng, n, count_per_case, target)
        case = np.full(dxy.shape, target)
        lhs = np.abs(dxz ** (beta - n) - dyz ** (beta - n))
        rhs = _case_majorant(case, dxy, dxz, dyz, beta, eps, n)
        ratio = lhs / rhs
        # descending, so each case's largest ratio is kept
        order = np.argsort(ratio)[::-1][:KERNEL_CASE_CSV_ROWS]
        rows.extend(
            (f"case{target}/{i}", float(lhs[i]), float(rhs[i]), float(ratio[i])) for i in order
        )
    return _probe_report("kernel_case", rows, seed, bound_const, sample_count=3 * count_per_case)


# ---------------------------------------------------------------------------
# embedding and commutator probes
# ---------------------------------------------------------------------------


def sobolev_exponent(n, s, t, p):
    """p* = n p / (n - (s - t) p), exact over rationals.

    Arguments given as ints, Fractions, or decimal strings are combined
    exactly; floats fall back to float arithmetic.
    """

    def lift(v):
        if isinstance(v, float):
            return v
        return Fraction(v)

    n, s, t, p = (lift(v) for v in (n, s, t, p))
    if any(isinstance(v, float) for v in (n, s, t, p)):
        return float(n) * float(p) / (float(n) - (float(s) - float(t)) * float(p))
    return n * p / (n - (s - t) * p)


def sobolev_probe(
    f_family,
    s: float,
    t: float,
    p: float,
    seed: int,
    bound_const: float | None = None,
) -> ProbeReport:
    """||Lambda^t f||_{p*} against [f]_{s,p} over a field family."""
    if not (0.0 <= t < s < 1.0):
        raise ValueError(f"need 0 <= t < s < 1, got t={t}, s={s}")
    n = f_family[0].grid.dim
    if not (1.0 < p < n / (s - t)):
        raise ValueError(f"p must lie in (1, n/(s-t)) = (1, {n / (s - t)})")
    p_star = float(sobolev_exponent(float(n), s, t, p))
    rows = []
    for i, f in enumerate(f_family):
        if t == 0.0:
            lf = f.samples
        else:
            lf = frac_laplacian(f, t).samples
        lhs = _grid_norm(lf, f.grid, p_star)
        rhs = seminorm(f, s, p)
        if rhs == 0.0:
            continue  # constants carry no information here
        ratio = lhs / rhs
        rows.append((i, lhs, rhs, ratio))
    return _probe_report("sobolev", rows, seed, bound_const)


def commutator_probe(
    pairs,
    alpha: float,
    eps: float,
    p: float,
    p1: float,
    p2: float,
    seed: int,
    bound_const: float | None = None,
) -> ProbeReport:
    """||Lambda^eps H_alpha(a,b)||_p against ||Lambda^alpha a||_{p1}
    ||Lambda^alpha b||_{p2} over seeded smooth pairs.

    The exponents must satisfy 1/p = 1/p1 + 1/p2 - (alpha - eps)/n; a
    violated relation is a caller bug and raises immediately.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0,1)")
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must lie in [0,1)")
    n = pairs[0][0].grid.dim
    gap = abs(1.0 / p - (1.0 / p1 + 1.0 / p2 - (alpha - eps) / n))
    if gap > 1e-12:
        raise ValueError(
            f"exponent relation 1/p = 1/p1 + 1/p2 - (alpha-eps)/n violated by {gap:.3e}"
        )
    rows = []
    for i, (a, b) in enumerate(pairs):
        h_ab = commutator_H(a, b, alpha)
        if eps == 0.0:
            lf = h_ab.samples
        else:
            lf = frac_laplacian(h_ab, eps).samples
        lhs = _grid_norm(lf, a.grid, p)
        la = frac_laplacian(a, alpha).samples
        lb = frac_laplacian(b, alpha).samples
        rhs = _grid_norm(la, a.grid, p1) * _grid_norm(lb, b.grid, p2)
        if rhs == 0.0:
            continue
        ratio = lhs / rhs
        rows.append((i, lhs, rhs, ratio))
    return _probe_report("commutator", rows, seed, bound_const)


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


def holefill_probe(
    grid: GridSpec,
    params: EnergyParams,
    hierarchy: BallHierarchy,
    count: int,
    seed: int,
    bound_const: float | None = None,
) -> ProbeReport:
    """Nested-ball energy comparison over random unit fields: the ring
    sum never exceeds the energy difference (termwise nonnegativity), so
    every ratio is at most 1 up to rounding."""
    fields = unit_circle_family(grid, count, seed)
    levels = range(hierarchy.level_min, hierarchy.level_max + 1)
    combos = [(a, b) for a in levels for b in levels if a < b]
    rows = []
    ok = True
    for i, u in enumerate(fields):
        for K, L in combos:
            lhs, rhs, passed = holefill_check(u, hierarchy, K, L, params)
            ratio = lhs / rhs if rhs > 0 else 0.0
            ok = ok and passed
            rows.append((f"{i}/B{K}in{L}", lhs, rhs, ratio))
    return _probe_report("holefill", rows, seed, bound_const, passed=ok)


# ---------------------------------------------------------------------------
# frozen constants
# ---------------------------------------------------------------------------

FROZEN_FILE = "frozen_constants.json"


def frozen_constants_path() -> Path:
    return Path(__file__).parent / "data" / FROZEN_FILE


def constants_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_frozen_constants() -> dict:
    """Read the versioned constants file, verifying its digest. A digest
    mismatch means the file was edited by hand; recalibrate instead."""
    try:
        raw = json.loads(frozen_constants_path().read_text())
    except FileNotFoundError:
        raise FileNotFoundError(
            "no frozen constants file; run fracmap-calibrate to generate one"
        ) from None
    payload = {k: v for k, v in raw.items() if k != "digest"}
    if constants_digest(payload) != raw.get("digest"):
        raise ValueError("frozen constants digest mismatch: file was modified outside calibration")
    return raw["constants"]


# ---------------------------------------------------------------------------
# canonical probe setups (shared by the CLI, calibration, and acceptance)
# ---------------------------------------------------------------------------


def run_probe(name: str, seed: int = 0, bound_const: float | None = None) -> ProbeReport:
    """Run one probe with its calibrated desk-scale setup.

    Each branch below is the only place that probe's setup is written:
    exponents, sample counts, grid, family seed offsets and mode cutoffs.
    The frozen constants were measured on exactly these sweeps, so none of
    it is a parameter.
    """
    grid = make_grid(1, 64, 2.0 * np.pi)
    if name == "sobolev":
        family = band_limited_family(grid, 20, seed + 101)
        return sobolev_probe(family, s=0.5, t=0.25, p=2.0, seed=seed, bound_const=bound_const)
    if name == "commutator":
        pairs = list(zip(band_limited_family(grid, 50, seed + 202),
                         band_limited_family(grid, 50, seed + 203)))
        return commutator_probe(pairs, alpha=0.5, eps=0.0, p=2.0, p1=2.0, p2=2.0, seed=seed,
                                bound_const=bound_const)
    if name == "kernel_case":
        return kernel_case_probe(beta=0.5, eps=0.3, n=1, count_per_case=100_000, seed=seed + 303,
                                 bound_const=bound_const)
    if name == "lp_sup":
        # band-localized sup bound: sup |Lambda^t P_j f| against 2^{j(n/p + t - s)} [f]_{s,p}
        bank = build_lp_bank(grid)
        rows = []
        for i, f in enumerate(band_limited_family(grid, 10, seed + 404)):
            for j, lhs, rhs, ratio in lp_sup_bound_probe(f, bank, s=0.5, t=0.25, p=2.0):
                if rhs != 0.0:
                    rows.append((f"{i}/band{j}", lhs, rhs, ratio))
        return _probe_report("lp_sup", rows, seed, bound_const)
    if name == "t1":
        # the triple sum is O(M^3), so this probe runs on M = 16
        small = make_grid(1, 16, 2.0 * np.pi)
        fs = band_limited_family(small, 5, seed + 505, max_mode=4)
        gs = band_limited_family(small, 5, seed + 506, max_mode=4)
        rows = []
        for i, (f, g) in enumerate(zip(fs, gs)):
            lhs, rhs, ratio = t1_bound_probe(f, g, s=0.5, t=0.45)
            if rhs != 0.0:
                rows.append((i, lhs, rhs, ratio))
        return _probe_report("t1", rows, seed + 505, bound_const)
    if name == "holefill":
        hierarchy = BallHierarchy(
            grid=grid, center=(np.pi,), base_radius=0.3, level_min=0, level_max=3
        )
        return holefill_probe(grid, EnergyParams(s=0.5, p=2.0), hierarchy, count=8,
                              seed=seed + 606, bound_const=bound_const)
    raise ValueError(f"unknown probe {name!r}; choose from {PROBE_NAMES}")
