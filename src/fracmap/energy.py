"""Nonlocal double-sum energy, its first variation, EL residuals, and the
Riesz-kernel pairing operator.

The discrete energy of a map u on the periodic grid is

    E(u) = sum_{x != y} h^{2n} |u(x) - u(y)|^p / dist(x, y)^{n + s p}

with dist the torus metric and the sum running over ordered site pairs of
the requested region (full torus when no region is given).

The grid is periodic, so a pair weight depends only on the lag z = y - x:
every pair sum reads one length-S lag kernel
w(z) = h^{2n} / dist(z, 0)^{n + s p}, exactly even in z, zero at z = 0 and
indexed like the sites. It is built once per process for each grid and
kernel exponent n + s p and shared read-only; every pass looks it up from
the field's grid and its own (s, p) through PairKernelCache, so no caller
hands a kernel in and none can hand in one that contradicts them.

Passes run over half the lags. The pair {x, y} appears at lag z = y - x
and at -z with the same |du| and the same weight, so a pass visits one
lag of each pair {z, -z}, z != 0: the lags with 0 < F(z) <= F(-z), where
F(z) = z_0 + M flat(z_1, ...) lets the first lag coordinate run fastest.
They come as runs along the first axis, whole on the tails (z_1, ...)
that precede their mirror and up to M/2 on self-inverse tails. A
self-inverse lag (2z = 0: each axis offset 0 or M/2) is its own partner.
du_z(x) = u(x) - u(x + z) for a block of a run's lags is one subtraction
against a zero-copy strided view of the periodically tiled samples, each
window a flat slice; a region B multiplies each term by m(x) m(x + z).

The energy weights each lag energy by c(z) w(z), with c = 2 on paired lags
and 1 on self-inverse ones. Besides the energy there is a single pair
pass, the flux

    G^B(x) = sum_z m(x) m(x + z) w(z) (|du_z|^2 + eps_reg)^{(p-2)/2} du_z(x)

over all lags, and everything linear in the pair field is read off it.
With F_z the summand at lag z, the term of -z at x is -F_z(x - z), so the
folded flux is G = sum_z c'(z) [F_z(x) - F_z(x - z)] over the half lags,
c' = 1 on paired lags and 1/2 on self-inverse ones: F_z is formed once, and
its reverse term is read off a skewed view of the block's F rows.
As w is even and du antisymmetric in (x, y), a double sum
sum_{x,y in B} w |du|^{p-2} du . (f(x) - f(y)) equals 2 sum_{x in B}
f(x) . G^B(x): the gradient is 2p G, an EL residual is
2 sum_x q(x) . G^B(x), the duality right side is 2 gamma sum_x phi(x) G^B(x),
and the T operator 2 sum_x k(x - z) G^B(x) is one FFT correlation of G^B
with the length-S Riesz lag kernel k = dist^{t-n}. energy_change forms
E(v) - E(u) in one such pass, pair by pair, for the solver's line search.

All reductions follow a fixed order, which pins the energy and the
gradient to the last bit: |du|^2 is summed in component order; the energy
of a lag is one numpy (pairwise) sum over x times c'(z) w(z), and the
energy is twice one numpy sum of the lag energies in pass order. In the
flux, the forward entry sum_z F_z(x) is a running sum over the half lags
in pass order, starting from zero; each reverse entry F_z(y) is added, in
the same order, at y + z of an accumulator 2M wide per axis, where the
sum does not wrap around; that accumulator is folded onto the torus axis
by axis, first along axis 0, and G is the forward sum minus the folded
one. Tests compare both functions against a reference copy of these
formulas.

For p < 2 the pair weight |u(x)-u(y)|^{p-2} degenerates at coincident
values; a regularizer eps_reg > 0 replaces |du|^2 by |du|^2 + eps_reg
inside the weight. With eps_reg > 0 the energy itself is evaluated as
sum w [ (|du|^2 + eps)^{p/2} - eps^{p/2} ], which keeps constants at
exactly zero energy and makes energy_gradient the exact gradient of the
evaluated functional. For eps_reg = 0 (the default, requires p >= 2) the
plain |du|^p form is used.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grid import (BallHierarchy, GridSpec, ScalarField, VectorField, ball_mask,
                   fourier_multiply, lag_spectrum, torus_dist)

# most pair terms S^2 that one pass may take: a config accepts 1d grids of
# up to 8192 sites and 2d grids of up to 64 x 64
MAX_KERNEL_PAIRS = 2**26
# pair terms per block of lags; a block's (lags, S) float64 temporaries take
# 256 kB, where 512 kB made the 1d M = 256 and 512 passes twice as slow on a
# 2-core x86 VM
BLOCK_TERMS = 2**15


@dataclass(frozen=True)
class EnergyParams:
    s: float
    p: float
    eps_reg: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if not (self.p > 1.0):
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.eps_reg < 0.0:
            raise ValueError("eps_reg must be nonnegative")
        if self.eps_reg == 0.0 and self.p < 2.0:
            # the |du|^{p-2} pair weight degenerates without a regularizer
            raise ValueError("eps_reg = 0 is only permitted for p >= 2")


def _lag_kernel(grid: GridSpec, of_dist) -> np.ndarray:
    """The read-only length-S lag kernel of_dist(dist(z, 0)), indexed like
    the sites, zero at z = 0. Each axis offset j is folded to its minimum
    image min(j, M - j) first, so the kernel is exactly even in z."""
    M = grid.points_per_axis
    j = np.stack(np.unravel_index(np.arange(grid.n_sites), (M,) * grid.dim), axis=-1)
    d = torus_dist(np.minimum(j, M - j) * grid.h, 0.0, grid.box_length)
    k = np.zeros_like(d)
    k[d > 0] = of_dist(d[d > 0])
    k.flags.writeable = False
    return k


@lru_cache(maxsize=32)
def _pair_weights(grid: GridSpec, exponent: float) -> np.ndarray:
    """The pair lag kernel w(z) = h^{2n} / dist(z, 0)^exponent."""
    return _lag_kernel(grid, lambda d: grid.h ** (2 * grid.dim) / d**exponent)


def check_pair_weights(grid: GridSpec, exponent: float) -> None:
    """Raise ValueError unless every pair weight h^{2n} / d^exponent of the
    grid and its denominator d^exponent are normal float64 numbers. Both are
    monotone in d, so the nearest lag (d = h) and the farthest minimum image
    (d = sqrt(n) L / 2) decide."""
    d = grid.h * np.array([1.0, np.sqrt(grid.dim) * grid.points_per_axis / 2])
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        denom = d**exponent
        w = grid.h ** (2 * grid.dim) / denom
    tiny = np.finfo(np.float64).tiny
    if not np.all((tiny <= denom) & (denom < np.inf) & (tiny <= w) & (w < np.inf)):
        raise ValueError(f"box_length {grid.box_length:g} puts the pair weights "
                         f"h^{2 * grid.dim} / d^{exponent:g} outside the normal float64 range")


@lru_cache(maxsize=32)
def _half_lag_runs(M: int, n: int) -> tuple:
    """One lag of each pair {z, -z} with z != 0, as runs (tail, first, stop)
    of the first lag coordinate under the tail of the others, tails in flat
    order: whole runs on the tails that precede their mirror -tail, and
    [first, M/2] on self-inverse tails (first = 1 on the zero tail). These
    are the lags 0 < F(z) <= F(-z) in the order of F(z) = z_0 + M flat(tail)."""
    shape = (M,) * (n - 1)
    runs = []
    for f in range(M ** (n - 1)):
        tail = tuple(int(i) for i in np.unravel_index(f, shape))
        mirror = int(np.ravel_multi_index(tuple(-i % M for i in tail), shape))
        if f < mirror:
            runs.append((tail, 0, M))
        elif f == mirror:
            runs.append((tail, int(f == 0), M // 2 + 1))
    return tuple(runs)


@lru_cache(maxsize=32)
def _half_weights(grid: GridSpec, exponent: float) -> np.ndarray:
    """c'(z) w(z) over the half lags in pass order, with c' = 1 on paired
    lags and 1/2 on self-inverse lags (2z = 0)."""
    M, n = grid.points_per_axis, grid.dim
    w = _pair_weights(grid, exponent).reshape((M,) * n)
    runs = []
    for tail, first, stop in _half_lag_runs(M, n):
        run = w[(slice(first, stop),) + tail].copy()
        if stop < M:  # a self-inverse tail: its lags at z_0 = 0 and M/2 are too
            run[2 * np.arange(first, stop) % M == 0] *= 0.5
        runs.append(run)
    out = np.concatenate(runs)
    out.flags.writeable = False
    return out


class PairKernelCache:
    """Pair weights w(z) = h^{2n} / dist(z, 0)^{n+sp} as a lag kernel.

    A handle on the process-wide kernel: `weights` is the read-only
    length-S array of w over the lags z, indexed like the sites and zero
    at z = 0, and `half_weights` holds c'(z) w(z) over the half lags of the
    pair passes (see the module docstring). Both are built once per process
    for each grid and exponent n + s p and shared by every handle, so
    constructing one after the first costs a cache lookup. The weights
    depend on s and p only through n + s p. Every pair pass makes its own
    handle from the field's grid and its parameters.
    """

    def __init__(self, grid: GridSpec, params: EnergyParams):
        self._bind(grid, grid.dim + params.s * params.p)

    @classmethod
    def from_exponent(cls, grid: GridSpec, s: float, p: float) -> "PairKernelCache":
        """Handle for a bare (s, p), which need not form valid EnergyParams."""
        obj = cls.__new__(cls)
        obj._bind(grid, grid.dim + s * p)
        return obj

    def _bind(self, grid: GridSpec, exponent: float):
        self.grid = grid
        self.exponent = exponent
        self.weights = _pair_weights(grid, exponent)
        self.half_weights = _half_weights(grid, exponent)


@dataclass(frozen=True)
class ElResidualReport:
    entries: tuple  # of (label, omega_id, residual)
    max_abs: float


def _sq_norm(dus: list) -> np.ndarray:
    """|du|^2 from one difference array per component, summed in component order."""
    du2 = dus[0] * dus[0]
    for d in dus[1:]:
        du2 += d * d
    return du2


def _block_lags(grid: GridSpec) -> int:
    """Most lags in one block: about BLOCK_TERMS / S, at most M."""
    return min(grid.points_per_axis, max(1, BLOCK_TERMS // grid.n_sites))


def _lag_blocks(grid: GridSpec, samples: np.ndarray, mask):
    """One half-lag pass over (S, N) samples, block by block. Yields the
    block's slots in the half-lag order, the first coordinate of its first
    lag and the tail coordinates its lags share, the differences
    du_z(x) = u(x) - u(x + z), one (lags, S) array per component, and the
    region factor m(x) m(x + z) (None without a region). A block is a run
    of at most _block_lags consecutive lags along the first axis, and its
    windows are a basic slice of one strided view per component."""
    M, S, n = grid.points_per_axis, grid.n_sites, grid.dim
    T = S // M  # flat distance of one step along the first axis
    step = _block_lags(grid)

    def tiled(a):
        # a on the grid axes, tiled periodically to 2M - 1 along each axis
        a = a.reshape((M,) * n)
        for ax in range(n):
            a = np.concatenate([a, a[(slice(None),) * ax + (slice(0, M - 1),)]], axis=ax)
        return a

    def windows(t, tail):
        # W[z_0, x] = a[x + (z_0, tail)] over the lags of one run: the tiled
        # rows under the tail's columns are flat and contiguous, so each
        # window is the flat slice that starts at z_0 T
        flat = np.ascontiguousarray(t[(slice(None),) + tuple(slice(c, c + M) for c in tail)])
        return as_strided(flat, shape=(M, S), strides=(T * flat.itemsize, flat.itemsize))

    U = np.ascontiguousarray(samples.T)
    tiles = [tiled(u) for u in U]
    if mask is not None:
        mask_tile = tiled(mask)
    slot = 0
    for tail, first, stop in _half_lag_runs(M, n):
        W = [windows(t, tail) for t in tiles]
        if mask is not None:
            Wm = windows(mask_tile, tail)
        for a in range(first, stop, step):
            k = min(step, stop - a)
            dus = [np.subtract(u, w[a:a + k]) for u, w in zip(U, W)]
            pair_mask = None if mask is None else np.logical_and(mask, Wm[a:a + k])
            yield slice(slot, slot + k), a, tail, dus, pair_mask
            slot += k


def _check_region(region, grid: GridSpec):
    """region is None (the full torus) or a boolean mask over all sites."""
    if region is not None and (not isinstance(region, np.ndarray) or region.dtype != bool
                               or region.shape != (grid.n_sites,)):
        raise ValueError("region must be None or a boolean mask over all sites")
    return region


def _energy_raw(samples, kernel: PairKernelCache, p, eps, region=None) -> float:
    grid = kernel.grid
    lag_energy = np.zeros(len(kernel.half_weights))
    for slots, _, _, dus, pair_mask in _lag_blocks(grid, samples, _check_region(region, grid)):
        vals = _sq_norm(dus)
        if eps > 0.0:
            vals += eps
            vals **= p / 2
            vals -= eps ** (p / 2)
        elif p != 2.0:
            vals **= p / 2
        if pair_mask is not None:
            vals *= pair_mask
        lag_energy[slots] = kernel.half_weights[slots] * vals.sum(axis=1)
    return 2.0 * float(np.sum(lag_energy))


def energy(u: VectorField, params: EnergyParams, region=None) -> float:
    """The double-sum energy over ordered pairs of the region."""
    return _energy_raw(u.samples, PairKernelCache(u.grid, params), params.p, params.eps_reg,
                       region=region)


def seminorm(f, s: float, p: float) -> float:
    """Gagliardo-type seminorm: energy(...)^{1/p} over the whole torus.

    Valid for any p > 1; the plain |du|^p integrand never degenerates, so
    no regularizer is involved here.
    """
    if isinstance(f, ScalarField):
        samples = f.samples[:, None]
    elif isinstance(f, VectorField):
        samples = f.samples
    else:
        raise TypeError(f"expected a field, got {type(f).__name__}")
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")
    return _energy_raw(samples, PairKernelCache.from_exponent(f.grid, s, p), p, 0.0) ** (1.0 / p)


def _du_weight(dus: list, params: EnergyParams):
    """(|du|^2 + eps)^{(p-2)/2}, with the 0^0 := 1 convention at p = 2."""
    p, eps = params.p, params.eps_reg
    if p == 2.0 and eps == 0.0:
        return 1.0
    if eps == 0.0 and p < 2.0:
        raise ValueError("pair weight degenerates: need p >= 2 or eps_reg > 0")
    wgt = _sq_norm(dus)
    wgt += eps
    wgt **= (p - 2.0) / 2.0
    return wgt


def pair_flux(u: VectorField, params: EnergyParams, region=None) -> VectorField:
    """The pair flux G^B(x) = sum_{y in B} w(y - x) (|du|^2 + eps)^{(p-2)/2} du
    with du = u(x) - u(y), for x in the region B and zero outside it.

    Each half lag z forms F_z = c'(z) w(z) (|du_z|^2 + eps)^{(p-2)/2} du_z
    once. The forward term F_z(x) is a running sum over the half lags in
    pass order; the reverse term F_z(x - z), which is minus the lag -z's
    term, is a running sum at each entry of an accumulator tiled 2M wide
    per axis and folded onto the torus at the end, axis by axis; G is the
    forward sum minus the folded one."""
    grid = u.grid
    M, S, n, N = grid.points_per_axis, grid.n_sites, grid.dim, u.components
    T = S // M  # flat distance of one step along the first axis
    half = PairKernelCache(grid, params).half_weights
    step = _block_lags(grid)
    P = S + step * T
    # slot 1 + i of buf holds F of the block's i-th lag and then a zero tail
    # that is never written; slot 0 carries the accumulator window. Row j of
    # the skewed view is slot j shifted by j - 1 steps along the first axis,
    # so its sum over rows adds the block's reverse terms into the window,
    # in lag order
    buf = np.zeros((step + 1) * P)
    summed = np.empty(S + (step - 1) * T)
    G = np.zeros((N, S))
    rev = np.zeros((N,) + (2 * M,) * n)
    for slots, first, tail, dus, pair_mask in _lag_blocks(grid, u.samples,
                                                           _check_region(region, grid)):
        k = len(dus[0])
        wgt = half[slots, None] * _du_weight(dus, params)
        if pair_mask is not None:
            wgt = wgt * pair_mask
        F = buf.reshape(step + 1, P)[1:k + 1, :S]
        width = S + (k - 1) * T
        skew = as_strided(buf[T:], shape=(k + 1, width),
                          strides=(buf.itemsize * (P - T), buf.itemsize))
        shape = (M + k - 1,) + (M,) * (n - 1)
        at = (slice(first, first + M + k - 1),) + tuple(slice(c, c + M) for c in tail)
        for g, r, d in zip(G, rev, dus):
            np.multiply(d, wgt, out=F)
            buf[T:T + width].reshape(shape)[...] = r[at]
            np.add.reduce(skew, axis=0, out=summed[:width])
            r[at] = summed[:width].reshape(shape)
            # the running sum carries on from the previous block's lags
            F[0] += g
            np.add.reduce(F, axis=0, out=g)
    for ax in range(1, n + 1):
        lo, hi = np.split(rev, 2, axis=ax)
        rev = lo + hi
    G -= rev.reshape(N, S)
    return VectorField(grid=grid, components=N, samples=G.T)


def energy_change(u: VectorField, v: VectorField, params: EnergyParams) -> float:
    """E(v) - E(u) over the whole torus as one half-lag pair sum of
    w (|D_v|^p - |D_u|^p), free of the cancellation between two rounded
    totals.

    The pass runs on the stacked samples [v - u, v + u], whose differences
    are e = D_v - D_u and f = D_v + D_u, so |D_v|^2 - |D_u|^2 = e . f comes
    without cancellation. At p = 2 that is the pair term. Otherwise, with
    b = |D_u|^2 + eps, a = |D_v|^2 + eps and q = p / 2, the term is
    a^q - b^q = b^q expm1(q log1p((a - b) / b)) where |a - b| <= b, and
    the direct form where b = 0 or a > 2 b, which cancels little.
    """
    if v.grid != u.grid or v.components != u.components:
        raise ValueError("energy_change needs two fields on one grid with one component count")
    N, p = u.components, params.p
    kernel = PairKernelCache(u.grid, params)
    stacked = np.concatenate([v.samples - u.samples, v.samples + u.samples], axis=1)
    lag_change = np.zeros(len(kernel.half_weights))
    for slots, _, _, dus, _ in _lag_blocks(u.grid, stacked, None):
        e, f = dus[:N], dus[N:]
        vals = e[0] * f[0]
        for ei, fi in zip(e[1:], f[1:]):
            vals += ei * fi
        if p != 2.0:
            for ei, fi in zip(e, f):
                fi -= ei
                fi *= 0.5  # D_u
            b = _sq_norm(f)
            b += params.eps_reg
            vals = _power_change(b, vals, p / 2)
        lag_change[slots] = kernel.half_weights[slots] * vals.sum(axis=1)
    return 2.0 * float(np.sum(lag_change))


def _power_change(b: np.ndarray, diff: np.ndarray, q: float) -> np.ndarray:
    """(b + diff)^q - b^q for b >= 0, with b + diff >= 0 up to rounding.
    Overwrites diff."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bq = b**q
        r = np.maximum(diff / b, -1.0)  # NaN or inf where b = 0
        far = ~(r <= 1.0)
        near = np.log1p(r, out=r)
        near *= q
        np.expm1(near, out=near)
        near *= bq
        diff += b
        np.maximum(diff, 0.0, out=diff)
        diff **= q
        diff -= bq
    np.copyto(near, diff, where=far)
    return near


def energy_gradient(u: VectorField, params: EnergyParams) -> VectorField:
    """Exact gradient of the (possibly regularized) discrete energy.

    g(x) = 2 p sum_y w(y-x) (|u(x)-u(y)|^2 + eps)^{(p-2)/2} (u(x) - u(y)) = 2 p G(x)
    """
    G = pair_flux(u, params)
    return VectorField(grid=u.grid, components=u.components, samples=2.0 * params.p * G.samples)


def first_variation(u: VectorField, psi: VectorField, params: EnergyParams) -> float:
    """Directional derivative of E along psi through the sphere constraint.

    Differentiates t -> E((u + t psi)/|u + t psi|) at t = 0 by the chain
    rule: the normalization map projects psi onto the tangent space at u,
    and the result is the plain gradient paired with that tangential part.
    Radial directions psi = lambda(x) u(x) therefore return zero.
    """
    if not u.unit_constrained:
        norms = np.linalg.norm(u.samples, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("first_variation requires a unit-constrained field")
    g = energy_gradient(u, params).samples
    psi_t = psi.samples - (u.samples * psi.samples).sum(axis=1, keepdims=True) * u.samples
    return float(np.sum(np.sum(g * psi_t, axis=1)))


def _validate_omega(omega: np.ndarray, N: int) -> np.ndarray:
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (N, N):
        raise ValueError(f"omega must be {N}x{N}")
    if not np.array_equal(omega, -omega.T):
        raise ValueError("omega must be antisymmetric")
    if not np.all(np.isin(omega, (-1.0, 0.0, 1.0))):
        raise ValueError("omega entries must lie in {-1, 0, 1}")
    return omega


def el_pairing(u: VectorField, flux: VectorField, phi: ScalarField, omega: np.ndarray) -> float:
    """Euler-Lagrange pairing read off the pair flux of u over a region B:
    2 sum_{x in B} q(x) . G^B(x) with q = omega u phi (see el_residual)."""
    omega = _validate_omega(omega, u.components)
    q = (u.samples @ omega.T) * phi.samples[:, None]
    return 2.0 * float(np.sum(q * flux.samples))


def el_residual(u: VectorField, phi: ScalarField, omega: np.ndarray, params: EnergyParams,
                region=None) -> float:
    """Euler-Lagrange pairing of u against the test field omega u phi.

    residual = sum_{x != y in region} w(y-x) |du|^{p-2}
               sum_i (u^i(x) - u^i(y)) (q^i(x) - q^i(y)),
    with q^i = omega_ij u^j phi, evaluated as 2 sum_x q(x) . G^B(x).
    Vanishes at critical points when the region covers the whole pairing
    (the default), and exactly for omega = 0 or constant u.
    """
    return el_pairing(u, pair_flux(u, params, region=region), phi, omega)


# ---------------------------------------------------------------------------
# Riesz-kernel pairing operator
# ---------------------------------------------------------------------------


def _validate_t(t: float, params: EnergyParams) -> None:
    lower = 1.0 - (1.0 - params.s) * params.p
    if not (t > lower):
        raise ValueError(f"t = {t} inadmissible: need t > 1 - (1-s)p = {lower}")
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie in (0,1), got {t}")


@lru_cache(maxsize=32)
def _kappa_exact(grid: GridSpec, t: float) -> np.ndarray:
    """The minimum-image Riesz kernel dist(z, 0)^{t-n} as a length-S lag
    kernel, zero at zero displacement."""
    return _lag_kernel(grid, lambda d: d ** (t - grid.dim))


@lru_cache(maxsize=32)
def _kappa_duality_1d(M: int, L: float, t: float) -> np.ndarray:
    """Cell-averaged periodized Riesz kernel for the duality quadrature.

    The free-space kernel |d|^{t-1} is integrated exactly over grid cells
    (product integration), the periodic images enter through the
    zeta-regularized sum

        S(d) = L^{t-1} [zeta(1-t, 1+d/L) + zeta(1-t, 1-d/L) - 2 zeta(1-t)],

    evaluated at cell midpoints on the signed representative d in
    (-L/2, L/2], and the central cell keeps weight zero: its mass
    I0 = 2(h/2)^t/t and second moment J2 are transplanted onto the +-h
    and +-2h cells so that both moments match. Constants are free of any
    fit; together with the analytic Riesz normalization the pairing
    identity holds to O(h^2).
    """
    import mpmath as mp

    h = L / M
    k = np.zeros(M)
    zl = mp.zeta(1 - t)
    Lt = L ** (t - 1.0)
    half = M // 2
    for j in range(1, half + 1):
        c = j * h
        if j == half:
            # seam cell around L/2: two mirror half-cells of |.|^{t-1}
            sing = 2.0 * ((L / 2) ** t - (L / 2 - h / 2) ** t) / (t * h)
        else:
            sing = ((c + h / 2) ** t - (c - h / 2) ** t) / (t * h)
        a = mp.mpf(j) / M
        img = Lt * float(mp.zeta(1 - t, 1 + a) + mp.zeta(1 - t, 1 - a) - 2 * zl)
        k[j] = sing + img
    I0 = 2.0 * (h / 2) ** t / t
    J2 = 2.0 * (h / 2) ** (t + 2) / (t + 2)
    m2 = (J2 / (2 * h * h) - I0 / 2) / 3.0
    m1 = I0 / 2 - m2
    k[1] += m1 / h
    k[2] += m2 / h
    for j in range(half + 1, M):
        k[j] = k[M - j]
    return k


def _riesz_symbol(grid: GridSpec, t: float, mode: str) -> np.ndarray:
    """Half-grid symbol of the correlation G -> sum_x k(x - z) G(x) with the
    lag kernel k of the t_operator mode: the conjugate spectrum of k, which
    for the even kernels here is its own spectrum up to the FFT's
    rounding."""
    if mode == "exact":
        kap = _kappa_exact(grid, t)
    elif mode == "duality":
        if grid.dim != 1:
            raise ValueError("duality quadrature is implemented for dim 1 only")
        kap = _kappa_duality_1d(grid.points_per_axis, grid.box_length, t)
    else:
        raise ValueError(f"unknown t_operator mode {mode!r}")
    return np.conj(lag_spectrum(grid, kap))


def t_operator(u: VectorField, t: float, params: EnergyParams, region=None,
               mode: str = "exact") -> VectorField:
    """Pairing field T u^i(z) = sum_{x!=y in B} P_i(x,y) [k(x-z) - k(y-z)],
    with P(x,y) = w(y-x) |du|^{p-2} du, evaluated as 2 sum_x k(x-z) G^B(x).

    k is the Riesz-type kernel dist^{t-n}; its evaluation at zero
    displacement (z landing on x or y) is excluded, i.e. contributes
    nothing. mode "exact" uses the raw minimum-image kernel and is what
    the brute-force cross-checks compare against; mode "duality" (n = 1)
    uses the cell-averaged periodized kernel built for the pairing
    identity against the spectral fractional Laplacian. The sum over x is
    an FFT correlation of G^B with the length-S lag kernel.
    """
    _validate_t(t, params)
    symbol = _riesz_symbol(u.grid, t, mode)
    G = pair_flux(u, params, region=region).samples
    T = 2.0 * fourier_multiply(u.grid, G, symbol)
    return VectorField(grid=u.grid, components=u.components, samples=T)


def riesz_pairing_constant(t: float, n: int) -> float:
    """gamma_n(t) = pi^{n/2} 2^t Gamma(t/2) / Gamma((n-t)/2), the constant
    with which |x|^{t-n} inverts the multiplier |k|^t."""
    import mpmath as mp

    tt = mp.mpf(t)
    return float(mp.pi ** (n / 2.0) * 2**tt * mp.gamma(tt / 2) / mp.gamma((n - tt) / 2))


def duality_check(u: VectorField, phi: ScalarField, t: float, params: EnergyParams):
    """Both sides of the pairing identity over the whole torus

        <Lambda^t phi, T u^i> = gamma_n(t) sum_{x!=y} P_i(x,y)(phi(x)-phi(y))

    evaluated from one pair flux G: left side through the duality-mode
    operator field (the FFT correlation of t_operator) against the spectral
    Lambda^t phi, right side as 2 gamma_n(t) sum_x phi(x) G(x).
    Returns (lhs vector, rhs vector, relative error).
    """
    from .fracops import frac_laplacian

    _validate_t(t, params)
    symbol = _riesz_symbol(u.grid, t, "duality")
    G = pair_flux(u, params).samples
    lap_phi = frac_laplacian(phi, t).samples
    lhs = u.grid.h**u.grid.dim * (lap_phi @ (2.0 * fourier_multiply(u.grid, G, symbol)))
    rhs = 2.0 * riesz_pairing_constant(t, u.grid.dim) * (phi.samples @ G)
    rel = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    return lhs, rhs, rel


def holefill_check(u: VectorField, hierarchy: BallHierarchy, K: int, L: int, params: EnergyParams):
    """Hole-filling comparison on nested balls B_K inside B_L.

    lhs = sum over x in B_L, y in B_L minus B_K of the energy integrand;
    rhs = E(B_L) - E(B_K). The difference rhs - lhs is itself a sum of
    nonnegative terms (the pairs coupling B_L minus B_K with B_K), so the
    inequality holds termwise on the grid; pass allows 1e-12 slack. With
    the ring R = B_L minus B_K, rhs counts the B_K x R pairs in both orders
    and the R x R pairs once, so lhs = (rhs + E(R)) / 2.
    """
    if not (K < L):
        raise ValueError("need K < L")
    mk = ball_mask(hierarchy, K)
    ml = ball_mask(hierarchy, L)
    if np.any(mk & ~ml):
        raise ValueError("ball nesting violated")
    rhs = energy(u, params, region=ml) - energy(u, params, region=mk)
    lhs = 0.5 * (rhs + energy(u, params, region=ml & ~mk))
    return lhs, rhs, bool(lhs <= rhs + 1e-12)
