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
(s, p) and shared read-only; every pass looks it up from the field's grid
and its own (s, p) through PairKernelCache, so no caller hands a kernel in
and none can hand in one that contradicts them. check_pair_weights takes
the same (grid, s, p).

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

There are two pair passes. The first is the change

    E(v) - E(u) = sum_z c(z) w(z) sum_x m(x) m(x + z) (|D_v|^p - |D_u|^p)

over the half lags, with c = 2 on paired lags and 1 on self-inverse ones
and D_u = du_z. It is formed from the differences of e = v - u and
f = v + u, free of the cancellation between two rounded totals. It is
energy_change, and energy and seminorm are the change from the zero map,
whose energy is exactly 0. The second is the flux

    G^B(x) = sum_z m(x) m(x + z) w(z) |du_z|^{p-2} du_z(x)

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
with the length-S Riesz lag kernel k = dist^{t-n}.

All reductions follow a fixed order, which pins the energy and the
gradient to the last bit: |du|^2 and e . f are summed in component order;
the change of a lag is one numpy (pairwise) sum over x times c'(z) w(z),
and the change is twice one numpy sum of the lag changes in pass order.
From the zero map, e = f = du, so e . f is |du|^2 to the last bit. In the
flux, the forward entry sum_z F_z(x) is a running sum over the half lags
in pass order, starting from zero; each reverse entry F_z(y) is added, in
the same order, at y + z of an accumulator 2M wide per axis, where the
sum does not wrap around; that accumulator is folded onto the torus axis
by axis, first along axis 0, and G is the forward sum minus the folded
one. Tests compare both functions against a reference copy of these
formulas.

At p = 4, every full-torus pair sum is a quadratic form in correlations
of u, a u and u u^T (a = |u|^2), and the circulant kernel is diagonal in
Fourier space (R. M. Gray, Toeplitz and Circulant Matrices: A Review,
2006). There the change (and with it energy, seminorm and energy_change)
and pair_flux read one cubic form H(c, f) (see _cubic_form): the flux is
H(v, v) / 2 and the change <e, H([e f], f)> / 2. H is one
grid.fourier_multiply by the cached symbol D(k) = w^(0) - w^(k), which
vanishes at k = 0, on the columns of the centred samples and their
products, O(S log S). The route depends only on p and the region:
regions and p != 4 stay pair passes. _change decides it for the change,
pair_flux for the flux. The sums are invariant under u -> u - c, so the
spectral passes subtract the mean first, which keeps the Fourier terms
of a near-constant map from cancelling; constant maps still give exactly
0.0. They have a fixed order too, but differ from the pair sums at
round-off.

For p < 2 the flux weight |du|^{p-2} is infinite at coincident values
u(x) = u(y); the term |du|^{p-2} du has size |du|^{p-1} -> 0 there, so the
flux takes it as 0, the derivative of the pair term |du|^p for every p > 1.
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

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if not (self.p > 1.0):
            raise ValueError(f"p must exceed 1, got {self.p}")


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
def _pair_weights(grid: GridSpec, s: float, p: float) -> np.ndarray:
    """The pair lag kernel w(z) = h^{2n} / dist(z, 0)^{n + s p}."""
    exponent = grid.dim + s * p
    return _lag_kernel(grid, lambda d: grid.h ** (2 * grid.dim) / d**exponent)


def check_pair_weights(grid: GridSpec, s: float, p: float) -> None:
    """Raise ValueError unless every pair weight h^{2n} / d^{n + s p} of the
    grid and its denominator d^{n + s p} are normal float64 numbers. Both are
    monotone in d, so the nearest lag (d = h) and the farthest minimum image
    (d = sqrt(n) L / 2) decide."""
    exponent = grid.dim + s * p
    d = grid.h * np.array([1.0, np.sqrt(grid.dim) * grid.points_per_axis / 2])
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        denom = d**exponent
        w = grid.h ** (2 * grid.dim) / denom
    tiny = np.finfo(np.float64).tiny
    if not np.all((tiny <= denom) & (denom < np.inf) & (tiny <= w) & (w < np.inf)):
        raise ValueError(f"box_length {grid.box_length:g} puts the pair weights "
                         f"h^{2 * grid.dim} / d^{exponent:g} outside the normal float64 range")


@lru_cache(maxsize=32)
def _pair_symbol(grid: GridSpec, s: float, p: float) -> np.ndarray:
    """D(k) = w^(0) - w^(k) on the rfftn half grid, w^ the spectrum of the
    pair lag kernel: the symbol of Dg = w^(0) g - w * g, the operator the
    spectral passes apply. It is exactly 0 at k = 0."""
    w_hat = lag_spectrum(grid, _pair_weights(grid, s, p)).real
    D = w_hat.flat[0] - w_hat
    D.flags.writeable = False
    return D


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
def _half_weights(grid: GridSpec, s: float, p: float) -> np.ndarray:
    """c'(z) w(z) over the half lags in pass order, with c' = 1 on paired
    lags and 1/2 on self-inverse lags (2z = 0)."""
    M, n = grid.points_per_axis, grid.dim
    w = _pair_weights(grid, s, p).reshape((M,) * n)
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
    for each grid and (s, p) and shared by every handle, so constructing
    one after the first costs a cache lookup. Every pair pass makes its own
    handle from the field's grid and its parameters.
    """

    def __init__(self, grid: GridSpec, params: EnergyParams):
        self._bind(grid, params.s, params.p)

    @classmethod
    def from_exponent(cls, grid: GridSpec, s: float, p: float) -> "PairKernelCache":
        """Handle for a bare (s, p), which need not form valid EnergyParams."""
        obj = cls.__new__(cls)
        obj._bind(grid, s, p)
        return obj

    def _bind(self, grid: GridSpec, s: float, p: float):
        self.grid = grid
        self.weights = _pair_weights(grid, s, p)
        self.half_weights = _half_weights(grid, s, p)


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


def _lag_blocks(grid: GridSpec, samples: np.ndarray, mask, step: int):
    """One half-lag pass over (S, N) samples, block by block. Yields the
    block's slots in the half-lag order, the first coordinate of its first
    lag and the tail coordinates its lags share, the differences
    du_z(x) = u(x) - u(x + z), one (lags, S) array per component, and the
    region factor m(x) m(x + z) (None without a region). A block is a run
    of at most `step` consecutive lags along the first axis, and its
    windows are a basic slice of one strided view per component."""
    M, S, n = grid.points_per_axis, grid.n_sites, grid.dim
    T = S // M  # flat distance of one step along the first axis

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


def _spectral_route(p: float, region) -> bool:
    """Whether a pass is a spectral one: p = 4 over the whole torus."""
    return p == 4.0 and region is None


def _cubic_form(grid: GridSpec, c: np.ndarray, f: np.ndarray, s: float, p: float) -> np.ndarray:
    """The p = 4 cubic form over the whole torus,

        H(c, f)(x) = 2 sum_y w(x - y) |c(x) - c(y)|^2 (f(x) - f(y)),

    for (S, N) samples f and (S, K) columns c whose last N are f, C = |c|^2.
    As sum_y w(x - y) g(y) = w^(0) g - D g, the w^(0) terms cancel and

        H(c, f) = -2 f D C + 4 f sum_j c_j D c_j + 2 C D f + 2 D(C f)
                  - 4 sum_j c_j D(f c_j),

    one grid.fourier_multiply of the columns c, C, C f, the upper triangle
    of f f^T and f c_j for the columns c_j before f. The flux is
    G(v) = H(v, v) / 2. With the pair differences D_e and D_f of e = v - u
    and f = v + u, |D_v|^4 - |D_u|^4 = (D_e . D_f) (|D_e|^2 + |D_f|^2) / 2,
    so the change is (T_e + T_f) / 2 with T_c = sum_{x,y} w (D_e . D_f) |D_c|^2.
    T_c is linear in D_e = e(x) - e(y), the rest is antisymmetric in (x, y),
    so T_c = <e, H(c, f)>; H is linear in C, so the change is
    <e, H([e f], f)> / 2. H reads only differences, so the callers centre
    c and f, which keeps the Fourier terms of a near-constant map from
    cancelling."""
    S, N = f.shape
    g = c[:, :-N]  # the columns of c before f
    C = _sq_norm(list(c.T))
    i, j = np.triu_indices(N)
    sym = np.empty((N, N), dtype=int)  # the column of f_i f_j = f_j f_i
    sym[i, j] = sym[j, i] = np.arange(len(i))
    fg = (f[:, :, None] * g[:, None, :]).reshape(S, -1)
    DX = fourier_multiply(grid, np.column_stack([c, C, C[:, None] * f, f[:, i] * f[:, j], fg]),
                          _pair_symbol(grid, s, p))
    Dc, DC, DCf, Dff, Dfg = np.split(DX, np.cumsum([c.shape[1], 1, N, len(i)]), axis=1)
    # D(f_i c_k) at [x, i, k]
    Dfc = np.concatenate([Dfg.reshape(S, N, g.shape[1]), Dff[:, sym]], axis=2)
    H = 2.0 * (C[:, None] * Dc[:, -N:] - f * DC + DCf)
    H += 4.0 * (f * np.sum(c * Dc, axis=1)[:, None] - np.sum(c[:, None, :] * Dfc, axis=2))
    return H


def energy(u: VectorField, params: EnergyParams, region=None) -> float:
    """The double-sum energy over ordered pairs of the region, as the
    change from the zero map, whose energy is exactly 0 (see _change)."""
    return _change(u.grid, np.zeros_like(u.samples), u.samples, params.s, params.p, region)


def seminorm(f, s: float, p: float) -> float:
    """Gagliardo-type seminorm: energy(...)^{1/p} over the whole torus, the
    energy as the change from the zero map.

    Valid for any p > 1.
    """
    if isinstance(f, ScalarField):
        samples = f.samples[:, None]
    elif isinstance(f, VectorField):
        samples = f.samples
    else:
        raise TypeError(f"expected a field, got {type(f).__name__}")
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")
    return _change(f.grid, np.zeros_like(samples), samples, s, p, None) ** (1.0 / p)


def _du_weight(dus: list, p: float):
    """|du|^{p-2}, with the 0^0 := 1 convention at p = 2 and 0 at |du| = 0
    for p < 2 (see the module docstring)."""
    if p == 2.0:
        return 1.0
    wgt = _sq_norm(dus)
    if p < 2.0:  # the mask keeps the zeros; `**=` keeps numpy's sqrt path at p = 3
        np.power(wgt, (p - 2.0) / 2.0, out=wgt, where=wgt > 0.0)
    else:
        wgt **= (p - 2.0) / 2.0
    return wgt


def pair_flux(u: VectorField, params: EnergyParams, region=None) -> VectorField:
    """The pair flux G^B(x) = sum_{y in B} w(y - x) |du|^{p-2} du with
    du = u(x) - u(y), for x in the region B and zero outside it: a spectral
    pass at p = 4 over the whole torus, a pair pass otherwise."""
    if _spectral_route(params.p, region):
        v = u.samples - np.mean(u.samples, axis=0)
        G = 0.5 * _cubic_form(u.grid, v, v, params.s, params.p)
        return VectorField(grid=u.grid, components=u.components, samples=G)
    return _pair_flux(u, params, region)


def _pair_flux(u: VectorField, params: EnergyParams, region) -> VectorField:
    """pair_flux as one half-lag pair pass.

    Each half lag z forms F_z = c'(z) w(z) |du_z|^{p-2} du_z once. The
    forward term F_z(x) is a running sum over the half lags in
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
                                                           _check_region(region, grid), step):
        k = len(dus[0])
        wgt = half[slots, None] * _du_weight(dus, params.p)
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
    """E(v) - E(u) over the whole torus, free of the cancellation between
    two rounded totals (see _change)."""
    if v.grid != u.grid or v.components != u.components:
        raise ValueError("energy_change needs two fields on one grid with one component count")
    return _change(u.grid, u.samples, v.samples, params.s, params.p, None)


def _change(grid: GridSpec, u: np.ndarray, v: np.ndarray, s: float, p: float, region) -> float:
    """E(v) - E(u) over ordered pairs of the region for (S, N) samples u and
    v, formed from the differences e = v - u and f = v + u: at p = 4 over
    the whole torus <e, H([e f], f)> / 2 (see _cubic_form), which carries
    a factor of e, so nothing of the size of E cancels; a pair pass
    otherwise. This is the one route decision of energy, seminorm and
    energy_change; the first two start from the zero map, whose energy is
    exactly 0: there e = f = v and the spectral change is
    <v, H(v, v)> = E(v)."""
    if not _spectral_route(p, region):
        return _pair_change(PairKernelCache.from_exponent(grid, s, p), u, v, p, region)
    e = v - u
    e -= np.mean(e, axis=0)
    f = v + u
    f -= np.mean(f, axis=0)
    return float(0.5 * np.sum(e * _cubic_form(grid, np.hstack([e, f]), f, s, p)))


def _pair_change(kernel: PairKernelCache, u: np.ndarray, v: np.ndarray, p: float, region) -> float:
    """E(v) - E(u) as one half-lag pair sum of w (|D_v|^p - |D_u|^p), each
    term times m(x) m(x + z) on a region.

    The pass runs on the stacked samples [v - u, v + u], whose differences
    are e = D_v - D_u and f = D_v + D_u, so |D_v|^2 - |D_u|^2 = e . f comes
    without cancellation. At p = 2 that is the pair term. Otherwise, with
    b = |D_u|^2, a = |D_v|^2 and q = p / 2, the term is
    a^q - b^q = b^q expm1(q log1p((a - b) / b)) where |a - b| <= b, and
    the direct form where b = 0 or a > 2 b, which cancels little. From the
    zero map b = 0, so every term is the direct |D_v|^p.
    """
    grid, N = kernel.grid, u.shape[1]
    stacked = np.concatenate([v - u, v + u], axis=1)
    lag_change = np.zeros(len(kernel.half_weights))
    # the pass differences 2N components, twice a pair pass's N, so half as
    # many lags per block keep its temporaries at a pair pass's size; a lag's
    # sum does not depend on how many lags share its block
    for slots, _, _, dus, pair_mask in _lag_blocks(grid, stacked, _check_region(region, grid),
                                                   max(1, _block_lags(grid) // 2)):
        e, f = dus[:N], dus[N:]
        vals = e[0] * f[0]
        for ei, fi in zip(e[1:], f[1:]):
            vals += ei * fi
        if p != 2.0:
            for ei, fi in zip(e, f):
                fi -= ei
                fi *= 0.5  # D_u
            vals = _power_change(_sq_norm(f), vals, p / 2)
        if pair_mask is not None:
            vals *= pair_mask
        lag_change[slots] = kernel.half_weights[slots] * vals.sum(axis=1)
    return 2.0 * float(np.sum(lag_change))


def _power_change(b: np.ndarray, diff: np.ndarray, q: float) -> np.ndarray:
    """(b + diff)^q - b^q for b >= 0, with b + diff >= 0 up to rounding.
    Overwrites diff. Each of the two forms is computed only if some term
    takes it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bq = b**q
        r = np.maximum(diff / b, -1.0)  # NaN or inf where b = 0
        far = ~(r <= 1.0)
        if far.any():
            diff += b
            np.maximum(diff, 0.0, out=diff)
            diff **= q
            diff -= bq
            if far.all():
                return diff
        near = np.log1p(r, out=r)
        near *= q
        np.expm1(near, out=near)
        near *= bq
    np.copyto(near, diff, where=far)
    return near


def energy_gradient(u: VectorField, params: EnergyParams) -> VectorField:
    """Exact gradient of the discrete energy.

    g(x) = 2 p sum_y w(y-x) |u(x)-u(y)|^{p-2} (u(x) - u(y)) = 2 p G(x)
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


def el_residual(u: VectorField, phi: ScalarField, omega: np.ndarray, params: EnergyParams) -> float:
    """Euler-Lagrange pairing of u against the test field omega u phi.

    residual = sum_{x != y} w(y-x) |du|^{p-2}
               sum_i (u^i(x) - u^i(y)) (q^i(x) - q^i(y)),
    with q^i = omega_ij u^j phi, evaluated as 2 sum_x q(x) . G(x).
    Vanishes at critical points, and exactly for omega = 0 or constant u.
    """
    return el_pairing(u, pair_flux(u, params), phi, omega)


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


# terms of the image series in _kappa_duality_1d. For 0 < t < 1 the m-th
# term is at most 2 zeta(2) 4^{-m} on the grid, |a| <= 1/2 (|C(t-1, 2m)| <= 1
# and zeta(1-t+2m) <= zeta(2)), so the tail after K terms is at most
# 2 zeta(2) 4^{-K} / 3: below 1e-18 at K = 30, under 1/200 of the float64
# spacing at 1.
DUALITY_SERIES_TERMS = 30


@lru_cache(maxsize=32)
def _kappa_duality_1d(grid: GridSpec, t: float) -> np.ndarray:
    """Cell-averaged periodized Riesz kernel for the duality quadrature, as
    a read-only length-M lag kernel.

    The free-space kernel |d|^{t-1} is integrated exactly over grid cells
    (product integration) and the periodic images are added at the cell
    midpoints d = j h, 0 < j <= M/2, through the zeta-regularized sum

        S(d) = L^{t-1} [zeta(1-t, 1+a) + zeta(1-t, 1-a) - 2 zeta(1-t)],

    a = d/L. S is even and analytic on |a| < 1, and its Taylor series
    about argument 1 (DLMF 25.11.10) is

        S(d) = L^{t-1} sum_{m>=1} 2 C(t-1, 2m) zeta(1-t+2m) a^{2m}.

    Its first K = DUALITY_SERIES_TERMS coefficients, all positive, are
    built once per kernel with mpmath's Riemann zeta and summed for every
    cell in one Horner pass over a^2. On the grid |a| <= 1/2 the m-th term
    is at most 2 zeta(2) 4^{-m} L^{t-1}, so the dropped tail is at most
    2 zeta(2) 4^{-K} L^{t-1} / 3 < 1e-18 L^{t-1}. A cell average is
    c^t [(1+e)^t - (1-e)^t] / (t h) with c = j h and e = 1/(2j), each
    power difference formed as expm1(t log1p(+-e)), which keeps it free
    of cancellation; the seam cell around L/2 takes its lower half-cell
    twice. The central cell keeps weight zero: its mass I0 = 2(h/2)^t/t and
    second moment J2 are transplanted onto the +-h and +-2h cells so that
    both moments match, and the cells past M/2 mirror those below it.
    Constants are free of any fit; together with the analytic Riesz
    normalization the pairing identity holds to O(h^2).
    """
    import mpmath as mp

    M, L, h = grid.points_per_axis, grid.box_length, grid.h
    half = M // 2
    j = np.arange(1, half + 1)
    a2 = (j / M) ** 2
    image = np.zeros(half)
    for m in range(DUALITY_SERIES_TERMS, 0, -1):
        image = (image + float(2 * mp.binomial(t - 1, 2 * m) * mp.zeta(1 - t + 2 * m))) * a2
    e = 0.5 / j
    lower = np.expm1(t * np.log1p(-e))
    upper = np.expm1(t * np.log1p(e))
    upper[-1] = -lower[-1]  # the seam cell: both halves lie below L/2
    k = np.zeros(M)
    k[1:half + 1] = (j * h) ** t * (upper - lower) / (t * h) + L ** (t - 1.0) * image
    I0 = 2.0 * (h / 2) ** t / t
    J2 = 2.0 * (h / 2) ** (t + 2) / (t + 2)
    m2 = (J2 / (2 * h * h) - I0 / 2) / 3.0
    m1 = I0 / 2 - m2
    k[1] += m1 / h
    k[2] += m2 / h
    k[half + 1:] = k[half - 1:0:-1]
    k.flags.writeable = False
    return k


def _riesz_correlation(grid: GridSpec, G: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2 sum_x k(x - z) G(x) for a length-S lag kernel k: an FFT correlation,
    through the conjugate spectrum of k, which for the even kernels here is
    its own spectrum up to the FFT's rounding."""
    return 2.0 * fourier_multiply(grid, G, np.conj(lag_spectrum(grid, kernel)))


def t_operator(u: VectorField, t: float, params: EnergyParams, region=None) -> VectorField:
    """Pairing field T u^i(z) = sum_{x!=y in B} P_i(x,y) [k(x-z) - k(y-z)],
    with P(x,y) = w(y-x) |du|^{p-2} du, evaluated as 2 sum_x k(x-z) G^B(x).

    k is the raw minimum-image Riesz kernel dist^{t-n}, the one the
    brute-force cross-checks compare against; its evaluation at zero
    displacement (z landing on x or y) is excluded, i.e. contributes
    nothing. The sum over x is an FFT correlation of G^B with the
    length-S lag kernel.
    """
    _validate_t(t, params)
    G = pair_flux(u, params, region=region).samples
    T = _riesz_correlation(u.grid, G, _kappa_exact(u.grid, t))
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

    evaluated from one pair flux G: left side as t_operator's correlation,
    with the cell-averaged periodized kernel built for the identity in
    place of the raw one (dim 1 only), against the spectral Lambda^t phi,
    right side as 2 gamma_n(t) sum_x phi(x) G(x).
    Returns (lhs vector, rhs vector, relative error).
    """
    from .fracops import frac_laplacian  # here only, so that a solve never loads fracops

    _validate_t(t, params)
    grid = u.grid
    if grid.dim != 1:
        raise ValueError("duality quadrature is implemented for dim 1 only")
    kernel = _kappa_duality_1d(grid, t)
    G = pair_flux(u, params).samples
    lap_phi = frac_laplacian(phi, t).samples
    lhs = grid.h**grid.dim * (lap_phi @ _riesz_correlation(grid, G, kernel))
    rhs = 2.0 * riesz_pairing_constant(t, grid.dim) * (phi.samples @ G)
    if not (lhs.any() or rhs.any()):  # a constant map: G is exactly zero
        return lhs, rhs, 0.0
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
