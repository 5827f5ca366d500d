"""Naive reference loops for the pair sums, written straight from the
definitions with explicit Python loops over ordered pairs of sites.

The pair weight w(x - y) = h^{2n} / dist(x, y)^{n + s p} is formed here
once, in lag_weights; test_pair_kernel_matches_direct_distance_loop holds
it to the coordinate distances and to the module's kernel, bit for bit.
Every loop below reads it through lag_table, so a change of the weight is
one edit of lag_weights.
"""
import numpy as np

from fracmap.grid import VectorField, torus_dist
from fracmap.solver import elementary_omegas, project_sphere, tangent_project


def unit_field(grid, seed, components=2):
    """A seeded random map into the unit sphere, kept away from the origin
    before projection."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(grid.n_sites, components))
    raw += np.array([2.0] + [0.0] * (components - 1))
    return VectorField(grid=grid, samples=project_sphere(raw))


def lag_kernel(grid, of_dist):
    """of_dist(dist(z, 0)) for every lag z, a length-S array indexed like
    the sites and zero at z = 0. Each axis offset j is folded to its minimum
    image min(j, M - j) first, so the kernel is exactly even in z."""
    M = grid.points_per_axis
    idx = np.stack(np.unravel_index(np.arange(grid.n_sites), (M,) * grid.dim), axis=-1)
    d = torus_dist(np.minimum(idx, M - idx) * grid.h, 0.0, grid.box_length)
    k = np.zeros_like(d)
    k[d > 0] = of_dist(d[d > 0])
    return k


def lag_weights(grid, s, p):
    """The pair weight w(z) = h^{2n} / dist(z, 0)^{n + s p} as a lag kernel."""
    return lag_kernel(grid, lambda d: grid.h ** (2 * grid.dim) / d ** (grid.dim + s * p))


def lag_table(grid):
    """(S, S) table of lag indices: entry [x, y] is the site index of the
    lag y - x, so kernel[lag_table(grid)][x, y] = k(y - x)."""
    M = grid.points_per_axis
    shape = (M,) * grid.dim
    idx = np.stack(np.unravel_index(np.arange(grid.n_sites), shape), axis=-1)
    lag = (idx[None, :, :] - idx[:, None, :]) % M
    return np.ravel_multi_index(tuple(np.moveaxis(lag, -1, 0)), shape)


def ordered_pairs(n_sites, mask=None):
    """The ordered pairs (x, y), x != y, of the region (every site when mask
    is None), x-major."""
    sites = range(n_sites) if mask is None else np.flatnonzero(mask).tolist()
    for i in sites:
        for j in sites:
            if i != j:
                yield i, j


def naive_energy(grid, samples, s, p, mask=None):
    """sum over ordered pairs x != y of B of w(x - y) |u(x) - u(y)|^p."""
    w = lag_weights(grid, s, p)[lag_table(grid)].tolist()
    total = 0.0
    for i, j in ordered_pairs(grid.n_sites, mask):
        du2 = float(((samples[i] - samples[j]) ** 2).sum())
        total += w[i][j] * du2 ** (p / 2.0)
    return total


def naive_flux(grid, samples, s, p, mask=None):
    """G(x) = sum_{y in B, y != x} w(x - y) |du|^{p-2} du for x in B, zero
    elsewhere; a term with du = 0 is 0, also for p < 2."""
    w = lag_weights(grid, s, p)[lag_table(grid)].tolist()
    out = np.zeros_like(samples)
    for i, j in ordered_pairs(grid.n_sites, mask):
        du = samples[i] - samples[j]
        mag = np.sqrt((du ** 2).sum())
        if mag == 0.0:
            continue
        out[i] += w[i][j] * mag ** (p - 2.0) * du
    return out


def naive_el_residual(grid, samples, phi, omega, s, p, mask=None):
    """sum over ordered pairs of w |du|^{p-2} du . (phi omega u(x) - phi omega u(y))."""
    w = lag_weights(grid, s, p)[lag_table(grid)].tolist()
    total = 0.0
    for i, j in ordered_pairs(grid.n_sites, mask):
        du = samples[i] - samples[j]
        mag = np.sqrt((du ** 2).sum())
        if mag == 0.0:
            continue
        q = (omega @ samples[i]) * phi[i] - (omega @ samples[j]) * phi[j]
        total += w[i][j] * mag ** (p - 2.0) * float(du @ q)
    return total


def naive_t_operator(grid, samples, s, p, kernel, mask=None):
    """T u(z) = sum over ordered pairs of w |du|^{p-2} du [k(x - z) - k(y - z)]
    for an even lag kernel k, zero at zero lag. Each pair term is formed once
    and added to every row z, in the same order as a loop over z, x and y."""
    table = lag_table(grid)
    w = lag_weights(grid, s, p)[table].tolist()
    k = kernel[table]
    out = np.zeros(samples.shape)
    for i, j in ordered_pairs(grid.n_sites, mask):
        du = samples[i] - samples[j]
        mag = np.sqrt((du ** 2).sum())
        if mag == 0.0:
            continue
        pair = w[i][j] * mag ** (p - 2.0) * du
        out += np.outer(k[:, i] - k[:, j], pair)
    return out


def naive_change_longdouble(grid, u, v, s, p):
    """E(v) - E(u) as one loop over ordered pairs in long double. Per pair,
    a - b = |D_v|^2 - |D_u|^2 is (D_v - D_u) . (D_v + D_u) with D_v - D_u
    formed from v - u, and a^q - b^q = b^q expm1(q log1p((a - b) / b))."""
    w = lag_weights(grid, s, p)[lag_table(grid)].astype(np.longdouble)
    U, V = u.astype(np.longdouble), v.astype(np.longdouble)
    q = np.longdouble(p / 2.0)
    total = np.longdouble(0.0)
    for i, j in ordered_pairs(grid.n_sites):
        delta = ((V[i] - U[i]) - (V[j] - U[j])) @ ((V[i] + U[i]) - (V[j] + U[j]))
        b = ((U[i] - U[j]) ** 2).sum()
        total += w[i, j] * b**q * np.expm1(q * np.log1p(delta / b))
    return total


def lagrange_sweep(N, count, seed):
    """Monte-Carlo sweep of the pointwise Lagrange identity

        |v|^2 = (u . v)^2 + sum_omega (v . omega u)^2

    over the EL suite's generators omega of so(N) (solver.elementary_omegas),
    at count seeded draws of a unit u and a vector v. Returns the worst
    deviation |lhs - rhs| / max(1, lhs); the number of draws where |v|
    exceeds sqrt(1 + K), K the number of generators, times the largest
    single term |u . v| or |v . omega u|; and the worst entry of
    sum_omega (omega u)(omega u)^T - P_T, P_T the solver's tangent
    projection at u. That last one is 0 when the images omega u span the
    tangent space at u and are a tight frame of it, which is why the EL
    residuals over these generators vanish exactly at a critical point."""
    omegas = [omega for _, omega in elementary_omegas(N)]
    factor = np.sqrt(1.0 + len(omegas))
    eye = np.eye(N)
    rng = np.random.default_rng(seed)
    worst = span = 0.0
    violations = 0
    for _ in range(count):
        u = rng.standard_normal(N)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(N)
        images = np.array([omega @ u for omega in omegas])
        cross = np.array([float(v @ image) for image in images])
        radial = float(u @ v)
        lhs = float(v @ v)
        rhs = radial**2 + float(np.sum(cross**2))
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
        peak = max(abs(radial), float(np.max(np.abs(cross))))
        if np.sqrt(lhs) > factor * peak * (1.0 + 1e-12):
            violations += 1
        frame = images.T @ images - tangent_project(eye, u[None, :])
        span = max(span, float(np.abs(frame).max()))
    return worst, violations, span
