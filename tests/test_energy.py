"""The pair energy and its variations against the naive loops of
oracles.py and against bit-for-bit reference passes."""
import tracemalloc

import numpy as np
import pytest

from fracmap.energy import (
    EnergyParams,
    PairKernelCache,
    _pair_change,
    _pair_flux,
    _pair_symbol,
    _pair_weights,
    duality_check,
    el_pairing,
    el_residual,
    energy,
    energy_change,
    energy_gradient,
    first_variation,
    holefill_check,
    pair_flux,
    seminorm,
    t_operator,
)
from fracmap.grid import (
    BallHierarchy,
    ScalarField,
    VectorField,
    ball_mask,
    make_grid,
    site_coords,
    torus_dist,
)
from fracmap.solver import project_sphere
from oracles import (
    lag_kernel,
    lag_table,
    lag_weights,
    naive_change_longdouble,
    naive_el_residual,
    naive_energy,
    naive_flux,
    naive_t_operator,
    ordered_pairs,
    unit_field,
)

TWO_PI = 2.0 * np.pi


def test_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(s=1.0, p=2.0)
    with pytest.raises(ValueError):
        EnergyParams(s=0.5, p=1.0)
    EnergyParams(s=0.5, p=1.5)  # one energy for every p > 1, also below 2


def test_energy_constant_is_zero():
    # from the zero map, a constant's pair terms are 0/0, which takes the
    # direct form; every flux term has du = 0, which is 0 also for p < 2
    g = make_grid(1, 16, TWO_PI)
    u = VectorField(grid=g, samples=np.tile([0.6, 0.8], (16, 1)))
    mask = np.arange(16) < 9
    for p in (2.0, 3.0, 4.0, 1.5):
        params = EnergyParams(s=0.5, p=p)
        for region in (None, mask):
            assert energy(u, params, region=region) == 0.0, (p, region)
            assert not pair_flux(u, params, region=region).samples.any(), (p, region)
    assert seminorm(u, 0.5, 3.0) == 0.0


def test_flux_below_p_2_takes_coincident_samples_as_zero_terms():
    # |du|^{p-2} is infinite where u(x) = u(y); its term |du|^{p-2} du,
    # of size |du|^{p-1}, is 0 there
    g = make_grid(1, 16, TWO_PI)
    u = unit_field(g, seed=47)
    samples = u.samples.copy()
    samples[[3, 4, 9, 12]] = samples[3]
    u = VectorField(grid=g, samples=samples)
    params = EnergyParams(s=0.6, p=1.5)
    want = naive_flux(g, u.samples, 0.6, 1.5)
    got = pair_flux(u, params).samples
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_energy_matches_naive_loop_1d():
    g = make_grid(1, 16, TWO_PI)
    u = unit_field(g, seed=11)
    for s, p in [(0.5, 2.0), (0.35, 3.0), (0.6, 1.5)]:
        params = EnergyParams(s=s, p=p)
        want = naive_energy(g, u.samples, s, p)
        got = energy(u, params)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_energy_matches_naive_loop_2d():
    g = make_grid(2, 8, TWO_PI)
    u = unit_field(g, seed=12, components=3)
    params = EnergyParams(s=0.5, p=2.0)
    want = naive_energy(g, u.samples, 0.5, 2.0)
    got = energy(u, params)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_energy_region_matches_naive_loop():
    g = make_grid(1, 16, TWO_PI)
    u = unit_field(g, seed=13)
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=1.0, level_max=1)
    mask = ball_mask(hier, 1)
    params = EnergyParams(s=0.5, p=2.0)
    want = naive_energy(g, u.samples, 0.5, 2.0, mask=mask)
    got = energy(u, params, region=mask)
    assert abs(got - want) <= 1e-12 * abs(want)
    # a 2d ball centred at the origin crosses both seams, so its pairs come
    # from lag windows that wrap around the torus
    g = make_grid(2, 8, TWO_PI)
    u = unit_field(g, seed=33, components=3)
    hier = BallHierarchy(grid=g, center=(0.0, 0.0), base_radius=1.0, level_max=1)
    mask = ball_mask(hier, 1)
    assert mask[0] and mask[g.n_sites - 1] and not mask.all()
    for p in (2.0, 3.0):
        params = EnergyParams(s=0.5, p=p)
        want = naive_energy(g, u.samples, 0.5, p, mask=mask)
        got = energy(u, params, region=mask)
        assert abs(got - want) <= 1e-12 * abs(want)
        want = naive_flux(g, u.samples, 0.5, p, mask=mask)
        got = pair_flux(u, params, region=mask).samples
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert not got[~mask].any()


def test_energy_scaling_homogeneity():
    # E(lam * u) = |lam|^p E(u)
    g = make_grid(1, 32, TWO_PI)
    u = unit_field(g, seed=14)
    for p in (2.0, 3.0):
        params = EnergyParams(s=0.5, p=p)
        base = energy(u, params)
        scaled = VectorField(grid=g, samples=2.5 * u.samples)
        np.testing.assert_allclose(energy(scaled, params), 2.5 ** p * base, rtol=1e-13)


def test_energy_translation_invariance():
    g = make_grid(1, 32, TWO_PI)
    u = unit_field(g, seed=15)
    params = EnergyParams(s=0.5, p=2.0)
    rolled = VectorField(grid=g, samples=np.roll(u.samples, 5, axis=0))
    np.testing.assert_allclose(energy(rolled, params), energy(u, params), rtol=1e-13)


def test_energy_and_gradient_stay_below_one_dense_pair_array():
    # the passes are lag-major over a length-S kernel: together they never
    # hold as much as one S x S float64 array (8 MB on this grid); the
    # exponent 2 + 0.55 * 4.1 is built by no other test, so the kernel
    # build falls inside the measurement
    g = make_grid(2, 32, TWO_PI)
    u = unit_field(g, seed=34, components=3)
    params = EnergyParams(s=0.55, p=4.1)
    tracemalloc.start()
    try:
        energy(u, params)
        energy_gradient(u, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n_sites ** 2 * 8


def test_seminorm_power_equals_scalar_energy():
    g = make_grid(1, 16, TWO_PI)
    x = site_coords(g)[:, 0]
    f = ScalarField(grid=g, samples=np.cos(x) + 0.3 * np.sin(2 * x))
    for s, p in [(0.5, 2.0), (0.45, 1.8)]:
        sn = seminorm(f, s, p)
        want = naive_energy(g, f.samples[:, None], s, p)
        np.testing.assert_allclose(sn ** p, want, rtol=1e-12)


def test_gradient_matches_finite_differences():
    g = make_grid(1, 16, TWO_PI)
    u = unit_field(g, seed=17)
    params = EnergyParams(s=0.5, p=1.5)
    grad = energy_gradient(u, params)
    rng = np.random.default_rng(18)
    for _ in range(4):
        direction = rng.normal(size=u.samples.shape)
        step = 1e-6
        up = VectorField(grid=g, samples=u.samples + step * direction)
        dn = VectorField(grid=g, samples=u.samples - step * direction)
        fd = (energy(up, params) - energy(dn, params)) / (2 * step)
        analytic = float((grad.samples * direction).sum())
        np.testing.assert_allclose(analytic, fd, rtol=1e-7)


def test_first_variation_vanishes_for_radial_directions():
    g = make_grid(1, 32, TWO_PI)
    u = unit_field(g, seed=19)
    params = EnergyParams(s=0.5, p=2.0)
    rng = np.random.default_rng(20)
    radial = u.samples * rng.normal(size=(g.n_sites, 1))
    psi = VectorField(grid=g, samples=radial)
    assert abs(first_variation(u, psi, params)) < 1e-10


def test_el_residual_matches_naive_loop():
    g = make_grid(1, 16, TWO_PI)
    u = unit_field(g, seed=21)
    x = site_coords(g)[:, 0]
    phi = np.cos(x)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    params = EnergyParams(s=0.5, p=2.0)
    phif = ScalarField(grid=g, samples=phi)
    ball = ball_mask(BallHierarchy(grid=g, center=(np.pi,), base_radius=1.2, level_max=0), 0)
    for mask, got in ((None, el_residual(u, phif, omega, params)),
                      (ball, el_pairing(u, pair_flux(u, params, region=ball), phif, omega))):
        want = naive_el_residual(g, u.samples, phi, omega, 0.5, 2.0, mask=mask)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_el_residual_sign_and_zero_cases():
    g = make_grid(1, 16, TWO_PI)
    u = unit_field(g, seed=22)
    x = site_coords(g)[:, 0]
    phi = ScalarField(grid=g, samples=np.sin(x))
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    params = EnergyParams(s=0.5, p=2.0)
    r = el_residual(u, phi, omega, params)
    r_neg = el_residual(u, phi, -omega, params)
    assert r_neg == -r  # exact antisymmetry in the generator
    const = VectorField(grid=g, samples=np.tile([1.0, 0.0], (16, 1)))
    assert el_residual(const, phi, omega, params) == 0.0
    assert el_residual(u, phi, np.zeros((2, 2)), params) == 0.0


def test_el_residual_rejects_bad_generator():
    g = make_grid(1, 8, TWO_PI)
    u = unit_field(g, seed=23)
    phi = ScalarField(grid=g, samples=np.ones(8))
    params = EnergyParams(s=0.5, p=2.0)
    with pytest.raises(ValueError):
        el_residual(u, phi, np.array([[0.0, 1.0], [1.0, 0.0]]), params)
    with pytest.raises(ValueError):
        el_residual(u, phi, np.array([[0.0, 2.0], [-2.0, 0.0]]), params)


def test_t_operator_exact_matches_naive_loop():
    g = make_grid(1, 16, TWO_PI)
    u = unit_field(g, seed=24)
    params = EnergyParams(s=0.5, p=2.0)
    t = 0.45
    want = naive_t_operator(g, u.samples, 0.5, 2.0, lag_kernel(g, lambda d: d ** (t - 1.0)))
    got = t_operator(u, t, params)
    np.testing.assert_allclose(got.samples, want, rtol=1e-12, atol=1e-14)


def test_t_operator_region_matches_naive_loop():
    params = EnergyParams(s=0.5, p=2.0)
    t = 0.45
    for g in (make_grid(1, 16, TWO_PI), make_grid(2, 8, TWO_PI)):
        n = g.dim
        u = unit_field(g, seed=25)
        hier = BallHierarchy(grid=g, center=(np.pi,) * n, base_radius=1.2, level_max=0)
        mask = ball_mask(hier, 0)
        kernel = lag_kernel(g, lambda d: d ** (t - n))
        want = naive_t_operator(g, u.samples, 0.5, 2.0, kernel, mask=mask)
        got = t_operator(u, t, params, region=mask)
        np.testing.assert_allclose(got.samples, want, rtol=1e-12, atol=1e-14)


def test_t_operator_duality_mode_matches_naive_loop():
    # same pairing structure, cell-averaged kernel taken from the module,
    # correlated with the flux as duality_check does
    from fracmap.energy import _kappa_duality_1d, _riesz_correlation, pair_flux

    g = make_grid(1, 16, TWO_PI)
    u = unit_field(g, seed=26)
    params = EnergyParams(s=0.5, p=2.0)
    t = 0.45
    karr = _kappa_duality_1d(g, t)
    want = naive_t_operator(g, u.samples, 0.5, 2.0, karr)
    got = _riesz_correlation(g, pair_flux(u, params).samples, karr)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def naive_kappa_duality_1d(M, L, t):
    # the cell-averaged periodized kernel cell by cell, the images from two
    # Hurwitz zeta calls per cell; 30 digits, since in float64 the cell
    # average's difference (c + h/2)^t - (c - h/2)^t loses up to
    # 3e-14 max|k| to cancellation at t = 0.95, M = 512
    import mpmath as mp

    with mp.workdps(30):
        t, L = mp.mpf(t), mp.mpf(L)
        h = L / M
        half = M // 2
        k = [mp.mpf(0)] * M
        for j in range(1, half + 1):
            c = j * h
            if j == half:
                sing = 2 * ((L / 2) ** t - (L / 2 - h / 2) ** t) / (t * h)
            else:
                sing = ((c + h / 2) ** t - (c - h / 2) ** t) / (t * h)
            a = mp.mpf(j) / M
            k[j] = sing + L ** (t - 1) * (mp.zeta(1 - t, 1 + a) + mp.zeta(1 - t, 1 - a)
                                          - 2 * mp.zeta(1 - t))
        I0 = 2 * (h / 2) ** t / t
        J2 = 2 * (h / 2) ** (t + 2) / (t + 2)
        m2 = (J2 / (2 * h * h) - I0 / 2) / 3
        k[1] += (I0 / 2 - m2) / h
        k[2] += m2 / h
        for j in range(half + 1, M):
            k[j] = k[M - j]
        return np.array([float(v) for v in k])


@pytest.mark.parametrize("M", [16, 64, 512])
@pytest.mark.parametrize("t", [0.05, 0.45, 0.95])
def test_duality_kernel_matches_hurwitz_loop(M, t):
    from fracmap.energy import _kappa_duality_1d

    got = _kappa_duality_1d(make_grid(1, M, TWO_PI), t)
    want = naive_kappa_duality_1d(M, TWO_PI, t)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_duality_kernel_build_makes_no_hurwitz_zeta_call(monkeypatch):
    import mpmath

    from fracmap.energy import _kappa_duality_1d

    calls = []
    zeta = mpmath.zeta

    def counting_zeta(*args, **kwargs):
        calls.append(len(args) + len(kwargs))
        return zeta(*args, **kwargs)

    monkeypatch.setattr(mpmath, "zeta", counting_zeta)
    _kappa_duality_1d.cache_clear()
    _kappa_duality_1d(make_grid(1, 64, TWO_PI), 0.45)
    assert calls and set(calls) == {1}


def test_duality_identity_at_fixture():
    # winding-type field and a mixed-mode test function; the relative gap
    # must sit at the cell-averaging floor and shrink under refinement
    def fields(M):
        g = make_grid(1, M, TWO_PI)
        x = site_coords(g)[:, 0]
        theta = x + 0.3 * np.sin(x) + 0.15 * np.cos(2 * x)
        u = VectorField(grid=g, samples=np.stack([np.cos(theta), np.sin(theta)], axis=1))
        phi = ScalarField(grid=g, samples=0.7 * np.cos(x) - 0.4 * np.sin(2 * x)
                          + 0.2 * np.cos(3 * x) + 0.1 * np.sin(4 * x))
        return u, phi

    params = EnergyParams(s=0.5, p=2.0)
    u64, phi64 = fields(64)
    lhs, rhs, rel64 = duality_check(u64, phi64, 0.45, params)
    assert rel64 <= 1e-3
    assert np.linalg.norm(lhs) > 0 and np.linalg.norm(rhs) > 0
    u128, phi128 = fields(128)
    _, _, rel128 = duality_check(u128, phi128, 0.45, params)
    assert rel64 / rel128 >= 2.0


def test_holefill_inequality_and_nesting():
    g = make_grid(1, 64, TWO_PI)
    rng = np.random.default_rng(27)
    x = site_coords(g)[:, 0]
    theta = x + 0.2 * rng.normal() * np.sin(x) + 0.1 * rng.normal() * np.cos(2 * x)
    u = VectorField(grid=g, samples=np.stack([np.cos(theta), np.sin(theta)], axis=1))
    params = EnergyParams(s=0.5, p=2.0)
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.3, level_max=3)
    lhs, rhs, ok = holefill_check(u, hier, 0, 3, params)
    assert ok and lhs <= rhs + 1e-12 * max(1.0, abs(rhs))
    with pytest.raises(ValueError):
        holefill_check(u, hier, 3, 0, params)
    with pytest.raises(ValueError):
        holefill_check(u, hier, 0, 4, params)


def test_holefill_difference_is_cross_term_sum():
    # E(B_L) - E(B_K) counts exactly the ordered pairs that touch the ring,
    # so the identity below is termwise and holds to machine precision
    g = make_grid(1, 32, TWO_PI)
    u = unit_field(g, seed=28)
    params = EnergyParams(s=0.5, p=2.0)
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.5, level_max=2)
    inner = ball_mask(hier, 0)
    outer = ball_mask(hier, 2)
    e_outer = energy(u, params, region=outer)
    e_inner = energy(u, params, region=inner)
    w = lag_weights(g, 0.5, 2.0)[lag_table(g)]
    cross = 0.0
    for i, j in ordered_pairs(g.n_sites, outer):
        if inner[i] and inner[j]:
            continue
        cross += w[i, j] * float(((u.samples[i] - u.samples[j]) ** 2).sum())
    np.testing.assert_allclose(e_outer - e_inner, cross, rtol=1e-12)


# ids as when each case also named a regularizer, which the energy no longer has
@pytest.mark.parametrize("p", [2.0, 1.5], ids=["2.0-0.0", "1.5-0.001"])
def test_holefill_sides_match_naive_loops(p):
    # lhs sums x in B_L, y in the ring B_L minus B_K; rhs = E(B_L) - E(B_K)
    # is every ordered pair of B_L that is not a pair of B_K
    g = make_grid(1, 32, TWO_PI)
    u = unit_field(g, seed=32)
    params = EnergyParams(s=0.5, p=p)
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.4, level_max=2)
    inner = ball_mask(hier, 0)
    outer = ball_mask(hier, 2)
    w = lag_weights(g, 0.5, p)[lag_table(g)]
    lhs_want = rhs_want = 0.0
    for i, j in ordered_pairs(g.n_sites, outer):
        term = w[i, j] * float(((u.samples[i] - u.samples[j]) ** 2).sum()) ** (p / 2.0)
        if not inner[j]:
            lhs_want += term
        if not (inner[i] and inner[j]):
            rhs_want += term
    lhs, rhs, ok = holefill_check(u, hier, 0, 2, params)
    assert ok and lhs < rhs
    np.testing.assert_allclose(lhs, lhs_want, rtol=1e-12)
    np.testing.assert_allclose(rhs, rhs_want, rtol=1e-12)


def test_folded_passes_match_naive_loops_2d_random_region():
    # at M = 8 the half-lag set holds the self-inverse lags (4, 0), (0, 4)
    # and (4, 4), which the passes count once; a random region breaks every
    # symmetry a ball would have
    g = make_grid(2, 8, TWO_PI)
    u = unit_field(g, seed=35, components=3)
    mask = np.random.default_rng(36).random(g.n_sites) < 0.5
    for p in (2.0, 3.0, 4.0, 1.5):
        params = EnergyParams(s=0.5, p=p)
        for region in (None, mask):
            want = naive_energy(g, u.samples, 0.5, p, mask=region)
            assert abs(energy(u, params, region=region) - want) <= 1e-12 * abs(want)
            want = naive_flux(g, u.samples, 0.5, p, mask=region)
            got = pair_flux(u, params, region=region).samples
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ids as when each case also named a regularizer, which the energy no longer has
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 1.5], ids=["2.0-0.0", "3.0-0.0", "4.0-0.0", "1.5-0.001"])
@pytest.mark.parametrize("dim, M", [(1, 16), (2, 8)])
def test_energy_change_is_the_exact_difference(dim, M, p):
    g = make_grid(dim, M, TWO_PI)
    u = unit_field(g, seed=37)
    params = EnergyParams(s=0.5, p=p)
    assert energy_change(u, u, params) == 0.0
    # well separated: the plain difference of the totals is accurate
    far = unit_field(g, seed=38)
    plain = energy(far, params) - energy(u, params)
    assert abs(energy_change(u, far, params) - plain) <= 1e-12 * abs(plain)
    # 1e-9 apart: the totals share all but their last digits, the change
    # keeps its own
    rng = np.random.default_rng(39)
    near = VectorField(grid=g,
                       samples=project_sphere(u.samples + 1e-9 * rng.normal(size=u.samples.shape)))
    want = float(naive_change_longdouble(g, u.samples, near.samples, 0.5, p))
    plain = energy(near, params) - energy(u, params)
    assert abs(plain - want) > 1e-9 * abs(want)
    assert abs(energy_change(u, near, params) - want) <= 1e-12 * abs(want)


def test_pair_kernel_matches_direct_distance_loop():
    for g in (make_grid(1, 32, TWO_PI), make_grid(2, 8, TWO_PI)):
        params = EnergyParams(s=0.5, p=3.0)
        w = PairKernelCache(g, params).weights
        coords = site_coords(g)
        exponent = g.dim + params.s * params.p
        d = np.array([torus_dist(coords[j], coords[0], g.box_length) for j in range(g.n_sites)])
        want = np.zeros(g.n_sites)
        want[1:] = g.h ** (2 * g.dim) / d[1:] ** exponent
        # lag -z sits at the mirrored index on every axis, and w(-z) = w(z)
        # exactly; up to half the axis the lag is its own minimum image
        M = g.points_per_axis
        lag = np.unravel_index(np.arange(g.n_sites), (M,) * g.dim)
        mirror = np.ravel_multi_index(tuple((-i) % M for i in lag), (M,) * g.dim)
        np.testing.assert_array_equal(w[mirror], w)
        half = np.all(np.stack(lag) <= M // 2, axis=0)
        np.testing.assert_array_equal(w[half], want[half])
        np.testing.assert_allclose(w, want, rtol=1e-14)
        # the one weight the naive loops of oracles.py read is the module's
        np.testing.assert_array_equal(lag_weights(g, params.s, params.p), w)


def test_pair_kernel_built_once_per_process():
    g = make_grid(1, 32, TWO_PI)
    a = PairKernelCache(g, EnergyParams(s=0.5, p=2.0))
    b = PairKernelCache.from_exponent(g, 0.5, 2.0)
    assert a.weights is b.weights and a.half_weights is b.half_weights
    assert not a.weights.flags.writeable
    assert a.weights.shape == (g.n_sites,)
    # the kernel is keyed on (grid, s, p): in 1d, (1/2, 2) and (1/4, 4)
    # share n + s p = 2, so they are distinct cache entries with equal bits
    c = PairKernelCache(g, EnergyParams(s=0.25, p=4.0))
    for mine, other in ((c.weights, a.weights), (c.half_weights, a.half_weights),
                        (_pair_symbol(g, 0.25, 4.0), _pair_symbol(g, 0.5, 2.0))):
        assert mine is not other
        np.testing.assert_array_equal(mine, other)
    # a lag kernel stays small where an S x S matrix would take 2 GB
    big = make_grid(2, 128, TWO_PI)
    assert PairKernelCache(big, EnergyParams(s=0.5, p=2.0)).weights.shape == (big.n_sites,)


@pytest.mark.parametrize("dim, M, L, s, p", [
    (1, 64, 1e200, 0.5, 2.0),  # h^2 overflows
    (2, 8, 1e100, 0.5, 4.0),  # h^4 overflows
    (1, 64, 1e-200, 0.5, 2.0),  # h^2 underflows
    (1, 64, 1e-100, 0.9, 10.0),  # h^2 is normal, the nearest d^10 underflows
    (1, 64, 1e100, 0.9, 10.0),  # h^2 is normal, the farthest d^10 overflows
])
def test_pair_weights_raise_outside_the_float64_range(dim, M, L, s, p):
    # the out-of-range grids of test_malformed_values_exit_2_with_one_line
    # are valid grids; the kernel refuses them, with no RuntimeWarning
    g = make_grid(dim, M, L)
    with pytest.raises(ValueError, match="outside the normal float64 range"):
        _pair_weights(g, s, p)


def _circle_field(grid, theta):
    return VectorField(grid=grid, samples=np.stack([np.cos(theta), np.sin(theta)], axis=1))


@pytest.fixture(scope="module")
def spectral_fields():
    """Fields on which the p = 4 spectral passes meet the pair passes:
    random unit fields in 1d and 2d with N = 2 and 3, a band-limited 2d
    start and the near-constant map the descent takes it to, and the 2d
    winding x_0 + 0.3 sin x_0 + 0.2 sin x_1."""
    from fracmap.lab import band_limited_family
    from fracmap.solver import SolverConfig, minimize

    fields = {}
    for dim, M in ((1, 64), (1, 256), (2, 16), (2, 32)):
        g = make_grid(dim, M, TWO_PI)
        for N in (2, 3):
            fields[f"random-{dim}d-M{M}-N{N}"] = unit_field(g, seed=50 + M + N, components=N)
    g = make_grid(2, 32, TWO_PI)
    start = _circle_field(g, band_limited_family(g, 1, 0, max_mode=6)[0].samples)
    fields["band-limited-2d"] = start
    fields["band-limited-2d-solved"], _ = minimize(start, EnergyParams(s=0.5, p=4.0),
                                                   SolverConfig(max_iters=100))
    x = site_coords(g)
    fields["winding-2d"] = _circle_field(g, x[:, 0] + 0.3 * np.sin(x[:, 0]) + 0.2 * np.sin(x[:, 1]))
    return fields


def _pair_energy(u, params, region=None):
    """The pair-pass energy: the pair change from the zero map."""
    kernel = PairKernelCache(u.grid, params)
    return _pair_change(kernel, np.zeros_like(u.samples), u.samples, params.p, region)


def test_spectral_passes_match_pair_passes(spectral_fields):
    params = EnergyParams(s=0.5, p=4.0)
    rng = np.random.default_rng(44)
    for label, u in spectral_fields.items():
        want = _pair_energy(u, params)
        assert abs(energy(u, params) - want) <= 1e-12 * want, label
        assert abs(seminorm(u, 0.5, 4.0) - want**0.25) <= 1e-12 * want**0.25, label
        G = _pair_flux(u, params, None).samples
        assert np.abs(pair_flux(u, params).samples - G).max() <= 1e-12 * np.abs(G).max(), label
        # the change to a field 1e-3 away. The spectral change rounds with
        # max D times norms of e and f, not with the change: 1e-6 and 1e-4
        # away from the 2d winding at M = 32 it is off by 1e-14 to 4e-13 of
        # the change, the most under random angle noise, where the change is
        # smallest; the pair sum by at most 2e-14 (both against a
        # long-double pair sum)
        near = VectorField(grid=u.grid,
                           samples=project_sphere(u.samples + 1e-3 * rng.normal(size=u.samples.shape)))
        change = _pair_change(PairKernelCache(u.grid, params), u.samples, near.samples, 4.0, None)
        assert abs(energy_change(u, near, params) - change) <= 1e-12 * abs(change), label
    # a scalar field, as the EL suite's test functions are
    g = make_grid(2, 16, TWO_PI)
    x = site_coords(g)
    f = ScalarField(grid=g, samples=np.cos(x[:, 0]) * np.sin(2 * x[:, 1]))
    samples = f.samples[:, None]
    kernel = PairKernelCache(g, params)
    want = _pair_change(kernel, np.zeros_like(samples), samples, 4.0, None) ** 0.25
    assert abs(seminorm(f, 0.5, 4.0) - want) <= 1e-12 * want


def test_spectral_passes_give_exact_zeros_for_constants():
    params = EnergyParams(s=0.5, p=4.0)
    for dim, M in ((1, 16), (1, 512), (2, 8), (2, 32)):
        g = make_grid(dim, M, TWO_PI)
        for value in ([0.6, 0.8], [1.0 / 3.0, -2.0 / 3.0, 2.0 / 3.0], [-0.1234567]):
            u = VectorField(grid=g, samples=np.tile(value, (g.n_sites, 1)))
            assert energy(u, params) == 0.0
            assert not pair_flux(u, params).samples.any()
            assert seminorm(u, 0.5, 4.0) == 0.0
            other = VectorField(grid=g, samples=np.tile(np.negative(value), (g.n_sites, 1)))
            assert energy_change(u, other, params) == 0.0


def test_only_p4_full_torus_passes_are_spectral():
    # every other pass is the pair pass itself, to the last bit
    g = make_grid(2, 8, TWO_PI)
    u = unit_field(g, seed=40, components=3)
    v = unit_field(g, seed=45, components=3)
    mask = np.random.default_rng(41).random(g.n_sites) < 0.5
    for p, region in [(2.0, None), (3.0, None), (4.0, mask), (1.5, None)]:
        params = EnergyParams(s=0.5, p=p)
        kernel = PairKernelCache(g, params)
        assert energy(u, params, region=region) == _pair_energy(u, params, region)
        np.testing.assert_array_equal(pair_flux(u, params, region=region).samples,
                                      _pair_flux(u, params, region).samples)
        if region is None:
            assert energy_change(u, v, params) == _pair_change(kernel, u.samples, v.samples, p,
                                                               None)
    kernel = PairKernelCache.from_exponent(g, 0.5, 3.0)
    zero = np.zeros_like(u.samples)
    assert seminorm(u, 0.5, 3.0) == _pair_change(kernel, zero, u.samples, 3.0, None) ** (1 / 3)
    params = EnergyParams(s=0.5, p=4.0)
    kernel = PairKernelCache(g, params)
    assert energy(u, params) != _pair_energy(u, params)
    assert energy_change(u, v, params) != _pair_change(kernel, u.samples, v.samples, 4.0, None)


def test_energy_change_peaks_no_higher_than_the_flux():
    # energy_change and the region energy difference 2N components where
    # the flux takes N, so they run half-size lag blocks; every kernel is
    # built before measuring
    g = make_grid(1, 256, TWO_PI)
    u = unit_field(g, seed=42)
    v = unit_field(g, seed=43)
    params = EnergyParams(s=0.5, p=3.0)
    mask = np.arange(g.n_sites) < 160
    peaks = []
    for run in (lambda: pair_flux(u, params), lambda: energy_change(u, v, params),
                lambda: energy(u, params, region=mask)):
        run()
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    flux_peak, change_peak, region_peak = peaks
    assert change_peak <= flux_peak
    assert region_peak <= flux_peak


# Reference copy of the half-lag pair passes that fix the floats of energy
# and energy_gradient. The passes visit one lag z of each pair {z, -z},
# z != 0: the lags with 0 < F(z) <= F(-z), in the order of
# F(z) = z_0 + M z_1 (the first lag coordinate runs fastest). A lag carries
# c'(z) w(z), with c' = 1/2 on self-inverse lags (F(z) = F(-z)) and 1
# elsewhere, and du_z = u(x) - u(x + z) comes from np.roll. The energy of a
# lag is one numpy sum over the sites times c' w, and the energy is twice
# one numpy sum of the lag energies. The flux forms F_z = c' w phi du_z once
# per lag; its forward term F_z(x) is a running sum over the lags, its
# reverse term F_z(x - z) a running sum at each entry of an accumulator
# tiled 2M wide per axis, folded first along axis 0, then along axis 1. The
# module must agree with these bit for bit, so a change of reduction order
# is always a deliberate one.


def _reference_lags(grid, s, p, u, mask=None):
    """(z, c'(z) w(z), du_z, pair mask or None) for each half lag in pass order."""
    M = grid.points_per_axis
    shape = (M,) * grid.dim
    axes = tuple(range(grid.dim))
    w = lag_weights(grid, s, p).reshape(shape)
    U = u.reshape(shape + (u.shape[1],))

    def order(z):
        return int(np.ravel_multi_index(z[::-1], shape))

    lags = [z for z in np.ndindex(shape) if 0 < order(z) <= order(tuple(-c % M for c in z))]
    for z in sorted(lags, key=order):
        c = 0.5 if order(z) == order(tuple(-c % M for c in z)) else 1.0
        shift = tuple(-c for c in z)
        du = (U - np.roll(U, shift, axis=axes)).reshape(u.shape)
        pair = None
        if mask is not None:
            pair = mask & np.roll(mask.reshape(shape), shift, axis=axes).ravel()
        yield z, c * w[z], du, pair


def _reference_energy(grid, s, p, u, mask=None):
    lag_energy = []
    for _, w, du, pair in _reference_lags(grid, s, p, u, mask):
        du2 = (du ** 2).sum(-1)
        if p == 2.0:
            vals = du2
        else:
            vals = du2 ** (p / 2)
        if pair is not None:
            vals = vals * pair
        lag_energy.append(w * np.sum(vals))
    return 2.0 * float(np.sum(lag_energy))


def _reference_gradient(grid, s, p, u):
    M, N = grid.points_per_axis, u.shape[1]
    forward = np.zeros_like(u)
    tiled = np.zeros((2 * M,) * grid.dim + (N,))
    for z, w, du, _ in _reference_lags(grid, s, p, u):
        if p == 2.0:
            wgt = np.full(u.shape[0], w)
        else:
            wgt = w * (du ** 2).sum(-1) ** ((p - 2.0) / 2.0)
        flux = du * wgt[:, None]
        forward += flux
        tiled[tuple(slice(c, c + M) for c in z)] += flux.reshape((M,) * grid.dim + (N,))
    for ax in range(grid.dim):
        tiled = tiled[(slice(None),) * ax + (slice(0, M),)] + tiled[(slice(None),) * ax + (slice(M, None),)]
    return 2.0 * p * (forward - tiled.reshape(u.shape))


# ids as when each case also named a regularizer, which the energy no longer has
@pytest.mark.parametrize("dim, M, N, s, p", [
    pytest.param(1, 128, 2, 0.5, 2.0, id="1-128-2-0.5-2.0-0.0"),
    pytest.param(1, 128, 3, 0.35, 3.0, id="1-128-3-0.35-3.0-0.0"),
    pytest.param(1, 512, 2, 0.5, 4.0, id="1-512-2-0.5-4.0-0.0"),
    pytest.param(2, 16, 2, 0.5, 3.0, id="2-16-2-0.5-3.0-0.0"),
    pytest.param(2, 16, 3, 0.5, 4.0, id="2-16-3-0.5-4.0-0.0"),
    pytest.param(2, 64, 2, 0.5, 4.0, id="2-64-2-0.5-4.0-0.0"),
    pytest.param(1, 64, 2, 0.6, 1.5, id="1-64-2-0.6-1.5-0.001"),
    pytest.param(2, 8, 3, 0.6, 1.5, id="2-8-3-0.6-1.5-0.01"),
])
def test_energy_and_gradient_bit_identical_to_reference(dim, M, N, s, p):
    # the pair passes are called directly: at p = 4 the public functions
    # take the spectral route over the whole torus
    g = make_grid(dim, M, TWO_PI)
    u = unit_field(g, seed=30 + M + N, components=N)
    params = EnergyParams(s=s, p=p)
    mask = np.random.default_rng(31).random(g.n_sites) < 0.6
    assert _pair_energy(u, params) == _reference_energy(g, s, p, u.samples)
    assert energy(u, params, region=mask) == _reference_energy(g, s, p, u.samples, mask)
    np.testing.assert_array_equal(2.0 * p * _pair_flux(u, params, None).samples,
                                  _reference_gradient(g, s, p, u.samples))
