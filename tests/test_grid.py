import re
from pathlib import Path

import numpy as np
import pytest

from fracmap.grid import (
    BallHierarchy,
    ScalarField,
    VectorField,
    ball_mask,
    fourier_multiply,
    lag_spectrum,
    make_grid,
    site_coords,
    torus_dist,
)

TWO_PI = 2.0 * np.pi


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(3, 16, 1.0)
    with pytest.raises(ValueError):
        make_grid(1, 24, 1.0)  # not a power of two
    with pytest.raises(ValueError):
        make_grid(1, 2, 1.0)  # below the minimum
    with pytest.raises(ValueError):
        make_grid(1, 16, 0.0)
    for bad in (64.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="points_per_axis must be an integer"):
            make_grid(1, bad, 1.0)
    assert make_grid(2.0, 64.0, 1.0) == make_grid(2, 64, 1.0)


def test_grid_derived_quantities():
    g = make_grid(2, 8, 4.0)
    assert g.h == 0.5
    assert g.n_sites == 64


def test_site_coords_lexicographic():
    g = make_grid(1, 8, TWO_PI)
    x = site_coords(g)
    np.testing.assert_allclose(x[:, 0], np.arange(8) * g.h)
    g2 = make_grid(2, 4, 1.0)
    x2 = site_coords(g2)
    # first axis varies slowest
    np.testing.assert_allclose(x2[:4, 0], 0.0)
    np.testing.assert_allclose(x2[:4, 1], np.arange(4) * 0.25)
    np.testing.assert_allclose(x2[4:8, 0], 0.25)


def test_torus_dist_minimum_image():
    # wrap-around: sites at 0 and L-h are one spacing apart
    g = make_grid(1, 16, TWO_PI)
    a = np.array([[0.0]])
    b = np.array([[TWO_PI - g.h]])
    np.testing.assert_allclose(torus_dist(a, b, TWO_PI), [g.h], rtol=1e-14)
    # 2d: independent min-image per axis, then Euclidean
    d = torus_dist(np.array([[0.0, 0.0]]), np.array([[3.9, 0.3]]), 4.0)
    np.testing.assert_allclose(d, [np.hypot(0.1, 0.3)], rtol=1e-14)
    # a point whole periods away is the same point of the torus
    for k in (-5, -2, 2, 5):
        np.testing.assert_allclose(torus_dist(0.0, np.array([[3.0 + k * TWO_PI]]), TWO_PI), [3.0],
                                   rtol=1e-13)
    # also far beyond the sites' scale, where a - b would lose them
    far = 1e308 % TWO_PI
    with np.errstate(all="raise"):
        assert torus_dist(np.array([[0.0]]), np.array([[1e308]]), TWO_PI) == TWO_PI - far


@pytest.mark.parametrize("dim, M", [(1, 16), (2, 4)])
def test_fourier_multiply_is_a_circular_convolution(dim, M):
    # dense circulant loop: out(z) = sum_x k(z - x) v(x), lags taken per axis mod M
    g = make_grid(dim, M, TWO_PI)
    rng = np.random.default_rng(40 + dim)
    k = rng.normal(size=g.n_sites)
    idx = np.array(np.unravel_index(np.arange(g.n_sites), (M,) * dim)).T
    symbol = lag_spectrum(g, k)
    for v in (rng.normal(size=g.n_sites), rng.normal(size=(g.n_sites, 3))):
        want = np.zeros_like(v)
        for z in range(g.n_sites):
            for x in range(g.n_sites):
                lag = np.ravel_multi_index(tuple((idx[z] - idx[x]) % M), (M,) * dim)
                want[z] += k[lag] * v[x]
        got = fourier_multiply(g, v, symbol)
        assert got.shape == v.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_fourier_layout_stays_in_the_grid_module():
    # every circulant operator goes through grid.fourier_multiply and
    # grid.lag_spectrum, so no other module may call numpy's FFT directly
    src = Path(__file__).resolve().parent.parent / "src" / "fracmap"
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "grid.py" and re.search(r"\b(np|numpy)\.fft\b", path.read_text())]
    assert offenders == []


def test_field_shape_validation():
    g = make_grid(1, 8, 1.0)
    with pytest.raises(ValueError):
        ScalarField(grid=g, samples=np.zeros(7))
    with pytest.raises(ValueError):
        VectorField(grid=g, components=2, samples=np.zeros((8, 3)))
    with pytest.raises(ValueError):
        VectorField(grid=g, components=2, samples=np.full((8, 2), 0.9), unit_constrained=True)


def test_unit_check_rejects_non_finite_samples():
    # a NaN norm defect compares false with any tolerance, so it must fail
    g = make_grid(1, 8, 1.0)
    samples = np.tile([1.0, 0.0], (8, 1))
    samples[3, 0] = np.nan
    with pytest.raises(ValueError, match="norm defect nan"):
        VectorField(grid=g, components=2, samples=samples, unit_constrained=True)


def test_ball_mask_closed_ball_includes_boundary():
    g = make_grid(1, 16, TWO_PI)
    h = BallHierarchy(grid=g, center=(0.0,), base_radius=2 * g.h, level_max=1)
    m = ball_mask(h, 0)
    # sites at distance exactly 2h are in; the next ones out are not
    d = h.center_dist()
    assert m[np.isclose(d, 2 * g.h)].all()
    assert not m[np.isclose(d, 3 * g.h)].any()


def test_hierarchy_validation():
    g = make_grid(1, 16, TWO_PI)
    with pytest.raises(ValueError):
        BallHierarchy(grid=g, center=(0.0, 0.0), base_radius=0.1, level_max=1)
    with pytest.raises(ValueError):
        BallHierarchy(grid=g, center=(0.0,), base_radius=-0.1, level_max=1)
    with pytest.raises(ValueError):
        BallHierarchy(grid=g, center=(0.0,), base_radius=0.1, level_max=-1)
    hier = BallHierarchy(grid=g, center=(0.0,), base_radius=0.1, level_max=2)
    assert hier.radius(2) == 0.4
    with pytest.raises(ValueError):
        hier.radius(3)
