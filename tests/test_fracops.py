"""Spectral operator tests against closed forms.

On the unit-frequency torus (box 2*pi) the operators act diagonally on
Fourier modes, so single modes give exact expected values:

    Lambda^t cos(kx) = k^t cos(kx)

and for the bilinear defect H(a,b) = Lambda^a(ab) - a Lambda^a b - b Lambda^a a
with a = b = cos(x), expanding cos^2 = (1 + cos 2x)/2 and dropping the zero
mode from Lambda gives

    H(cos, cos) = (2^{a-1} - 1) cos(2x) - 1.
"""
import dataclasses
import importlib
import inspect
import pkgutil

import mpmath
import numpy as np
import pytest

from fracmap.energy import seminorm
from fracmap.fracops import (
    build_lp_bank,
    commutator_H,
    forward_constant,
    frac_laplacian,
    lp_project,
    lp_sup_bound_probe,
    riesz_potential,
)
from fracmap.grid import ScalarField, make_grid, site_coords

TWO_PI = 2.0 * np.pi


def _scalar(grid, values):
    return ScalarField(grid=grid, samples=values)


def test_params_validation():
    g = make_grid(1, 8, TWO_PI)
    f = _scalar(g, np.cos(site_coords(g)[:, 0]))
    with pytest.raises(ValueError):
        frac_laplacian(f, 0.0)
    with pytest.raises(ValueError):
        frac_laplacian(f, 2.0)
    with pytest.raises(ValueError):
        riesz_potential(f, 1.5)  # needs t < n = 1


def test_frac_laplacian_single_mode():
    g = make_grid(1, 64, TWO_PI)
    x = site_coords(g)[:, 0]
    for t in (0.25, 0.5, 0.75):
        out = frac_laplacian(_scalar(g, np.cos(2 * x)), t)
        np.testing.assert_allclose(out.samples, 2.0 ** t * np.cos(2 * x),
                                   rtol=1e-12, atol=1e-12)
    const = frac_laplacian(_scalar(g, np.full(64, 3.7)), 0.5)
    assert np.abs(const.samples).max() < 1e-14


def test_frac_laplacian_2d_mode():
    g = make_grid(2, 16, TWO_PI)
    xy = site_coords(g)
    f = np.cos(xy[:, 0] + 2 * xy[:, 1])  # |k|^2 = 5
    out = frac_laplacian(_scalar(g, f), 0.6)
    np.testing.assert_allclose(out.samples, 5.0 ** 0.3 * f, rtol=1e-12, atol=1e-12)


def test_riesz_potential_inverts_laplacian():
    g = make_grid(1, 64, TWO_PI)
    rng = np.random.default_rng(31)
    x = site_coords(g)[:, 0]
    for t in (0.25, 0.45):
        for k in range(10):
            amps = rng.normal(size=6)
            f = sum(a * np.cos((m + 1) * x + 0.3 * m) for m, a in enumerate(amps))
            f = f - f.mean()
            fwd = frac_laplacian(_scalar(g, f), t)
            back = riesz_potential(fwd, t)
            np.testing.assert_allclose(back.samples, f, rtol=0, atol=1e-10)


def test_riesz_potential_rejects_nonzero_mean():
    g = make_grid(1, 32, TWO_PI)
    with pytest.raises(ValueError):
        riesz_potential(_scalar(g, np.ones(32)), 0.5)


def test_commutator_closed_form():
    g = make_grid(1, 128, TWO_PI)
    x = site_coords(g)[:, 0]
    a = _scalar(g, np.cos(x))
    for alpha in (0.3, 0.5, 0.8):
        got = commutator_H(a, a, alpha)
        want = (2.0 ** (alpha - 1.0) - 1.0) * np.cos(2 * x) - 1.0
        np.testing.assert_allclose(got.samples, want, rtol=0, atol=1e-12)


def test_commutator_with_constant_vanishes():
    g = make_grid(1, 64, TWO_PI)
    x = site_coords(g)[:, 0]
    a = _scalar(g, np.cos(x) + 0.4 * np.sin(3 * x))
    c = _scalar(g, np.full(64, 2.0))
    got = commutator_H(a, c, 0.5)
    # H(a, const) = Lambda(c a) - a Lambda c - c Lambda a = c Lambda a - 0 - c Lambda a
    assert np.abs(got.samples).max() < 1e-12


def test_forward_constant_identity():
    # c_{1,t} * 2 * |Gamma(-t)| * cos(pi t / 2) = 1 for 0 < t < 1
    for t in (0.25, 0.45, 0.75):
        J = float(2 * abs(mpmath.gamma(-t)) * mpmath.cos(mpmath.pi * t / 2))
        np.testing.assert_allclose(forward_constant(t, 1) * J, 1.0, rtol=1e-12)


def test_lp_bank_partition_of_unity():
    g = make_grid(1, 128, TWO_PI)
    bank = build_lp_bank(g)
    rng = np.random.default_rng(32)
    for k in range(10):
        f = rng.normal(size=128)
        f = f - f.mean()
        field = _scalar(g, f)
        total = sum(lp_project(field, bank, j).samples
                    for j in range(bank.level_max + 1))
        np.testing.assert_allclose(total, f, rtol=0, atol=1e-10)


def test_lp_bank_disjoint_bands_annihilate():
    # P_k P_j for |j - k| > 1 is the multiplier prod = profile_k * profile_j,
    # which vanishes identically because the supports are disjoint; applying
    # the composed multiplier therefore gives the exact zero field.  The
    # two-call sample-space composition picks up irfft/rfft roundtrip noise,
    # so it is only required to sit at the float floor.
    g = make_grid(1, 128, TWO_PI)
    bank = build_lp_bank(g)
    rng = np.random.default_rng(33)
    f = rng.normal(size=128)
    F = np.fft.rfft(f)
    for j in range(bank.level_max + 1):
        pj = lp_project(_scalar(g, f), bank, j)
        for k in range(j + 2, bank.level_max + 1):
            prod = bank.profiles[j] * bank.profiles[k]
            assert np.all(prod == 0.0)
            composed = np.fft.irfft(F * prod, n=128)
            assert np.all(composed == 0.0)
            two_pass = lp_project(pj, bank, k)
            assert np.abs(two_pass.samples).max() < 1e-14


def test_lp_project_zeroes_the_mean():
    g = make_grid(1, 64, TWO_PI)
    f = _scalar(g, np.cos(site_coords(g)[:, 0]) + 5.0)
    total = sum(lp_project(f, build_lp_bank(g), j).samples
                for j in range(build_lp_bank(g).level_max + 1))
    # the constant offset is not in any band
    np.testing.assert_allclose(total, np.cos(site_coords(g)[:, 0]), rtol=0, atol=1e-10)


def test_lp_single_mode_lands_in_one_band():
    g = make_grid(1, 64, TWO_PI)
    x = site_coords(g)[:, 0]
    f = _scalar(g, np.cos(8 * x))
    bank = build_lp_bank(g)
    energies = [np.abs(lp_project(f, bank, j).samples).max()
                for j in range(bank.level_max + 1)]
    hit = [j for j, e in enumerate(energies) if e > 1e-12]
    assert 1 <= len(hit) <= 2  # mode 8 sits on a dyadic edge at most


def test_lp_sup_probe_shape_and_preconditions():
    g = make_grid(1, 64, TWO_PI)
    x = site_coords(g)[:, 0]
    f = _scalar(g, np.cos(x) + 0.2 * np.sin(5 * x))
    bank = build_lp_bank(g)
    sem = seminorm(f, 0.5, 2.0)
    rows = lp_sup_bound_probe(f, bank, s=0.5, t=0.25, p=2.0, sem=sem)
    assert len(rows) >= 1
    assert rows[0][2] == sem  # band 0 holds the seminorm it was given
    for j, lhs, rhs, ratio in rows:
        assert lhs >= 0 and rhs >= 0
        if rhs > 0:
            np.testing.assert_allclose(ratio, lhs / rhs, rtol=1e-12)
    with pytest.raises(ValueError):
        lp_sup_bound_probe(f, bank, s=0.25, t=0.5, p=2.0, sem=1.0)  # needs t < s


def test_one_spectral_fractional_laplacian():
    # Lambda^t has one (spectral) form and takes its order as a bare float,
    # so the band bank is the only class
    fracops = importlib.import_module("fracmap.fracops")
    classes = [name for name, obj in vars(fracops).items()
               if inspect.isclass(obj) and obj.__module__ == fracops.__name__]
    assert classes == ["LPBank"]
    for name in ("_singular_frac", "_forward_kernel_1d", "_forward_kernel_2d"):
        assert not hasattr(fracops, name), name
    for fn in (frac_laplacian, riesz_potential):
        assert list(inspect.signature(fn).parameters) == ["field", "t"], fn.__name__


def test_importable_via_package_root():
    # the package root re-exports nothing: every name is reached through
    # its module, and no module attribute is shadowed by a function
    pkg = importlib.import_module("fracmap")
    assert not hasattr(pkg, "frac_laplacian")
    import fracmap.energy as en

    assert inspect.ismodule(en)
    submodules = {info.name for info in pkgutil.iter_modules(pkg.__path__)}
    shadowed = [name for name in vars(pkg)
                if name in submodules and not inspect.ismodule(getattr(pkg, name))]
    assert shadowed == []


def _settable_values():
    """Defaulted parameters of every function and method defined in a
    fracmap module, plus defaulted dataclass fields, as module.name.param;
    a dataclass's generated __init__ repeats its fields and is skipped."""
    pkg = importlib.import_module("fracmap")
    found = []

    def defaulted(where, fn):
        found.extend(f"{where}.{p.name}" for p in inspect.signature(fn).parameters.values()
                     if p.default is not inspect.Parameter.empty)

    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"fracmap.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                defaulted(where, obj)
            elif inspect.isclass(obj):
                is_dc = dataclasses.is_dataclass(obj)
                found.extend(f"{where}.{f.name}" for f in (dataclasses.fields(obj) if is_dc else ())
                             if f.default is not dataclasses.MISSING
                             or f.default_factory is not dataclasses.MISSING)
                for mname, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class and static methods
                    if inspect.isfunction(member) and not (is_dc and mname == "__init__"):
                        defaulted(f"{where}.{mname}", member)
    return sorted(found)


def test_settable_values_census():
    # every option needs two callers that want different values; a new
    # default or defaulted field has to be declared here
    assert _settable_values() == [
        "calibrate.main.argv",
        "cli.main.argv",
        "energy.energy.region",
        "energy.pair_flux.region",
        "energy.t_operator.region",
        "grid.VectorField.unit_constrained",
        "lab.band_limited_family.max_mode",
        "lab.run_probe.bound_const",
        "lab.run_probe.seed",
        "reporting._typed.nullable",
        "solver.SolverConfig.grad_tol",
        "solver.SolverConfig.max_iters",
    ]
