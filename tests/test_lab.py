"""Diagnostics: decay fits, pointwise identities, sampled inequality probes.

Expected values that are not closed forms were measured once on this exact
setup and frozen; a change in any of them means the underlying numerics
changed and needs to be understood, not re-frozen.
"""
import inspect
import json
import tracemalloc

import numpy as np
import pytest

from fracmap import calibrate, lab
from fracmap.energy import EnergyParams
from fracmap.grid import BallHierarchy, ScalarField, ball_mask, make_grid, site_coords
from fracmap.lab import (
    band_limited_family,
    commutator_probe,
    decay_profile,
    holefill_probe,
    kernel_case_probe,
    lagrange_bound_factor,
    lagrange_check,
    lagrange_sweep,
    load_frozen_constants,
    run_probe,
    sobolev_exponent,
    sobolev_probe,
    t1_bound_probe,
    unit_circle_family,
)
from fracmap.reporting import config_hash

TWO_PI = 2.0 * np.pi


def test_decay_profile_on_winding_field():
    g = make_grid(1, 256, TWO_PI)
    x = site_coords(g)[:, 0]
    u = _unit(g, np.stack([np.cos(x), np.sin(x)], axis=1))
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.05, level_max=4)
    table = decay_profile(u, hier, EnergyParams(s=0.5, p=2.0))
    energies = [row[2] for row in table.rows]
    assert all(b >= a for a, b in zip(energies, energies[1:]))
    # smooth unit-speed circle map: local energy scales like r^2
    assert abs(table.theta - 2.0) <= 0.15


@pytest.mark.parametrize("dim, M", [(1, 128), (2, 16)])
def test_decay_fit_leaves_out_balls_that_wrap_the_torus(dim, M):
    # radii 0.3 ... 2.4 lie below L/2 = pi; the balls of radius 4.8 and up
    # wrap onto themselves, so they keep their rows but leave theta alone
    g = make_grid(dim, M, TWO_PI)
    x = site_coords(g)
    theta = x[:, 0] + 0.3 * np.sin(x[:, -1])
    u = _unit(g, np.stack([np.cos(theta), np.sin(theta)], axis=1))
    params = EnergyParams(s=0.5, p=2.0)

    def table(level_max):
        hier = BallHierarchy(grid=g, center=np.full(dim, np.pi), base_radius=0.3,
                             level_max=level_max)
        return decay_profile(u, hier, params)

    inside = table(3)
    assert inside.theta is not None
    for level_max in (4, 6):
        wrapped = table(level_max)
        assert len(wrapped.rows) == level_max + 1 and wrapped.rows[:4] == inside.rows
        assert (wrapped.theta, wrapped.fit_residual) == (inside.theta, inside.fit_residual)


def _unit(g, samples):
    from fracmap.grid import VectorField

    return VectorField(grid=g, components=2, samples=samples, unit_constrained=True)


@pytest.mark.parametrize("dim, M, center", [(1, 64, (2.3,)), (2, 16, (2.3, 4.1))])
def test_ball_mask_and_decay_profile_read_the_centre_on_the_torus(dim, M, center):
    # a centre k box lengths away is the same point: the same balls and the
    # same decay table
    g = make_grid(dim, M, TWO_PI)
    x = site_coords(g)
    theta = x[:, 0] + 0.3 * np.sin(x[:, -1])
    u = _unit(g, np.stack([np.cos(theta), np.sin(theta)], axis=1))
    params = EnergyParams(s=0.5, p=2.0)

    def at(c):
        hier = BallHierarchy(grid=g, center=c, base_radius=0.3, level_max=3)
        return [ball_mask(hier, level) for level in range(4)], decay_profile(u, hier, params)

    masks, table = at(np.array(center))
    assert masks[0].any() and not masks[-1].all()
    for k in (-5, -2, 2, 5):
        shifted_masks, shifted = at(np.array(center) + k * TWO_PI)
        for m, s in zip(masks, shifted_masks):
            np.testing.assert_array_equal(m, s)
        assert shifted == table
    # a centre far beyond the sites' scale is the point it lands on modulo L
    far = np.full(dim, 1e308)
    _, far_table = at(far)
    assert far_table == at(far % TWO_PI)[1] and far_table.theta is not None


def test_decay_profile_needs_enough_levels():
    g = make_grid(1, 64, TWO_PI)
    x = site_coords(g)[:, 0]
    u = _unit(g, np.stack([np.cos(x), np.sin(x)], axis=1))
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.1, level_max=2)
    with pytest.raises(ValueError):
        decay_profile(u, hier, EnergyParams(s=0.5, p=2.0))


def test_decay_profile_constant_has_no_fit():
    g = make_grid(1, 128, TWO_PI)
    u = _unit(g, np.tile([1.0, 0.0], (128, 1)))
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.05, level_max=4)
    table = decay_profile(u, hier, EnergyParams(s=0.5, p=2.0))
    assert table.theta is None


def test_lagrange_identity_examples():
    lhs, rhs, ok = lagrange_check(np.array([1.0, 0.0]), np.array([3.0, 4.0]))
    assert ok and lhs == 25.0 and abs(rhs - 25.0) < 1e-12
    lhs2, rhs2, ok2 = lagrange_check(np.array([0.0, 1.0, 0.0]),
                                     np.array([2.0, 0.0, 0.0]))
    assert ok2 and lhs2 == 4.0
    with pytest.raises(ValueError):
        lagrange_check(np.array([2.0, 0.0]), np.array([1.0, 0.0]))  # u not unit


def test_lagrange_sweep_small():
    for N in (2, 3, 5):
        worst, violations = lagrange_sweep(N, 1000, seed=N)
        assert violations == 0
        assert worst <= 1e-12


def test_lagrange_bound_factor():
    np.testing.assert_allclose(lagrange_bound_factor(2), np.sqrt(2.0), rtol=1e-15)
    np.testing.assert_allclose(lagrange_bound_factor(3), np.sqrt(4.0), rtol=1e-15)


def test_kernel_case_classification():
    # distances (|x-y|, |x-z|, |y-z|) of triples on the line
    def case(x, y, z):
        return int(lab._classify_case(np.abs(x - y), np.abs(x - z), np.abs(y - z)))

    # x close to y, both far from z: the difference-quotient case
    assert case(0.0, 0.1, 10.0) == 1
    # a coincident pair is case 1 too
    assert case(0.7, 0.7, 3.0) == 1
    # far pair, z nearer to x, and z nearer to y
    assert case(0.0, 1.0, 0.4) == 2
    assert case(0.0, 1.0, 0.6) == 3
    # the boundaries: |x-y| = |x-z| / 2 is case 1, and a tie |x-z| = |y-z|
    # of a far pair is case 2
    assert case(0.0, 1.0, -2.0) == 1
    assert case(0.0, 1.0, 0.5) == 2
    # arrays are classified elementwise
    x, y, z = np.array([0.0, 0.0, 0.0]), np.array([0.1, 1.0, 1.0]), np.array([10.0, 0.4, 0.6])
    np.testing.assert_array_equal(lab._classify_case(np.abs(x - y), np.abs(x - z), np.abs(y - z)),
                                  [1, 2, 3])


def test_kernel_case_probe_small_run():
    beta, eps = 0.5, 0.3
    rows = kernel_case_probe(beta, eps)
    assert [row[0].split("/")[0] for row in rows] == ["case1", "case2", "case3"]
    assert max(row[3] for row in rows) <= load_frozen_constants()["kernel_case"]
    # each row is the triple x = 1, y, z = 0, classified and majorized here
    # from the definitions in python floats (the probe takes numpy's powers
    # of arrays): lhs = |1 - |y|^(beta-1)| and rhs = |1-y|^eps base^(beta-eps-1),
    # base the case's distance
    for k, (sample, lhs, rhs, ratio) in enumerate(rows, start=1):
        y = float(sample.split("/y=")[1])
        dxy, dyz = abs(1.0 - y), abs(y)
        case = 1 if dxy <= 0.5 or dxy <= 0.5 * dyz else (2 if 1.0 <= dyz else 3)
        base = (min(1.0, dyz), 1.0, dyz)[case - 1]
        assert case == k
        np.testing.assert_allclose([lhs, rhs], [abs(1.0 - dyz ** (beta - 1.0)),
                                                dxy**eps * base ** (beta - eps - 1.0)], rtol=1e-15)
        assert ratio == lhs / rhs


def test_kernel_case_probe_case1_maximum():
    # the case-1 sup sits on the boundary y = 1/2 (or its mirror y = 2):
    # (2^(1/2) - 1) / 2^(1/2)
    ratio = kernel_case_probe(beta=0.5, eps=0.3)[0][3]
    assert abs(ratio - (1.0 - 2.0**-0.5)) <= 1e-14 * ratio


def test_kernel_case_probe_cases_2_and_3_agree():
    # swapping x and y maps case 2 onto case 3, so their sups are one number
    _, (_, _, _, r2), (_, _, _, r3) = kernel_case_probe(beta=0.5, eps=0.3)
    assert abs(r2 - r3) <= 1e-14 * r2


def test_kernel_case_probe_bounds_a_seeded_sweep():
    # oracle: random n = 1 triples, classified and majorized here from the
    # definitions; no sampled ratio may exceed its case's maximum
    beta, eps = 0.5, 0.3
    maxima = [row[3] for row in kernel_case_probe(beta, eps)]
    x, y, z = np.random.default_rng(11).standard_normal((3, 400_000))
    dxy, dxz, dyz = np.abs(x - y), np.abs(x - z), np.abs(y - z)
    case1 = (dxy <= 0.5 * dxz) | (dxy <= 0.5 * dyz)
    cases = (case1, ~case1 & (dxz <= dyz), ~case1 & (dxz > dyz))
    bases = (np.minimum(dxz, dyz), dxz, dyz)
    lhs = np.abs(dxz ** (beta - 1.0) - dyz ** (beta - 1.0))
    for sel, base, top in zip(cases, bases, maxima):
        assert sel.sum() >= 20_000
        ratio = lhs[sel] / (dxy[sel] ** eps * base[sel] ** (beta - eps - 1.0))
        assert ratio.max() <= top * (1.0 + 1e-12)
        assert ratio.max() >= 0.999 * top  # and the maximum is a tight one


def test_kernel_case_probe_ignores_the_seed():
    assert run_probe("kernel_case", seed=0).rows == run_probe("kernel_case", seed=1).rows


def test_kernel_case_probe_memory_peak():
    # the probe evaluates a few thousand points of one variable; a sampler
    # of random triples would need tens of MB
    tracemalloc.start()
    try:
        run_probe("kernel_case")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"{peak / 1e6:.1f} MB"


def test_sobolev_exponent_exact_arithmetic():
    val = sobolev_exponent(1, 0.5, 0.25, 2.0)
    assert isinstance(val, float) and val == 4.0
    assert sobolev_exponent(2, 0.5, 0.25, 4.0) == 8.0
    # the formula itself is pure arithmetic; at the critical edge the
    # denominator is exactly zero and the division says so loudly
    with pytest.raises(ZeroDivisionError):
        sobolev_exponent(1, 0.5, 0.25, 4.0)


def test_sobolev_probe_and_growth():
    g = make_grid(1, 64, TWO_PI)
    fam = band_limited_family(g, 8, seed=61)
    rows = sobolev_probe(fam, s=0.5, t=0.25, p=2.0)
    assert max(row[3] for row in rows) <= load_frozen_constants()["sobolev"]
    assert len(rows) == 8
    with pytest.raises(ValueError):
        sobolev_probe(fam, s=0.5, t=0.6, p=2.0)


def test_commutator_probe_validates_exponent_relation():
    g = make_grid(1, 64, TWO_PI)
    fam = list(zip(band_limited_family(g, 4, seed=62),
                   band_limited_family(g, 4, seed=63)))
    rows = commutator_probe(fam, alpha=0.5, p=2.0, p1=2.0, p2=2.0)
    assert max(row[3] for row in rows) <= load_frozen_constants()["commutator"]
    with pytest.raises(ValueError):
        commutator_probe(fam, alpha=0.5, p=2.0, p1=2.0, p2=3.0)


def test_t1_bound_probe_fixture():
    g = make_grid(1, 16, TWO_PI)
    x = site_coords(g)[:, 0]
    f = ScalarField(grid=g, samples=np.cos(x))
    gg = ScalarField(grid=g, samples=np.sin(x))
    lhs, rhs, ratio = t1_bound_probe(f, gg, 0.5, 0.45)
    # frozen from this exact fixture
    np.testing.assert_allclose(ratio, 1.2049871559664782, rtol=1e-12)
    assert lhs > 0 and rhs > 0
    const = ScalarField(grid=g, samples=np.ones(16))
    lhs0, _, _ = t1_bound_probe(f, const, 0.5, 0.45)
    assert lhs0 == 0.0
    with pytest.raises(ValueError):
        t1_bound_probe(ScalarField(grid=make_grid(1, 64, TWO_PI),
                                   samples=np.zeros(64)),
                       ScalarField(grid=make_grid(1, 64, TWO_PI),
                                   samples=np.zeros(64)), 0.5, 0.45)


def test_holefill_probe_all_nestings_pass():
    g = make_grid(1, 64, TWO_PI)
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.3, level_max=3)
    rows, ok = holefill_probe(g, EnergyParams(s=0.5, p=2.0), hier, count=4, seed=64)
    assert ok
    assert max(row[3] for row in rows) <= 1.0 + 1e-12
    assert any("B0in3" in row[0] for row in rows)


def test_unit_circle_family_on_sphere():
    g = make_grid(1, 32, TWO_PI)
    for u in unit_circle_family(g, 3, seed=65):
        np.testing.assert_allclose(np.linalg.norm(u.samples, axis=1), 1.0, rtol=1e-12)


def test_run_probe_canonical_setups():
    for name in ("sobolev", "commutator", "kernel_case", "lp_sup", "t1", "holefill"):
        report = run_probe(name)
        assert report.passed, name
        assert report.worst_ratio <= report.frozen_c
        if name == "kernel_case":  # one maximum per case
            assert report.sample_count == len(report.rows) == 3


def test_probe_setups_are_not_parameters():
    # a probe's setup is written once, in run_probe: the sweep its constant
    # was frozen from; no config key, argument or default reaches it
    from fracmap.reporting import SCHEMA

    assert "probe_params" not in SCHEMA
    assert list(inspect.signature(run_probe).parameters) == ["name", "seed", "bound_const"]
    assert not hasattr(lab, "t1_probe") and not hasattr(lab, "lp_sup_probe")
    # the probe functions only measure: run_probe alone judges their rows
    for fn in (kernel_case_probe, sobolev_probe, commutator_probe, holefill_probe):
        defaulted = [p.name for p in inspect.signature(fn).parameters.values()
                     if p.default is not inspect.Parameter.empty]
        assert defaulted == [], fn.__name__
    for fn in (sobolev_probe, commutator_probe):
        assert "seed" not in inspect.signature(fn).parameters, fn.__name__


def test_calibration_reproduces_packaged_constants(tmp_path, monkeypatch):
    # a rerun matches the packaged constants to round-off: a probe ratio
    # that moves by more than that is a bug, not a reason to recalibrate.
    # The rerun goes through fracmap-calibrate's main, and its file is read
    # back through the digest check
    packaged = load_frozen_constants()
    out = tmp_path / "frozen.json"
    assert calibrate.main(["--out", str(out)]) == 0
    monkeypatch.setattr(lab, "frozen_constants_path", lambda: out)
    constants = load_frozen_constants()
    assert set(constants) == set(packaged)
    for name, value in packaged.items():
        assert abs(constants[name] - value) <= 1e-12 * abs(value), name


def test_run_probe_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        run_probe("banana")


def test_frozen_constants_roundtrip_and_tamper(tmp_path, monkeypatch):
    constants = load_frozen_constants()
    assert set(constants) == {"sobolev", "commutator", "kernel_case", "lp_sup",
                              "t1", "holefill"}
    assert all(v > 0 for v in constants.values())

    import fracmap.lab as lab_mod

    payload = {"version": 1, "constants": {"sobolev": 1.0}}
    payload["digest"] = config_hash(payload)
    payload["constants"]["sobolev"] = 2.0  # tamper after sealing
    bad = tmp_path / "frozen_constants.json"
    bad.write_text(json.dumps(payload))
    monkeypatch.setattr(lab_mod, "frozen_constants_path", lambda: bad)
    with pytest.raises(ValueError):
        load_frozen_constants()
