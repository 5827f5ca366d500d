"""Acceptance suite: nine gated criteria, one summary line each.

Every criterion prints a single PASS/FAIL line with the measured number
next to its pinned tolerance, then asserts. Fixtures and tolerances are
frozen; loosening any of them is a substantive change, not a test fix.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import filecmp
import json
import shutil
import time

import numpy as np

from fracmap.cli import main as cli_main
from fracmap.energy import (
    EnergyParams,
    duality_check,
    el_residual,
    energy,
    first_variation,
    t_operator,
)
from fracmap.fracops import (
    build_lp_bank,
    commutator_H,
    frac_laplacian,
    lp_project,
    riesz_potential,
)
from fracmap.grid import (
    BallHierarchy,
    ScalarField,
    VectorField,
    ball_mask,
    make_grid,
    site_coords,
)
from fracmap.lab import decay_profile, lagrange_sweep, run_probe
from fracmap.solver import (
    SolverConfig,
    el_residual_suite,
    minimize,
    project_sphere,
)

TWO_PI = 2.0 * np.pi


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _unit_field(grid, seed, components=2):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(grid.n_sites, components))
    raw += np.array([2.0] + [0.0] * (components - 1))
    return VectorField(grid=grid, samples=project_sphere(raw))


def test_criterion_1_gradient_exactness():
    t0 = time.perf_counter()
    g = make_grid(1, 64, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    worst = 0.0
    for k in range(20):
        u = _unit_field(g, seed=1000 + k)
        rng = np.random.default_rng(2000 + k)
        psi_raw = rng.normal(size=(64, 2))
        psi = VectorField(grid=g, samples=psi_raw)
        analytic = first_variation(u, psi, params)
        step = 1e-6

        def constrained_energy(tau):
            moved = project_sphere(u.samples + tau * psi_raw)
            return energy(VectorField(grid=g, samples=moved), params)

        fd = (constrained_energy(step) - constrained_energy(-step)) / (2 * step)
        rel = abs(analytic - fd) / max(1.0, abs(fd))
        worst = max(worst, rel)
    wall = time.perf_counter() - t0
    _verdict(1, worst <= 1e-6 and wall < 30.0,
             f"20 seeded first_variation vs central differences, worst rel "
             f"{worst:.3e} (tol 1e-6), {wall:.1f}s (budget 30s)")


def _naive_energy(samples, coords, L, h, n, s, p, mask=None):
    S = samples.shape[0]
    total = 0.0
    for i in range(S):
        if mask is not None and not mask[i]:
            continue
        for j in range(S):
            if j == i or (mask is not None and not mask[j]):
                continue
            diff = np.abs(coords[i] - coords[j])
            diff = np.minimum(diff, L - diff)
            d = np.sqrt((diff ** 2).sum())
            du2 = float(((samples[i] - samples[j]) ** 2).sum())
            total += h ** (2 * n) * du2 ** (p / 2.0) / d ** (n + s * p)
    return total


def _naive_el(samples, phi, omega, coords, L, h, n, s, p):
    S = samples.shape[0]
    total = 0.0
    for i in range(S):
        for j in range(S):
            if j == i:
                continue
            diff = np.abs(coords[i] - coords[j])
            diff = np.minimum(diff, L - diff)
            d = np.sqrt((diff ** 2).sum())
            du = samples[i] - samples[j]
            q = (omega @ samples[i]) * phi[i] - (omega @ samples[j]) * phi[j]
            mag = np.sqrt((du ** 2).sum())
            if mag == 0.0:
                continue
            total += h ** (2 * n) * mag ** (p - 2.0) * float(du @ q) / d ** (n + s * p)
    return total


def _naive_t(samples, coords, L, h, n, s, p, t, mask=None):
    S, N = samples.shape
    out = np.zeros((S, N))
    for iz in range(S):
        for i in range(S):
            if mask is not None and not mask[i]:
                continue
            for j in range(S):
                if j == i or (mask is not None and not mask[j]):
                    continue
                diff = np.abs(coords[i] - coords[j])
                diff = np.minimum(diff, L - diff)
                d = np.sqrt((diff ** 2).sum())
                du = samples[i] - samples[j]
                mag = np.sqrt((du ** 2).sum())
                if mag == 0.0:
                    continue
                w = h ** (2 * n) * mag ** (p - 2.0) / d ** (n + s * p)
                kap = []
                for other in (i, j):
                    dz = np.abs(coords[other] - coords[iz])
                    dz = np.minimum(dz, L - dz)
                    dz = np.sqrt((dz ** 2).sum())
                    kap.append(0.0 if dz == 0.0 else dz ** (t - n))
                out[iz] += w * du * (kap[0] - kap[1])
    return out


def test_criterion_2_brute_force_oracles():
    t0 = time.perf_counter()
    worst = 0.0

    # 1d, M = 16, full torus and a ball region
    g1 = make_grid(1, 16, TWO_PI)
    u1 = _unit_field(g1, seed=3001)
    c1 = site_coords(g1)
    params = EnergyParams(s=0.5, p=2.0)
    hier = BallHierarchy(grid=g1, center=(np.pi,), base_radius=1.2,
                         level_max=0)
    mask = ball_mask(hier, 0)

    want = _naive_energy(u1.samples, c1, TWO_PI, g1.h, 1, 0.5, 2.0)
    got = energy(u1, params)
    worst = max(worst, abs(got - want) / abs(want))

    want = _naive_energy(u1.samples, c1, TWO_PI, g1.h, 1, 0.5, 2.0, mask=mask)
    got = energy(u1, params, region=mask)
    worst = max(worst, abs(got - want) / abs(want))

    x1 = c1[:, 0]
    phi = np.cos(x1)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    want = _naive_el(u1.samples, phi, omega, c1, TWO_PI, g1.h, 1, 0.5, 2.0)
    got = el_residual(u1, ScalarField(grid=g1, samples=phi), omega, params)
    worst = max(worst, abs(got - want) / max(1.0, abs(want)))

    want = _naive_t(u1.samples, c1, TWO_PI, g1.h, 1, 0.5, 2.0, 0.45)
    got = t_operator(u1, 0.45, params).samples
    denom = max(1.0, np.abs(want).max())
    worst = max(worst, np.abs(got - want).max() / denom)

    want = _naive_t(u1.samples, c1, TWO_PI, g1.h, 1, 0.5, 2.0, 0.45, mask=mask)
    got = t_operator(u1, 0.45, params, region=mask).samples
    worst = max(worst, np.abs(got - want).max() / denom)

    # 2d, M = 8, critical exponent p = n/s = 4
    g2 = make_grid(2, 8, TWO_PI)
    u2 = _unit_field(g2, seed=3002, components=3)
    c2 = site_coords(g2)
    params2 = EnergyParams(s=0.5, p=4.0)
    want = _naive_energy(u2.samples, c2, TWO_PI, g2.h, 2, 0.5, 4.0)
    got = energy(u2, params2)
    worst = max(worst, abs(got - want) / abs(want))

    want = _naive_t(u2.samples, c2, TWO_PI, g2.h, 2, 0.5, 4.0, 0.45)
    got = t_operator(u2, 0.45, params2).samples
    worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))

    wall = time.perf_counter() - t0
    _verdict(2, worst <= 1e-12 and wall < 60.0,
             f"energy, el_residual, T operator vs naive loops on M=16 (1d) and "
             f"M=8 (2d) grids, worst rel {worst:.3e} (tol 1e-12), "
             f"{wall:.1f}s (budget 60s)")


def test_criterion_3_operator_identities():
    g = make_grid(1, 128, TWO_PI)
    x = site_coords(g)[:, 0]
    rng = np.random.default_rng(4000)
    worst_inv = worst_sum = worst_comm = 0.0
    composed_exact = True
    bank = build_lp_bank(g)
    for k in range(10):
        amps = rng.normal(size=8)
        f = sum(a * np.cos((m + 1) * x + 0.2 * m) for m, a in enumerate(amps))
        f = f - f.mean()
        field = ScalarField(grid=g, samples=f)

        fwd = frac_laplacian(field, 0.45)
        back = riesz_potential(fwd, 0.45)
        worst_inv = max(worst_inv, np.abs(back.samples - f).max())

        total = sum(lp_project(field, bank, j).samples
                    for j in range(bank.level_max + 1))
        worst_sum = max(worst_sum, np.abs(total - f).max())

        F = np.fft.rfft(f)
        for j in range(bank.level_max + 1):
            for kk in range(j + 2, bank.level_max + 1):
                prod = bank.profiles[j] * bank.profiles[kk]
                out = np.fft.irfft(F * prod, n=128)
                if not (np.all(prod == 0.0) and np.all(out == 0.0)):
                    composed_exact = False

        const = ScalarField(grid=g, samples=np.full(128, rng.normal()))
        H = commutator_H(field, const, 0.5)
        worst_comm = max(worst_comm, np.abs(H.samples).max())

    ok = (worst_inv <= 1e-10 and worst_sum <= 1e-10 and composed_exact
          and worst_comm <= 1e-10)
    _verdict(3, ok,
             f"10 seeded fields: inverse pair {worst_inv:.3e}, band sum "
             f"{worst_sum:.3e}, H(a, const) {worst_comm:.3e} (tol 1e-10 each), "
             f"composed disjoint bands exactly zero: {composed_exact}")


def _duality_fixture(M):
    g = make_grid(1, M, TWO_PI)
    x = site_coords(g)[:, 0]
    theta = x + 0.3 * np.sin(x) + 0.15 * np.cos(2 * x)
    u = VectorField(grid=g, samples=np.stack([np.cos(theta), np.sin(theta)], axis=1))
    phi = ScalarField(grid=g, samples=0.7 * np.cos(x) - 0.4 * np.sin(2 * x)
                      + 0.2 * np.cos(3 * x) + 0.1 * np.sin(4 * x))
    return u, phi


def test_criterion_4_duality_identity():
    params = EnergyParams(s=0.5, p=2.0)
    u64, phi64 = _duality_fixture(64)
    _, _, rel64 = duality_check(u64, phi64, 0.45, params)
    u128, phi128 = _duality_fixture(128)
    _, _, rel128 = duality_check(u128, phi128, 0.45, params)
    shrink = rel64 / rel128
    ok = rel64 <= 1e-3 and shrink >= 2.0
    _verdict(4, ok,
             f"pairing vs EL double sum: rel {rel64:.3e} at M=64 (tol 1e-3), "
             f"shrink x{shrink:.2f} at M=128 (needs >= 2)")


def test_criterion_5_solver_fixture():
    t0 = time.perf_counter()
    g = make_grid(1, 128, TWO_PI)
    x = site_coords(g)[:, 0]
    theta = x + 0.3 * np.sin(x)
    u0 = VectorField(grid=g, samples=np.stack([np.cos(theta), np.sin(theta)], axis=1))
    params = EnergyParams(s=0.5, p=2.0)
    u, report = minimize(u0, params, SolverConfig())
    trace = np.array(report.energy_trace)
    monotone = bool(np.all(np.diff(trace) <= 0.0))
    suite = el_residual_suite(u, params)
    wall = time.perf_counter() - t0
    ok = (report.converged and monotone and suite.max_abs <= 1e-6
          and wall < 300.0)
    _verdict(5, ok,
             f"perturbed winding at M=128: converged={report.converged} in "
             f"{report.iterations} iterations, monotone={monotone}, EL suite "
             f"max {suite.max_abs:.3e} (tol 1e-6), {wall:.0f}s (budget 300s)")


def test_criterion_6_lagrange_identity():
    worst = 0.0
    total_violations = 0
    for N in (2, 3, 5):
        w, violations = lagrange_sweep(N, 10_000, seed=N)
        worst = max(worst, w)
        total_violations += violations
    ok = total_violations == 0 and worst <= 1e-12
    _verdict(6, ok,
             f"10^4 samples per N in {{2,3,5}}: worst deviation {worst:.3e} "
             f"(tol 1e-12), {total_violations} violations")


def test_criterion_7_probes_against_frozen_constants():
    t0 = time.perf_counter()
    results = {}
    for name in ("sobolev", "commutator", "kernel_case", "lp_sup", "t1",
                 "holefill"):
        report = run_probe(name)
        results[name] = report.passed
    wall = time.perf_counter() - t0
    ok = all(results.values()) and wall < 600.0
    failed = [n for n, p in results.items() if not p]
    _verdict(7, ok,
             f"six probes vs frozen constants, zero violations "
             f"(failed: {failed or 'none'}), {wall:.0f}s (budget 600s)")


def test_criterion_8_decay_scaling():
    g = make_grid(1, 256, TWO_PI)
    x = site_coords(g)[:, 0]
    u = VectorField(grid=g, samples=np.stack([np.cos(x), np.sin(x)], axis=1))
    hier = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.05,
                         level_max=4)
    table = decay_profile(u, hier, EnergyParams(s=0.5, p=2.0))
    gap = abs(table.theta - 2.0)
    _verdict(8, gap <= 0.15,
             f"fitted local-energy exponent {table.theta:.4f} vs analytic 2 "
             f"(gap {gap:.4f}, tol 0.15)")


def test_criterion_9_determinism(tmp_path):
    doc = {
        "grid": {"dim": 1, "points_per_axis": 64, "box_length": TWO_PI},
        "energy": {"s": 0.5, "p": 2.0},
        "solver": {"grad_tol": 5e-7, "max_iters": 5000},
        "seed": 0,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code1 = cli_main(["solve", "--config", str(cfg), "--out", str(out),
                      "--workers", "1"])
    first = tmp_path / "first"
    shutil.move(out, first)
    code2 = cli_main(["solve", "--config", str(cfg), "--out", str(out),
                      "--workers", "4"])
    names = sorted(p.name for p in out.iterdir()
                   if not p.name.startswith("manifest"))
    identical = bool(names) and all(
        filecmp.cmp(first / name, out / name, shallow=False) for name in names)

    ok = code1 == 0 and code2 == 0 and identical
    _verdict(9, ok,
             f"rerun with workers 1 vs 4: {len(names)} scientific outputs "
             f"byte-identical={identical}")
