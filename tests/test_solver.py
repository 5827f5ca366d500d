import importlib
import inspect

import numpy as np
import pytest

from fracmap import reporting, solver
from fracmap.cli import initial_field
from fracmap.energy import (EnergyParams, PairKernelCache, _pair_symbol, el_pairing, el_residual,
                            energy, energy_change, energy_gradient, pair_flux, seminorm)
from fracmap.grid import VectorField, make_grid, site_coords
from fracmap.solver import (
    ElResidualReport,
    SolverConfig,
    bump_basis,
    el_residual_suite,
    elementary_omegas,
    minimize,
    project_sphere,
    tangent_project,
)

TWO_PI = 2.0 * np.pi


def _winding(grid, phase_amp=0.3):
    x = site_coords(grid)[:, 0]
    theta = x + phase_amp * np.sin(x)
    return VectorField(grid=grid, samples=np.stack([np.cos(theta), np.sin(theta)], axis=1))


def test_project_sphere_examples():
    out = project_sphere(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-15)
    rng = np.random.default_rng(41)
    raw = rng.normal(size=(50, 3)) + 0.5
    once = project_sphere(raw)
    np.testing.assert_allclose(np.linalg.norm(once, axis=1), 1.0, rtol=1e-14)
    np.testing.assert_allclose(project_sphere(once), once, rtol=0, atol=1e-15)
    np.testing.assert_allclose(project_sphere(10.0 * raw), once, rtol=1e-13)
    for short_or_not_finite in (1e-9, np.inf, np.nan):
        with pytest.raises(ValueError):
            project_sphere(np.array([[short_or_not_finite, 0.0]]))


def test_tangent_project_orthogonality():
    rng = np.random.default_rng(42)
    u = project_sphere(rng.normal(size=(100, 3)) + 1.0)
    g = rng.normal(size=(100, 3))
    tg = tangent_project(g, u)
    assert np.abs((tg * u).sum(axis=1)).max() < 1e-14
    assert np.abs(tangent_project(u, u)).max() < 1e-15


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=-1.0)


def test_pair_passes_take_no_kernel_handle_and_the_solver_two_settings():
    # every pair pass looks its kernel up from the field's grid and its own
    # parameters, so no public entry point accepts a kernel that could
    # contradict them; every pass is serial, so none takes a worker count;
    # the descent has exactly two settings
    # the module is fetched by its full name because `energy` in this test
    # module is the function imported from it
    energy_module = importlib.import_module("fracmap.energy")
    for module in (energy_module, solver):
        for knob in ("cache", "workers"):
            offenders = [name for name, fn in vars(module).items()
                         if inspect.isfunction(fn) and not name.startswith("_")
                         and fn.__module__ == module.__name__
                         and knob in inspect.signature(fn).parameters]
            assert offenders == [], (module.__name__, knob)
    assert not hasattr(energy_module, "ThreadPoolExecutor")
    assert list(reporting.SCHEMA["solver"][0]) == ["max_iters", "grad_tol"]


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16)])
def test_kernel_symbol_is_the_p2_gradient(dim, M):
    # at p = 2 the energy is a circulant quadratic form, so multiplying by
    # its symbol m = 2p D in Fourier space, the one the preconditioner
    # reads, is the gradient of any unconstrained field
    g = make_grid(dim, M, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    v = np.random.default_rng(44).normal(size=(g.n_sites, 3))
    m = 2.0 * params.p * _pair_symbol(g, params.s, params.p)
    shape, axes = (M,) * dim, tuple(range(dim))
    via_symbol = np.fft.irfftn(m[..., None] * np.fft.rfftn(v.reshape(shape + (3,)), axes=axes),
                               s=shape, axes=axes).reshape(v.shape)
    grad = energy_gradient(VectorField(grid=g, samples=v), params).samples
    assert np.abs(via_symbol - grad).max() <= 1e-12 * np.abs(grad).max()


def test_kernel_symbol_is_2p_times_the_spectral_symbol():
    # the preconditioner (2p D) and the spectral passes read one cached
    # symbol D, which has the bits of w^(0) - w^(k) formed from the kernel
    g = make_grid(2, 16, TWO_PI)
    for p in (2.0, 3.0, 4.0):
        params = EnergyParams(s=0.5, p=p)
        w_hat = np.fft.rfftn(PairKernelCache(g, params).weights.reshape(16, 16)).real
        np.testing.assert_array_equal(_pair_symbol(g, 0.5, p), w_hat.flat[0] - w_hat)
        assert _pair_symbol(g, 0.5, p) is _pair_symbol(g, 0.5, p)


def test_minimize_2d_critical_winding_keeps_its_degree():
    # at s = 1/2, p = 4 = n/s the class in [T^2, S^1] is continuous on the
    # energy space: the descent from the 2d winding reaches grad_tol with
    # axis-0 degree 1 on every row and axis-1 degree 0 on every column
    cfg = reporting.parse_config({"grid": {"dim": 2, "points_per_axis": 32},
                                  "energy": {"s": 0.5, "p": 4.0},
                                  "solver": {"grad_tol": 3e-8}})
    u0 = initial_field(cfg)
    u, report = minimize(u0, cfg.params, cfg.solver)
    assert report.converged and report.stop_reason == "grad_tol"
    assert report.iterations <= 60
    assert np.all(np.diff(report.energy_trace) <= 0.0)
    assert report.final_el_residual_max <= 1e-6
    for field in (u0, u):
        angle = np.arctan2(field.samples[:, 1], field.samples[:, 0]).reshape(32, 32)
        for axis, want in ((0, 1.0), (1, 0.0)):
            steps = np.diff(angle, axis=axis, append=angle.take([0], axis=axis))
            wrapped = (steps + np.pi) % (2.0 * np.pi) - np.pi
            np.testing.assert_allclose(wrapped.sum(axis=axis) / (2.0 * np.pi), want, atol=1e-9)


@pytest.mark.parametrize("p, M, max_iters", [(2.0, 32, 80), (2.0, 64, 80), (2.0, 128, 80),
                                             (2.0, 256, 80), (3.0, 128, 40)])
def test_minimize_iterations_do_not_grow_with_M(p, M, max_iters):
    g = make_grid(1, M, TWO_PI)
    u, report = minimize(_winding(g), EnergyParams(s=0.5, p=p), SolverConfig())
    assert report.converged and report.stop_reason == "grad_tol"
    assert report.iterations <= max_iters
    assert np.all(np.diff(report.energy_trace) <= 0.0)
    assert report.final_el_residual_max <= 1e-6


@pytest.mark.parametrize("M", [32, 64, 128])
def test_minimize_reaches_grad_tol_below_the_energy_rounding(M):
    # near |g_T| = 3e-8 the Armijo decrease of a step lies below the rounding
    # of E, so only the exact energy change can tell a descent step from a
    # round-off one
    g = make_grid(1, M, TWO_PI)
    _, report = minimize(_winding(g), EnergyParams(s=0.5, p=2.0), SolverConfig(grad_tol=3e-8))
    assert report.converged and report.stop_reason == "grad_tol"
    assert report.iterations <= 80
    assert np.all(np.diff(report.energy_trace) <= 0.0)


def test_minimize_stalls_at_the_gradient_noise_floor(monkeypatch):
    # 1e-9 lies below what the gradient resolves at M = 32: the run must end
    # in a stalled line search, not wander on until max_iters. The stalled
    # search halves tau only until u - tau d rounds back to u, so it costs a
    # few dozen energy changes, and the report counts every one of them
    calls = {"energy_change": 0}

    def counted(*args, **kwargs):
        calls["energy_change"] += 1
        return energy_change(*args, **kwargs)

    monkeypatch.setattr(solver, "energy_change", counted)
    g = make_grid(1, 32, TWO_PI)
    _, report = minimize(_winding(g), EnergyParams(s=0.5, p=2.0), SolverConfig(grad_tol=1e-9))
    assert report.stop_reason == "line_search_stalled" and not report.converged
    assert report.final_grad_norm <= 1e-8
    assert report.iterations == len(report.step_trace) == 65
    assert min(report.step_trace) > 0.0
    assert report.energy_changes == calls["energy_change"] <= 200
    assert np.all(np.diff(report.energy_trace) <= 0.0)


def test_minimize_line_search_has_no_trial_budget(monkeypatch):
    # from tau = 2^80 the first search needs 77 halvings; it keeps halving
    # until it accepts, so no search ends without a step and the descent
    # reaches the same energy as from tau = 1
    g = make_grid(1, 32, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    _, ref = minimize(_winding(g), params, SolverConfig())
    monkeypatch.setattr(solver, "STEP0", 2.0**80)
    _, report = minimize(_winding(g), params, SolverConfig())
    assert report.converged and report.stop_reason == "grad_tol"
    assert min(report.step_trace) > 0.0 and report.step_trace[0] == 8.0
    assert abs(report.energy_trace[-1] - ref.energy_trace[-1]) <= 1e-12 * ref.energy_trace[-1]


def test_minimize_counts_its_evaluations(monkeypatch):
    calls = {"energy": 0, "energy_change": 0, "energy_gradient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "energy", counted("energy", energy))
    monkeypatch.setattr(solver, "energy_change", counted("energy_change", energy_change))
    monkeypatch.setattr(solver, "energy_gradient", counted("energy_gradient", energy_gradient))
    g = make_grid(1, 32, TWO_PI)
    for cfg in (SolverConfig(max_iters=3), SolverConfig()):
        calls.update(energy=0, energy_change=0, energy_gradient=0)
        _, report = minimize(_winding(g), EnergyParams(s=0.5, p=2.0), cfg)
        # E(u0) once; every trial step is decided by the exact change
        assert calls["energy"] == 1
        assert report.energy_changes == calls["energy_change"] >= report.iterations
        # one gradient at the start and one after every accepted step
        assert calls["energy_gradient"] == 1 + report.iterations == 1 + len(report.step_trace)
        assert len(report.grad_trace) == len(report.energy_trace)
        assert report.grad_trace[-1] == report.final_grad_norm


def test_minimize_constant_field_is_already_critical():
    g = make_grid(1, 16, TWO_PI)
    u0 = VectorField(grid=g, samples=np.tile([0.6, 0.8], (16, 1)))
    params = EnergyParams(s=0.5, p=2.0)
    u, report = minimize(u0, params, SolverConfig())
    assert report.converged and report.iterations == 0
    assert report.final_grad_norm == 0.0
    np.testing.assert_allclose(np.linalg.norm(u.samples, axis=1), 1.0, rtol=1e-14)


def test_minimize_descends_monotonically_and_reports():
    g = make_grid(1, 64, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    cfg = SolverConfig(grad_tol=5e-7, max_iters=5000)
    u, report = minimize(_winding(g), params, cfg)
    assert report.converged and report.stop_reason == "grad_tol"
    trace = np.array(report.energy_trace)
    assert len(trace) == report.iterations + 1
    assert np.all(np.diff(trace) <= 0.0)
    assert report.final_grad_norm <= 5e-7
    # iterates stay on the sphere
    np.testing.assert_allclose(np.linalg.norm(u.samples, axis=1), 1.0, rtol=1e-12)
    suite = el_residual_suite(u, params)
    assert suite.max_abs <= 1e-6


def test_minimize_max_iters_zero_returns_start():
    g = make_grid(1, 32, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    u, report = minimize(_winding(g), params, SolverConfig(max_iters=0))
    assert report.iterations == 0 and not report.converged
    assert report.stop_reason == "max_iters"


def test_minimize_equivariance_under_exact_rotation():
    # Q = [[0,-1],[1,0]] permutes/negates components without rounding, so the
    # whole descent trajectory must map through Q exactly
    g = make_grid(1, 32, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    cfg = SolverConfig(max_iters=200, grad_tol=1e-12)
    u0 = _winding(g)
    Q = np.array([[0.0, -1.0], [1.0, 0.0]])
    u0_rot = VectorField(grid=g, samples=u0.samples @ Q.T)
    ua, ra = minimize(u0, params, cfg)
    ub, rb = minimize(u0_rot, params, cfg)
    assert ra.iterations == rb.iterations
    np.testing.assert_array_equal(ub.samples, ua.samples @ Q.T)
    np.testing.assert_array_equal(ra.energy_trace, rb.energy_trace)


def test_minimize_equivariance_under_generic_rotation():
    # generic rotations commute with the descent only up to roundoff; stop
    # well before the noise floor so the Armijo branches cannot flip
    g = make_grid(1, 32, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    cfg = SolverConfig(max_iters=100, grad_tol=1e-14)
    phi = 0.7
    Q = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    u0 = _winding(g)
    u0_rot = VectorField(grid=g, samples=project_sphere(u0.samples @ Q.T))
    ua, _ = minimize(u0, params, cfg)
    ub, _ = minimize(u0_rot, params, cfg)
    np.testing.assert_allclose(ub.samples, ua.samples @ Q.T, atol=1e-8)


def test_minimize_restart_returns_to_same_level():
    g = make_grid(1, 64, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    cfg = SolverConfig(grad_tol=5e-7, max_iters=5000)
    u, report = minimize(_winding(g), params, cfg)
    e_star = report.energy_trace[-1]
    rng = np.random.default_rng(43)
    noise = tangent_project(1e-4 * rng.normal(size=u.samples.shape), u.samples)
    perturbed = VectorField(grid=g, samples=project_sphere(u.samples + noise))
    _, report2 = minimize(perturbed, params, cfg)
    assert report2.converged
    assert abs(report2.energy_trace[-1] - e_star) <= 1e-8 * max(1.0, abs(e_star))


def test_minimize_reports_stall_honestly():
    # an unreachable gradient tolerance must end in a stalled line search with
    # the best iterate, not a fake convergence flag
    g = make_grid(1, 32, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    cfg = SolverConfig(grad_tol=1e-15, max_iters=20000)
    u, report = minimize(_winding(g), params, cfg)
    assert not report.converged
    assert report.stop_reason == "line_search_stalled"
    assert len(report.grad_trace) == len(report.energy_trace)
    trace = np.array(report.energy_trace)
    assert np.all(np.diff(trace) <= 0.0)
    e_final = energy(VectorField(grid=g, samples=u.samples), params)
    np.testing.assert_allclose(e_final, trace[-1], rtol=1e-12)


def test_minimize_returns_its_el_suite():
    g = make_grid(1, 32, TWO_PI)
    params = EnergyParams(s=0.5, p=3.0)
    u, report = minimize(_winding(g), params, SolverConfig(max_iters=30))
    suite = el_residual_suite(u, params)
    assert report.el_suite == suite
    assert report.final_el_residual_max == suite.max_abs
    # every entry read off the shared flux matches its own el_residual pass
    u_sem = seminorm(u, params.s, params.p)
    entries = iter(suite.entries)
    for phi_label, phi in bump_basis(g):
        denom = seminorm(phi, params.s, params.p) * u_sem ** (params.p - 1.0)
        for om_label, om in elementary_omegas(2):
            label, omega_id, val = next(entries)
            assert (label, omega_id) == (phi_label, om_label)
            assert abs(val - abs(el_residual(u, phi, om, params)) / denom) <= 1e-14


def test_el_residual_suite_structure():
    g = make_grid(1, 32, TWO_PI)
    params = EnergyParams(s=0.5, p=2.0)
    const = VectorField(grid=g, samples=np.tile([1.0, 0.0], (32, 1)))
    suite = el_residual_suite(const, params)
    assert suite.max_abs == 0.0
    n_bumps = len(bump_basis(g))
    assert len(suite.entries) == n_bumps * len(elementary_omegas(2))
    assert len(elementary_omegas(2)) == 1
    assert len(elementary_omegas(3)) == 3


def test_el_residual_suite_maximum_keeps_nan():
    g = make_grid(1, 16, TWO_PI)
    samples = np.tile([1.0, 0.0], (16, 1))
    samples[5, 1] = np.nan
    u = VectorField(grid=g, samples=samples)
    with np.errstate(invalid="ignore"):
        suite = el_residual_suite(u, EnergyParams(s=0.5, p=2.0))
    assert np.isnan(suite.max_abs)


def test_el_report_reads_its_worst_entry_and_maximum_by_one_rule():
    # the first NaN entry, else the first largest one; a NaN after a larger
    # entry is still the worst
    nan = float("nan")
    report = ElResidualReport(entries=(("a", "w", 1e-9), ("b", "w", nan), ("c", "w", 2e-9),
                                       ("d", "w", nan)))
    worst = report.worst
    assert (worst["test_function"], worst["generator"]) == ("b", "w")
    assert np.isnan(worst["residual"]) and np.isnan(report.max_abs)
    report = ElResidualReport(entries=(("a", "w", 1e-9), ("b", "w", 2e-9), ("c", "w", 2e-9)))
    assert report.worst == {"test_function": "b", "generator": "w", "residual": 2e-9}
    assert report.max_abs == 2e-9
    empty = ElResidualReport(entries=())
    assert empty.worst is None and empty.max_abs == 0.0


def test_el_suite_tests_each_generator_of_so_n_once():
    for N in (2, 3, 4):
        omegas = elementary_omegas(N)
        assert len(omegas) == N * (N - 1) // 2
        assert len({label for label, _ in omegas}) == len(omegas)
        for i, (_, wi) in enumerate(omegas):
            np.testing.assert_array_equal(wi, -wi.T)
            for _, wj in omegas[i:]:
                assert not np.array_equal(wi, -wj)
    g = make_grid(1, 32, TWO_PI)
    rng = np.random.default_rng(5)
    u = VectorField(grid=g, samples=project_sphere(rng.normal(size=(32, 3)) + [2.0, 0.0, 0.0]))
    params = EnergyParams(s=0.5, p=2.5)
    suite = el_residual_suite(u, params)
    labels = [(phi_label, om_label) for phi_label, om_label, _ in suite.entries]
    assert len(labels) == len(bump_basis(g)) * 3
    assert len(set(labels)) == len(labels)
    # a suite over both signs of every generator: each negated entry repeats
    # its generator's entry bit for bit, so the maximum keeps its bits
    flux = pair_flux(u, params)
    u_sem = seminorm(u, params.s, params.p)
    plus, minus = [], []
    for _, phi in bump_basis(g):
        denom = seminorm(phi, params.s, params.p) * u_sem ** (params.p - 1.0)
        for _, om in elementary_omegas(3):
            plus.append(abs(el_pairing(u, flux, phi, om)) / denom)
            minus.append(abs(el_pairing(u, flux, phi, -om)) / denom)
    assert [val for _, _, val in suite.entries] == plus == minus
    assert suite.max_abs > 0.0
    assert float(np.max([0.0] + plus + minus)).hex() == suite.max_abs.hex()


def test_elementary_omegas_are_antisymmetric():
    for N in (2, 3, 4):
        for label, omega in elementary_omegas(N):
            np.testing.assert_array_equal(omega, -omega.T)
            assert set(np.unique(omega)) <= {-1.0, 0.0, 1.0}
            assert label
