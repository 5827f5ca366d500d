"""Command line front end.

Subcommands: solve, verify, probe, decay, selftest. Exit codes are a
stable contract: 0 pass, 1 a scientific check failed or a computation
raised a numerical error, 2 config or usage error (a malformed config,
--set, flag or input file), 3 non-convergence (reports are still written
in that case). Everything a command does is deterministic given the
config bytes and the seed. `--workers` is accepted and ignored: every
pair pass runs serially.
`probe` runs each selected probe on its calibrated setup, the one its
frozen constant was measured on; only the seed varies it.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import lab, reporting
from .energy import EnergyParams, _validate_t, duality_check, el_residual, energy, holefill_check
from .grid import BallHierarchy, ScalarField, VectorField, ball_mean, make_grid, site_coords
from .reporting import (
    ConfigError,
    FieldDigestError,
    FieldFormatError,
    RunConfig,
    RunManifest,
    as_config_error,
    config_hash,
    emit_decay_table,
    emit_el_table,
    emit_probe_report,
    emit_solve_report,
    load_config,
    parse_config,
    read_field,
    write_field,
)
from .solver import SolverConfig, el_residual_suite, minimize, project_sphere, tangent_project

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

EL_TOL = 1e-6
DUALITY_TOL = 1e-3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _finish(cfg: RunConfig, started: str, outputs: list) -> None:
    """Write the run manifest, the one artifact that carries wall-clock time."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config_hash=config_hash(cfg.raw),
        artifact_version=reporting.ARTIFACT_VERSION,
        started=started,
        finished=_now(),
        outputs=[Path(p).name for p in outputs],
    )
    manifest.write(out / f"manifest_{cfg.tag}.json")


def initial_field(cfg: RunConfig) -> VectorField:
    """Materialize the configured initial data."""
    init = cfg.initial
    grid = cfg.grid
    if init["kind"] == "winding":
        x = site_coords(grid)[:, 0]
        theta = init["degree"] * (2.0 * np.pi / grid.box_length) * x + init["phase_amp"] * np.sin(
            2.0 * np.pi * x / grid.box_length
        )
        samples = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return VectorField(grid=grid, components=2, samples=samples, unit_constrained=True)
    if init["kind"] == "constant":
        value = np.asarray(init["value"], dtype=np.float64)
        unit = as_config_error("initial.value", project_sphere, value[None, :])[0]
        samples = np.tile(unit, (grid.n_sites, 1))
        return VectorField(grid=grid, components=len(value), samples=samples, unit_constrained=True)
    if init["kind"] == "random":
        seed = cfg.seed if init["seed"] is None else init["seed"]
        return lab.unit_circle_family(grid, 1, seed)[0]
    path = init["path"]
    if not path:
        raise ConfigError("initial.path: required for kind = file")
    f = read_field(path)
    if not isinstance(f, VectorField):
        raise ConfigError(f"initial.path: {path} holds a scalar field")
    if f.grid != grid:
        raise ConfigError(f"initial.path: grid in {path} does not match the config grid")
    return f


def _default_hierarchy(cfg: RunConfig) -> BallHierarchy:
    if cfg.hierarchy is not None:
        return cfg.hierarchy
    grid = cfg.grid
    center = np.full(grid.dim, grid.box_length / 2.0)
    return BallHierarchy(
        grid=grid, center=center, base_radius=grid.box_length / 16.0, level_min=0, level_max=3
    )


def cmd_solve(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    started = _now()
    u0 = initial_field(cfg)
    u, report = minimize(u0, cfg.params, cfg.solver)
    outputs = emit_solve_report(report, out, cfg.tag)
    suite = report.el_suite
    outputs += emit_el_table(suite, out, cfg.tag)
    solution_path = out / f"solution_{cfg.tag}.field"
    write_field(solution_path, u, meta={"iterations": report.iterations})
    outputs.append(solution_path)
    if cfg.hierarchy is not None:
        table = lab.decay_profile(u, cfg.hierarchy, cfg.params)
        outputs += emit_decay_table(table, out, cfg.tag)
    _finish(cfg, started, outputs)
    ok = report.converged and suite.max_abs <= EL_TOL
    print(
        f"solve: converged={report.converged} iterations={report.iterations} "
        f"grad_norm={report.final_grad_norm:.3e} el_residual={suite.max_abs:.3e}"
    )
    return EXIT_PASS if ok else EXIT_NO_CONVERGENCE


def cmd_verify(cfg: RunConfig, field_path: str) -> int:
    out = Path(cfg.out_dir)
    started = _now()
    u = read_field(field_path)
    if not isinstance(u, VectorField):
        raise ConfigError(f"{field_path}: verification needs a vector field")
    norms = np.linalg.norm(u.samples, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ConfigError(f"{field_path}: field is not unit length (defect {np.max(np.abs(norms-1)):.2e})")
    if u.grid != cfg.grid:
        raise ConfigError(f"{field_path}: grid does not match the config grid")
    params = cfg.params
    checks = {}

    suite = el_residual_suite(u, params)
    checks["el_residual"] = {"value": suite.max_abs, "tol": EL_TOL, "pass": suite.max_abs <= EL_TOL}
    outputs = emit_el_table(suite, out, cfg.tag)

    hierarchy = _default_hierarchy(cfg)
    lhs, rhs, hf_ok = holefill_check(u, hierarchy, hierarchy.level_min, hierarchy.level_max, params)
    checks["holefill"] = {"lhs": lhs, "rhs": rhs, "pass": bool(hf_ok)}

    if cfg.grid.dim == 1:
        t = cfg.t
        if t is None:
            t = params.s - 0.05
            as_config_error("energy.t (default s - 0.05)", _validate_t, t, params)
        x = site_coords(cfg.grid)[:, 0]
        phi = ScalarField(
            grid=cfg.grid, samples=np.cos(2.0 * np.pi * x / cfg.grid.box_length)
        )
        _, _, rel = duality_check(u, phi, t, params)
        checks["duality"] = {"rel_error": rel, "tol": DUALITY_TOL, "pass": rel <= DUALITY_TOL}
    else:
        checks["duality"] = {"skipped": "cell-averaged pairing kernel exists for dim 1 only"}

    ok = all(c.get("pass", True) for c in checks.values())
    vpath = out / f"verify_{cfg.tag}.json"
    vpath.write_text(json.dumps(checks, indent=2, sort_keys=True) + "\n")
    outputs.append(vpath)
    _finish(cfg, started, outputs)
    for name, result in checks.items():
        print(f"verify {name}: {result}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_probe(cfg: RunConfig) -> int:
    started = _now()
    outputs = []
    all_pass = True
    for name in cfg.probes:
        report = lab.run_probe(name, seed=cfg.seed)
        outputs += emit_probe_report(report, cfg.out_dir, cfg.tag)
        all_pass = all_pass and report.passed
        print(
            f"probe {name}: worst_ratio={report.worst_ratio:.6g} "
            f"frozen_C={report.frozen_c:.6g} pass={report.passed}"
        )
    _finish(cfg, started, outputs)
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_decay(cfg: RunConfig) -> int:
    started = _now()
    u = initial_field(cfg)
    if cfg.hierarchy is None:
        raise ConfigError("hierarchy: required for the decay command")
    table = lab.decay_profile(u, cfg.hierarchy, cfg.params)
    outputs = emit_decay_table(table, cfg.out_dir, cfg.tag)
    _finish(cfg, started, outputs)
    theta = "undefined" if table.theta is None else f"{table.theta:.4f}"
    print(f"decay: theta={theta} levels={len(table.rows)}")
    return EXIT_PASS


def cmd_selftest() -> int:
    """Small in-process example suite; no config, under a minute."""
    failures = []

    def check(label, fn):
        try:
            fn()
            print(f"ok {label}")
        except Exception as e:  # noqa: BLE001 - report and count every failure
            failures.append(label)
            print(f"FAIL {label}: {e}")

    def grid_examples():
        for bad in (24, 3):
            try:
                make_grid(1, bad, 1.0)
                raise AssertionError(f"make_grid accepted M={bad}")
            except ValueError:
                pass
        g = make_grid(1, 16, 2.0 * np.pi)
        h = BallHierarchy(grid=g, center=(np.pi,), base_radius=0.5, level_min=0, level_max=2)
        f = ScalarField(grid=g, samples=np.full(g.n_sites, 3.25))
        assert abs(ball_mean(f, h, 1) - 3.25) < 1e-15

    def energy_examples():
        g = make_grid(1, 16, 2.0 * np.pi)
        params = EnergyParams(s=0.5, p=2.0)
        const = VectorField(
            grid=g, components=2, samples=np.tile([1.0, 0.0], (g.n_sites, 1)),
            unit_constrained=True,
        )
        assert energy(const, params) == 0.0
        assert el_residual(const, ScalarField(grid=g, samples=np.ones(g.n_sites)),
                           np.array([[0.0, 1.0], [-1.0, 0.0]]), params) == 0.0

    def fracops_examples():
        from .fracops import build_lp_bank, commutator_H, frac_laplacian, lp_project

        g = make_grid(1, 32, 2.0 * np.pi)
        x = site_coords(g)[:, 0]
        const = ScalarField(grid=g, samples=np.ones(g.n_sites))
        assert np.max(np.abs(frac_laplacian(const, 0.5).samples)) < 1e-14
        a = ScalarField(grid=g, samples=np.cos(x))
        assert np.max(np.abs(commutator_H(a, const, 0.5).samples)) < 1e-12
        bank = build_lp_bank(g)
        total = sum(lp_project(a, bank, j).samples for j in range(bank.level_max + 1))
        assert np.max(np.abs(total - (a.samples - a.samples.mean()))) < 1e-10

    def solver_examples():
        assert np.allclose(project_sphere(np.array([[3.0, 4.0]])), [[0.6, 0.8]])
        u = project_sphere(np.random.default_rng(0).standard_normal((8, 3)))
        g = np.random.default_rng(1).standard_normal((8, 3))
        assert np.max(np.abs((tangent_project(g, u) * u).sum(axis=1))) < 1e-14
        grid = make_grid(1, 16, 2.0 * np.pi)
        const = VectorField(
            grid=grid, components=2, samples=np.tile([0.0, 1.0], (grid.n_sites, 1)),
            unit_constrained=True,
        )
        _, rep = minimize(const, EnergyParams(s=0.5, p=2.0), SolverConfig(max_iters=5))
        assert rep.converged and rep.iterations == 0
        # the default winding data at M = 32 converges in 56 preconditioned steps
        cfg = parse_config({"grid": {"dim": 1, "points_per_axis": 32}, "energy": {"s": 0.5, "p": 2.0}})
        _, rep = minimize(initial_field(cfg), cfg.params, SolverConfig(max_iters=80))
        assert rep.converged, f"winding at M=32: {rep.stop_reason} after {rep.iterations} iterations"

    def lab_examples():
        lhs, rhs, equal = lab.lagrange_check([1.0, 0.0], [1.0, 0.0])
        assert (lhs, rhs, equal) == (1.0, 1.0, True)
        case, lhs, _, _ = lab.kernel_case_check([0.0], [0.1], [10.0], beta=0.5, eps=0.3,
                                                bound_const=10.0)
        assert case == 1
        assert lab.sobolev_exponent(1, "0.5", "0.25", 2) == 4
        lab.load_frozen_constants()

    def reporting_examples():
        g = make_grid(1, 8, 1.0)
        f = ScalarField(grid=g, samples=np.random.default_rng(3).standard_normal(g.n_sites))
        with tempfile.TemporaryDirectory() as td:
            p = Path(td) / "f.field"
            write_field(p, f)
            back = read_field(p)
            assert back.samples.tobytes() == f.samples.tobytes()
        try:
            parse_config({"stepsize": 1})
            raise AssertionError("unknown key accepted")
        except ConfigError as e:
            assert "stepsize" in str(e)

    check("grid examples", grid_examples)
    check("energy examples", energy_examples)
    check("frac-op examples", fracops_examples)
    check("solver examples", solver_examples)
    check("lab examples", lab_examples)
    check("reporting examples", reporting_examples)
    if failures:
        print(f"selftest: {len(failures)} failing group(s): {', '.join(failures)}")
        return EXIT_FAIL
    print("selftest: all groups passed")
    return EXIT_PASS


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry, dotted keys (repeatable)")
    sub.add_argument("--workers", type=int, metavar="N",
                     help="accepted and ignored: every pair pass runs serially "
                          "(kept for callers that still pass it)")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fracmap")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "probe", "decay"):
        sp = subs.add_parser(name)
        _add_common(sp)
        if name == "verify":
            sp.add_argument("--field", required=True, help="field file to verify")
    subs.add_parser("selftest")
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return cmd_selftest()
    try:
        cfg = load_config(args.config, args.set, args.seed, args.out)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.field)
        if args.command == "probe":
            return cmd_probe(cfg)
        return cmd_decay(cfg)
    except (ConfigError, FieldFormatError, FieldDigestError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        # a numerical failure (a non-monotone decay table, a failed
        # projection): the config was valid, the computation was not
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main(argv=None))
