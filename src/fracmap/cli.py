"""Command line front end.

Subcommands: solve, verify, probe, decay, selftest. Exit codes are a
stable contract: 0 pass, 1 a scientific check failed or a computation
raised a numerical error, 2 config or usage error (a malformed config,
--set, flag or input file), 3 non-convergence (reports are still written
in that case). Everything a command does is deterministic given the
config, its seed included. `--workers` is accepted and ignored: every
pair pass runs serially, and each process runs one BLAS thread, since
importing the package sets OPENBLAS_NUM_THREADS=1 unless it is already
set. Commands that share a config and an output directory write
distinct files: each writes its own
`manifest_<command>_<tag>.json`, solve its decay table as
`decay_solve_<tag>` and verify its EL table as `el_residuals_verify_<tag>`.
A manifest also records the process CPU seconds spent before the
command's work (`startup_cpu_s`: interpreter, imports, config loading)
and by its end (`cpu_s`); under selftest, which runs four commands in one
process, both accumulate.
`probe` runs each selected probe on its calibrated setup, the one its
frozen constant was measured on; only the seed varies it, and kernel_case,
a maximum over one variable, takes no seed. `selftest` takes no options:
it runs solve, verify (on the solution solve wrote), decay and probe on
the default 1d config with a ball hierarchy in a temporary directory,
and exits 1 when any of them exits non-zero.

Each command loads only the layers it runs: lab (and with it fracops) is
imported inside the code that calls it (a random start, a solve with a
hierarchy, probe and decay), so a plain solve compiles and maps neither.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import reporting
from .energy import _validate_t, duality_check, holefill_check
from .grid import BallHierarchy, ScalarField, VectorField, site_coords
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
    emit_verify_report,
    load_config,
    read_field,
    write_field,
)
from .solver import el_residual_suite, minimize

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

EL_TOL = 1e-6
DUALITY_TOL = 1e-3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _start() -> dict:
    """The manifest's readings at the start of a command's work: the
    wall-clock time and the process CPU seconds spent so far."""
    return {"started": _now(), "startup_cpu_s": time.process_time()}


def _finish(cfg: RunConfig, command: str, started: dict, outputs: list) -> None:
    """Write the command's run manifest, the one artifact that carries
    clock readings; `started` is what _start read."""
    manifest = RunManifest(
        config_hash=config_hash(cfg.raw),
        artifact_version=reporting.ARTIFACT_VERSION,
        finished=_now(),
        cpu_s=time.process_time(),
        outputs=[Path(p).name for p in outputs],
        **started,
    )
    manifest.write(Path(cfg.out_dir) / f"manifest_{command}_{cfg.tag}.json")


def _read_map(key: str, path, grid) -> VectorField:
    """The one way a run reads a map from a file (initial.path, --field):
    read_field, then the config grid and unit samples to 1e-9. An OSError
    of the open (no such file, a directory) and a map the run cannot take
    become a ConfigError that names the key the path came from."""
    try:
        f = read_field(path)
    except OSError as e:
        raise ConfigError(f"{key}: {e}") from None
    if f.grid != grid:
        raise ConfigError(f"{key}: {path}: grid does not match the config grid")
    if f.norm_defect > 1e-9:
        raise ConfigError(f"{key}: {path}: field is not unit length (defect {f.norm_defect:.2e})")
    return f


def initial_field(cfg: RunConfig) -> VectorField:
    """Materialize the configured initial data."""
    init = cfg.initial
    grid = cfg.grid
    if init["kind"] == "winding":
        x = site_coords(grid)
        # degree 1 along axis 0 with a phase bump: theta = x_0 + 0.3 sin x_0
        # on a 2 pi box, plus 0.2 sin x_1 in 2d
        theta = (2.0 * np.pi / grid.box_length) * x[:, 0] + 0.3 * np.sin(
            2.0 * np.pi * x[:, 0] / grid.box_length
        )
        if grid.dim == 2:
            theta += 0.2 * np.sin(2.0 * np.pi * x[:, 1] / grid.box_length)
        samples = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return VectorField(grid=grid, samples=samples)
    if init["kind"] == "random":
        from . import lab

        return lab.unit_circle_family(grid, 1, cfg.seed)[0]
    if not init["path"]:
        raise ConfigError("initial.path: required for kind = file")
    return _read_map("initial.path", init["path"], grid)


def _default_hierarchy(cfg: RunConfig) -> BallHierarchy:
    if cfg.hierarchy is not None:
        return cfg.hierarchy
    grid = cfg.grid
    center = np.full(grid.dim, grid.box_length / 2.0)
    return BallHierarchy(grid=grid, center=center, base_radius=grid.box_length / 16.0, level_max=3)


def cmd_solve(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    started = _start()
    u0 = initial_field(cfg)
    u, report = minimize(u0, cfg.params, cfg.solver)
    outputs = emit_solve_report(report, out, cfg.tag)
    suite = report.el_suite
    outputs += emit_el_table(suite, out, cfg.tag)
    solution_path = out / f"solution_{cfg.tag}.field"
    write_field(solution_path, u)
    outputs.append(solution_path)
    if cfg.hierarchy is not None:
        from . import lab

        table = lab.decay_profile(u, cfg.hierarchy, cfg.params)
        outputs += emit_decay_table(table, out, f"solve_{cfg.tag}")
    _finish(cfg, "solve", started, outputs)
    ok = report.converged and suite.max_abs <= EL_TOL
    print(
        f"solve: converged={report.converged} iterations={report.iterations} "
        f"grad_norm={report.final_grad_norm:.3e} el_residual={suite.max_abs:.3e}"
    )
    return EXIT_PASS if ok else EXIT_NO_CONVERGENCE


def cmd_verify(cfg: RunConfig, field_path: str) -> int:
    out = Path(cfg.out_dir)
    started = _start()
    u = _read_map("--field", field_path, cfg.grid)
    params = cfg.params
    t = cfg.t
    if cfg.grid.dim == 1 and t is None:  # the duality check's exponent, before any work
        t = params.s - 0.05
        as_config_error("energy.t (default s - 0.05)", _validate_t, t, params)
    checks = {}

    suite = el_residual_suite(u, params)
    checks["el_residual"] = {"value": suite.max_abs, "tol": EL_TOL, "pass": suite.max_abs <= EL_TOL,
                             "worst": suite.worst}
    outputs = emit_el_table(suite, out, f"verify_{cfg.tag}")

    hierarchy = _default_hierarchy(cfg)
    lhs, rhs, ratio = holefill_check(u, hierarchy, 0, hierarchy.level_max, params)
    # the hole-filling probe's rule: its exact constant is 1
    checks["holefill"] = {"lhs": lhs, "rhs": rhs, "pass": ratio <= 1.0}

    if cfg.grid.dim == 1:
        # the map's most varying component u_k, mean removed: at a critical
        # point G = lambda u with lambda = u . G >= 0 and sum_x G = 0, so the
        # right side 2 gamma sum_x lambda u_k^2 cannot vanish for a
        # nonconstant map
        v = u.samples - u.samples.mean(axis=0)
        spread = list(np.sum(v * v, axis=0))
        phi = ScalarField(grid=cfg.grid, samples=v[:, spread.index(max(spread))])
        _, _, rel = duality_check(u, phi, t, params)
        checks["duality"] = {"rel_error": rel, "tol": DUALITY_TOL, "pass": rel <= DUALITY_TOL}
    else:
        checks["duality"] = {"skipped": "cell-averaged pairing kernel exists for dim 1 only"}

    ok = all(c.get("pass", True) for c in checks.values())
    outputs += emit_verify_report(checks, out, cfg.tag)
    _finish(cfg, "verify", started, outputs)
    for name, result in checks.items():
        print(f"verify {name}: {result}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_probe(cfg: RunConfig) -> int:
    from . import lab

    started = _start()
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
    _finish(cfg, "probe", started, outputs)
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_decay(cfg: RunConfig) -> int:
    if cfg.hierarchy is None:
        raise ConfigError("hierarchy: required for the decay command")
    from . import lab

    started = _start()
    u = initial_field(cfg)
    table = lab.decay_profile(u, cfg.hierarchy, cfg.params)
    outputs = emit_decay_table(table, cfg.out_dir, cfg.tag)
    _finish(cfg, "decay", started, outputs)
    theta = "undefined" if table.theta is None else f"{table.theta:.4f}"
    print(f"decay: theta={theta} levels={len(table.rows)}")
    return EXIT_PASS


def cmd_selftest() -> int:
    """solve, verify, decay and probe, once each through main, in one
    temporary directory. They run on the default 1d config (M = 64,
    s = 1/2, p = 2, the winding) with a ball hierarchy, which decay needs;
    verify reads the solution that solve wrote. At M = 32 verify's duality
    rel_error, 2.0e-3, would exceed its tolerance. It fails, too, when a
    command rewrites a file that an earlier one wrote."""
    overrides = [f"hierarchy.center=[{np.pi!r}]", "hierarchy.base_radius=0.05",
                 "hierarchy.levels=5"]
    codes = []
    with tempfile.TemporaryDirectory() as out:
        common = ["--out", out] + [arg for o in overrides for arg in ("--set", o)]
        solution = Path(out) / f"solution_{load_config(None, overrides, out).tag}.field"
        for command, extra in (("solve", []), ("verify", ["--field", str(solution)]),
                               ("decay", []), ("probe", [])):
            earlier = {p: p.stat().st_mtime_ns for p in Path(out).iterdir()}
            code = main([command, *common, *extra])
            print(f"selftest {command}: exit {code}")
            codes.append(code)
            if any(p.stat().st_mtime_ns != t for p, t in earlier.items()):
                print(f"selftest {command}: rewrote a file of an earlier command")
                codes.append(EXIT_FAIL)
    return EXIT_FAIL if any(codes) else EXIT_PASS


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry, dotted keys (repeatable)")
    sub.add_argument("--workers", type=int, metavar="N",
                     help="accepted and ignored: every pair pass runs serially "
                          "(kept for callers that still pass it)")


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
        cfg = load_config(args.config, args.set, args.out)
        try:
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"out_dir: {e}") from None
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
