"""End-to-end runs of the command line entry point, in process.

main() returns the exit code instead of raising SystemExit, so each test
drives it directly and checks both the code and the files left behind.
The BLAS thread tests start a fresh interpreter, since the thread count is
fixed when numpy is first imported.
"""
import csv
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracmap import cli, lab
from fracmap.cli import main
from fracmap.grid import VectorField, make_grid
from fracmap.reporting import PROBE_NAMES, load_config, write_field

SOLVE_DOC = {
    "grid": {"dim": 1, "points_per_axis": 32, "box_length": 6.283185307179586},
    "energy": {"s": 0.5, "p": 2.0},
    "solver": {"grad_tol": 5e-7, "max_iters": 5000},
    "seed": 0,
}


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_selftest_fails_when_one_command_fails(monkeypatch, capsys):
    # the other three commands still run, and the line of the failing one
    # names it
    monkeypatch.setattr(cli, "cmd_probe", lambda cfg: 1)
    assert main(["selftest"]) == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("selftest ")]
    assert lines == ["selftest solve: exit 0", "selftest verify: exit 0",
                     "selftest decay: exit 0", "selftest probe: exit 1"]


def test_solve_converges_and_writes_outputs(tmp_path):
    cfg = _write(tmp_path, SOLVE_DOC)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--workers", "1"]) == 0
    files = sorted(p.name for p in out.iterdir())
    kinds = {name.split("_")[0] for name in files}
    assert kinds == {"solve", "trace", "solution", "el", "manifest"}
    solve_doc = json.loads(next(out.glob("solve_*.json")).read_text())
    assert solve_doc["converged"] is True
    assert solve_doc["final_el_residual_max"] <= 1e-6


def test_solve_reports_non_convergence(tmp_path):
    doc = dict(SOLVE_DOC, solver={"max_iters": 3})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    solve_doc = json.loads(next(out.glob("solve_*.json")).read_text())
    assert solve_doc["converged"] is False


def test_malformed_config_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{none}")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    unknown = _write(tmp_path, {"energy": {"s": 0.5, "p": 2.0}, "grdi": {}},
                     "unknown.json")
    assert main(["solve", "--config", str(unknown),
                 "--out", str(tmp_path / "o2")]) == 2
    missing = tmp_path / "does_not_exist.json"
    assert main(["solve", "--config", str(missing),
                 "--out", str(tmp_path / "o3")]) == 2


def test_set_overrides_reach_the_run(tmp_path):
    cfg = _write(tmp_path, SOLVE_DOC)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out),
                 "--set", "solver.max_iters=2"])
    assert code == 3  # two iterations cannot converge from the winding start
    # the trace has a gradient norm on every row, the last one the final norm
    solve_doc = json.loads(next(out.glob("solve_*.json")).read_text())
    assert solve_doc["iterations"] == 2
    lines = next(out.glob("trace_*.csv")).read_text().splitlines()
    assert len(lines) == 4 and "nan" not in "".join(lines)
    assert float(lines[-1].split(",")[3]) == solve_doc["final_grad_norm"]


def test_random_start_is_seeded_and_file_start_needs_a_path(tmp_path, capsys):
    doc = dict(SOLVE_DOC, grid={"dim": 1, "points_per_axis": 16},
               solver={"max_iters": 40}, initial={"kind": "random"})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    runs = {}
    for name, seed in (("first", 0), ("again", 0), ("seed1", 1)):
        # one --out for every run, since the tag hashes the whole config
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--set", f"seed={seed}"]) in (0, 3)
        runs[name] = tmp_path / name
        shutil.move(out, runs[name])
    names = sorted(p.name for p in runs["first"].iterdir() if not p.name.startswith("manifest"))
    assert names == sorted(p.name for p in runs["again"].iterdir()
                           if not p.name.startswith("manifest"))
    for name in names:
        assert filecmp.cmp(runs["first"] / name, runs["again"] / name, shallow=False), name

    def first_row(run):
        return next(run.glob("trace_*.csv")).read_text().splitlines()[1]

    assert first_row(runs["seed1"]) != first_row(runs["first"])
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "file"),
                 "--set", "initial.kind=file"]) == 2
    assert "initial.path" in capsys.readouterr().err


def test_verify_accepts_critical_point(tmp_path):
    # the duality gate inside verify is calibrated at M = 64, so run there
    doc = dict(SOLVE_DOC, grid={"dim": 1, "points_per_axis": 64})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    solution = next(out.glob("solution_*.field"))
    check_dir = tmp_path / "check"
    assert main(["verify", "--config", str(cfg), "--field", str(solution),
                 "--out", str(check_dir)]) == 0
    text = next(check_dir.glob("verify_*.json")).read_text()
    doc = json.loads(text)
    assert all(section["pass"] for section in doc.values())
    # the worst EL entry is a row of verify's EL table, with the maximum
    worst = doc["el_residual"]["worst"]
    assert worst["residual"] == doc["el_residual"]["value"]
    with open(next(check_dir.glob("el_residuals_verify_*.csv")), newline="") as fh:
        rows = list(csv.reader(fh))
    assert [worst["test_function"], worst["generator"], f"{worst['residual']:.17g}"] in rows
    # the artifact format of every JSON the commands write
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_solve_and_verify_at_a_critical_p_below_2(tmp_path, capsys):
    # s = 0.6 in 1d takes the paper's critical p = n/s = 5/3 by default
    out = tmp_path / "out"
    assert main(["solve", "--set", "energy.s=0.6", "--out", str(out)]) == 0
    solution = next(out.glob("solution_*.field"))
    assert main(["verify", "--set", "energy.s=0.6", "--field", str(solution),
                 "--out", str(tmp_path / "check")]) == 0
    assert capsys.readouterr().err == ""


def test_verify_rejects_non_critical_field(tmp_path):
    g = make_grid(1, 32, 2 * np.pi)
    rng = np.random.default_rng(81)
    raw = rng.normal(size=(32, 2)) + np.array([2.0, 0.0])
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    u = VectorField(grid=g, components=2, samples=raw, unit_constrained=True)
    field_path = tmp_path / "guess.field"
    write_field(field_path, u)
    cfg = _write(tmp_path, SOLVE_DOC)
    assert main(["verify", "--config", str(cfg), "--field", str(field_path),
                 "--out", str(tmp_path / "o")]) == 1


# the three ways a map file reaches a run, and the key each one names
MAP_KEYS = {"solve": "initial.path", "decay": "initial.path", "verify": "--field"}


def _run_on_map(tmp_path, command, field_path) -> Path:
    """Run `command` on the map in field_path under SOLVE_DOC (M = 32),
    with a hierarchy for decay; returns the output directory."""
    doc = dict(SOLVE_DOC, hierarchy={"center": [3.141592653589793], "base_radius": 0.1,
                                     "levels": 4})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "verify":
        argv += ["--field", str(field_path)]
    else:
        argv += ["--set", "initial.kind=file", "--set", f"initial.path={field_path}"]
    assert main(argv) == 2
    return out


@pytest.mark.parametrize("command", list(MAP_KEYS))
def test_verify_grid_mismatch_is_config_error(tmp_path, capsys, command):
    g = make_grid(1, 16, 2 * np.pi)
    u = VectorField(grid=g, components=2,
                    samples=np.tile([1.0, 0.0], (16, 1)), unit_constrained=True)
    field_path = tmp_path / "small.field"
    write_field(field_path, u)
    out = _run_on_map(tmp_path, command, field_path)  # the config declares M = 32
    assert capsys.readouterr().err == (f"config error: {MAP_KEYS[command]}: {field_path}: "
                                       "grid does not match the config grid\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", list(MAP_KEYS))
def test_verify_off_sphere_unit_field_is_config_error(tmp_path, capsys, command):
    # a radius-2 copy of the winding: a well-formed file whose header claims
    # no unit norm, but a map of the paper lies on the sphere, so every
    # command refuses it before any work rather than projecting or fitting it
    g = make_grid(1, 32, 2 * np.pi)
    theta = 2 * np.pi * np.arange(32) / 32
    u = VectorField(grid=g, components=2, samples=2.0 * np.stack([np.cos(theta), np.sin(theta)], 1))
    field_path = tmp_path / "off.field"
    write_field(field_path, u)
    out = _run_on_map(tmp_path, command, field_path)
    err = capsys.readouterr().err
    assert err == (f"config error: {MAP_KEYS[command]}: {field_path}: "
                   "field is not unit length (defect 1.00e+00)\n")
    assert list(out.iterdir()) == []


def test_non_finite_field_file_exits_2_naming_it(tmp_path, capsys):
    g = make_grid(1, 32, 2 * np.pi)
    samples = np.tile([1.0, 0.0], (32, 1))
    samples[9, 1] = np.nan
    field_path = tmp_path / "nan.field"
    write_field(field_path, VectorField(grid=g, components=2, samples=samples))
    cfg = _write(tmp_path, SOLVE_DOC)
    expected = f"config error: {field_path}: sample block holds non-finite values\n"
    assert main(["verify", "--config", str(cfg), "--field", str(field_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == expected
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--set", "initial.kind=file", "--set", f"initial.path={field_path}"]) == 2
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("key, value", [("components", "1e400"), ("points_per_axis", "1e400"),
                                        ("points_per_axis", "32.5"), ("dim", "1.5"),
                                        ("components", "2.5"), ("dim", "true"),
                                        ("box_length", "true"), ("components", "true"),
                                        ("unit_constrained", '"no"')])
def test_non_integral_field_header_exits_2_naming_it(tmp_path, capsys, key, value):
    # an infinite or fractional size in a header is a bad field file, not a
    # traceback, and never silently truncated; the header takes the config's
    # strict types, so `true` is no size and "no" no flag
    g = make_grid(1, 32, 2 * np.pi)
    field_path = tmp_path / "sizes.field"
    write_field(field_path, VectorField(grid=g, components=2, samples=np.tile([1.0, 0.0], (32, 1)),
                                        unit_constrained=True))
    header, _, block = field_path.read_bytes().partition(b"\n")
    doc = json.loads(header)
    del doc["header_digest"]
    doc[key] = "VALUE"
    field_path.write_bytes(json.dumps(doc).replace('"VALUE"', value).encode() + b"\n" + block)
    cfg = _write(tmp_path, SOLVE_DOC)
    assert main(["verify", "--config", str(cfg), "--field", str(field_path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"config error: {field_path}: bad header: ")


def test_commands_sharing_a_directory_write_distinct_files(tmp_path):
    # solve with a hierarchy, verify, decay and probe on one config into one
    # directory: no file is written by two commands, and each manifest lists
    # exactly its own command's outputs
    doc = dict(SOLVE_DOC, hierarchy={"center": [3.141592653589793], "base_radius": 0.1,
                                     "levels": 4}, probes=["sobolev", "lp_sup"])
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    tag = load_config(str(cfg), [], str(out)).tag
    seen = {}
    for command in ("solve", "verify", "decay", "probe"):
        extra = ["--field", str(out / f"solution_{tag}.field")] if command == "verify" else []
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()} if out.exists() else {}
        # at M = 32 verify's duality check fails (exit 1); its files are written
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) in (0, 1)
        after = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert all(after[name] == t for name, t in before.items()), command
        written = set(after) - set(before)
        manifest = f"manifest_{command}_{tag}.json"
        assert manifest in written
        listed = json.loads((out / manifest).read_text())["outputs"]
        assert sorted(listed) == sorted(written - {manifest}), command
        seen[command] = written
    assert {f"decay_solve_{tag}.csv", f"decay_solve_{tag}.json"} <= seen["solve"]
    assert f"el_residuals_verify_{tag}.csv" in seen["verify"]


def test_every_csv_artifact_parses_to_its_header_width(tmp_path):
    # the EL tables' labels hold commas, bump(c=0.25L, r=0.7854) and
    # omega[0,1], so those fields are quoted; a CSV reader reads every row
    # of every table a solve with a hierarchy and a verify write with as
    # many fields as the header names
    doc = dict(SOLVE_DOC, hierarchy={"center": [3.141592653589793], "base_radius": 0.1,
                                     "levels": 4})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    tag = load_config(str(cfg), [], str(out)).tag
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    # at M = 32 verify's duality check fails (exit 1); its files are written
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--field", str(out / f"solution_{tag}.field")]) in (0, 1)
    tables = sorted(out.glob("*.csv"))
    assert {p.name.split("_")[0] for p in tables} == {"trace", "el", "decay"}
    assert len(list(out.glob("el_residuals_*.csv"))) == 2
    for path in tables:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and {len(row) for row in rows} == {len(header)}, path.name


def test_verify_of_a_constant_map_passes(tmp_path):
    # a constant map's pair flux is exactly zero, so both sides of the
    # duality identity vanish and its relative error is 0, not 0/0
    g = make_grid(1, 16, 2 * np.pi)
    u = VectorField(grid=g, components=2, samples=np.tile([0.6, 0.8], (16, 1)),
                    unit_constrained=True)
    field_path = tmp_path / "const.field"
    write_field(field_path, u)
    cfg = _write(tmp_path, dict(SOLVE_DOC, grid={"dim": 1, "points_per_axis": 16}))
    out = tmp_path / "o"
    assert main(["verify", "--config", str(cfg), "--field", str(field_path),
                 "--out", str(out)]) == 0
    doc = json.loads(next(out.glob("verify_*.json")).read_text())
    assert doc["duality"]["rel_error"] == 0.0
    assert doc["el_residual"]["value"] == 0.0
    assert doc["el_residual"]["worst"]["residual"] == 0.0


def test_probe_subset_and_exponent_guard(tmp_path, capsys):
    doc = {"energy": {"s": 0.5, "p": 2.0}, "probes": ["sobolev", "lp_sup"],
           "seed": 0}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
    names = {p.name.split("_")[1] for p in out.glob("probe_*.json")}
    assert names == {"sobolev", "lp"}
    # each probe runs on the setup its constant was frozen on: no config
    # key reaches a probe's exponents or sample counts
    capsys.readouterr()
    assert main(["probe", "--out", str(tmp_path / "o2"), "--set", 'probes=["sobolev"]',
                 "--set", "probe_params.sobolev.count=0"]) == 2
    assert capsys.readouterr().err == "config error: unknown config key probe_params\n"
    # a probe named twice would run twice and overwrite its own files
    assert main(["probe", "--out", str(tmp_path / "o3"), "--set", 'probes=["t1","t1"]']) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: probes: ") and err.count("\n") == 1
    assert not (tmp_path / "o3").exists()


def test_decay_requires_hierarchy(tmp_path, capsys):
    cfg = _write(tmp_path, SOLVE_DOC)
    assert main(["decay", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    # the missing hierarchy is reported before any initial data is read
    capsys.readouterr()
    assert main(["decay", "--out", str(tmp_path / "o"), "--set", "initial.kind=file",
                 "--set", f"initial.path={tmp_path / 'missing.field'}"]) == 2
    assert capsys.readouterr().err.startswith("config error: hierarchy:")
    doc = dict(SOLVE_DOC,
               grid={"dim": 1, "points_per_axis": 128},
               hierarchy={"center": [3.141592653589793], "base_radius": 0.05,
                          "levels": 5})
    cfg2 = _write(tmp_path, doc, "decay.json")
    out = tmp_path / "out"
    assert main(["decay", "--config", str(cfg2), "--out", str(out)]) == 0
    table = json.loads(next(out.glob("decay_*.json")).read_text())
    assert table["theta"] is not None


@pytest.mark.parametrize("name,reason", [("missing.field", "No such file or directory"),
                                         (".", "Is a directory")])
def test_unreadable_field_file_names_its_key(tmp_path, capsys, name, reason):
    path = tmp_path / name
    cfg = _write(tmp_path, SOLVE_DOC)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--set", "initial.kind=file", "--set", f"initial.path={path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial.path: ") and reason in err
    assert err.count("\n") == 1
    assert main(["verify", "--config", str(cfg), "--field", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --field: ") and reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "probe"])
@pytest.mark.parametrize("beneath", [False, True])
def test_unusable_out_dir_exits_2_before_any_work(tmp_path, capsys, command, beneath):
    # --out names a regular file, or a path beneath one: the output
    # directory is made before any work, so the run stops there
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if beneath else blocker
    assert main([command, "--out", str(out), "--set", 'probes=["t1"]']) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: out_dir: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_run_artifacts_are_written_only_by_reporting():
    # every artifact format (JSON with indent 2 and sorted keys, CSV with
    # %.17g floats) lives in reporting's two writers, so the command line
    # neither serializes JSON nor opens a file for writing
    src = (Path(__file__).resolve().parent.parent / "src" / "fracmap" / "cli.py").read_text()
    assert not re.search(r"^\s*(import|from)\s+json\b", src, re.M)
    assert not re.search(r"\bjson\.|\bopen\(|\.write_(text|bytes)\(", src)


def test_runs_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, dict(SOLVE_DOC, solver={"max_iters": 40}))
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1"])
    first = tmp_path / "first"
    shutil.move(out, first)
    main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "2"])
    names = sorted(p.name for p in out.iterdir() if not p.name.startswith("manifest"))
    assert names
    for name in names:
        assert filecmp.cmp(first / name, out / name, shallow=False), name


def _fresh_python(args, blas_threads, cwd):
    """Run `python <args>` in a new interpreter with OPENBLAS_NUM_THREADS
    unset (None) or set, whatever this process holds."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("blas_threads, threads", [(None, 1), ("2", 2)])
def test_a_fresh_cli_runs_one_blas_thread_unless_told_otherwise(tmp_path, blas_threads, threads):
    # numpy's OpenBLAS starts a busy-waiting worker per extra thread; the
    # package sets one thread before numpy loads, and keeps an outside value
    if threads > (os.cpu_count() or 1):
        pytest.skip("OpenBLAS starts no more threads than there are CPUs")
    out = _fresh_python(["-c", "import os, fracmap.cli; print(len(os.listdir('/proc/self/task')))"],
                        blas_threads, tmp_path)
    assert int(out) == threads


def test_importing_the_package_loads_no_module(tmp_path):
    # the package root only pins one BLAS thread: numpy and every fracmap
    # module load when a module is imported, not before
    out = _fresh_python(["-c", "import sys, fracmap; print(sorted(m for m in sys.modules "
                         "if m == 'numpy' or m.startswith(('numpy.', 'fracmap.'))))"],
                        None, tmp_path)
    assert out.strip() == "[]"


# a fresh interpreter runs one command through main, then prints its exit
# code and which of the layers and libraries a command may skip it loaded
RUN_AND_LIST_MODULES = """
import json, sys
from fracmap.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in ("fracmap.lab", "fracmap.fracops", "mpmath", "_hashlib")
                         if m in sys.modules]]))
"""


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    # lab, fracops, mpmath and OpenSSL's libcrypto (_hashlib) cost every
    # process their compile time and memory, so a command loads only what it
    # calls: a solve none of them, verify the spectral operators and mpmath's
    # duality kernel, decay and probe the lab. At M = 16 verify runs every
    # check and exits 1: the duality rel_error, 9.9e-3, is above its tolerance
    common = ["--set", "grid.points_per_axis=16", "--out", "."]
    solution = f"solution_{load_config(None, ['grid.points_per_axis=16'], '.').tag}.field"
    runs = [("solve", [], 0, []),
            ("verify", ["--field", solution], 1, ["fracmap.fracops", "mpmath"]),
            ("decay", ["--set", "hierarchy.levels=4"], 0, ["fracmap.lab", "fracmap.fracops"]),
            ("probe", ["--set", 'probes=["kernel_case"]'], 0, ["fracmap.lab", "fracmap.fracops"])]
    for command, extra, want_code, want_modules in runs:
        out = _fresh_python(["-c", RUN_AND_LIST_MODULES, command, *common, *extra], None, tmp_path)
        code, modules = json.loads(out.splitlines()[-1])
        assert modules == want_modules, command
        assert code == want_code, command
        manifest = json.loads(next(tmp_path.glob(f"manifest_{command}_*.json")).read_text())
        assert 0.0 < manifest["startup_cpu_s"] <= manifest["cpu_s"], command

    out = _fresh_python(["-c", "import sys, fracmap.lab; print([m for m in ('fracmap.reporting', "
                         "'fracmap.solver', 'fracmap.cli') if m in sys.modules])"], None, tmp_path)
    assert out.strip() == "[]"


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # the same relative --out in two directories, so the tags agree
    first, second = tmp_path / "unset", tmp_path / "two"
    for cwd, blas_threads in ((first, None), (second, "2")):
        cwd.mkdir()
        _fresh_python(["-m", "fracmap.cli", "solve", "--set", "grid.points_per_axis=32",
                       "--out", "."], blas_threads, cwd)
    names = sorted(p.name for p in first.iterdir() if not p.name.startswith("manifest"))
    assert names == sorted(p.name for p in second.iterdir() if not p.name.startswith("manifest"))
    assert names
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name


@pytest.mark.parametrize("doc, key", [
    ({"energy": []}, "energy"),
    ({"grid": {"dim": None}}, "grid.dim"),
    ([], "config root"),
    ({"solver": []}, "solver"),
    ({"hierarchy": []}, "hierarchy"),
    ({"initial": "winding"}, "initial"),
    ({"grid": {"points_per_axis": 64.7}}, "grid.points_per_axis"),
    ({"seed": 2.7}, "seed"),
    ({"solver": {"max_iters": 1.5}}, "solver.max_iters"),
    ({"energy": {"critical_mode": "false"}}, "energy.critical_mode"),
    # values whose arithmetic overflows or underflows float64 further on
    ({"hierarchy": {"levels": 1100}}, "hierarchy"),
    ({"grid": {"box_length": 1e200}}, "grid"),
    ({"grid": {"dim": 2, "points_per_axis": 8, "box_length": 1e100}}, "grid"),
    ({"grid": {"box_length": 1e-200}}, "grid"),
    ({"seed": 10**400}, "seed"),
    # numpy's generators take only non-negative seeds
    ({"initial": {"kind": "random"}, "seed": -1}, "seed"),
    # h^2 is in range, but d^{n + s p} = d^10 is not
    ({"grid": {"box_length": 1e-100}, "energy": {"s": 0.9, "p": 10}}, "grid"),
    ({"grid": {"box_length": 1e100}, "energy": {"s": 0.9, "p": 10}}, "grid"),
])
def test_malformed_values_exit_2_with_one_line(tmp_path, capsys, doc, key):
    cfg = _write(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"config error: {key}:")


@pytest.mark.parametrize("command, sets, key, says", [
    # a non-finite float would run to max_iters (NaN), stop at once (inf),
    # or turn the Armijo test into NaN
    ("solve", ["solver.grad_tol=NaN"], "solver.grad_tol", "is out of range"),
    ("solve", ["solver.grad_tol=1e400"], "solver.grad_tol", "is out of range"),
    ("solve", ["solver.grad_tol=Infinity"], "solver.grad_tol", "is out of range"),
    ("solve", ["energy.s=NaN"], "energy.s", "is out of range"),
    ("solve", ["hierarchy.center=[-Infinity]"], "hierarchy.center", "is out of range"),
    # a constant start is already critical: a constant map is a field file
    ("solve", ["initial.kind=constant"], "initial.kind", "unknown kind 'constant'"),
    # the energy's own range: 0 < s < 1 and p > 1, checked by its constructor
    ("solve", ["energy.s=1.5"], "energy", "s must lie in (0,1)"),
    ("decay", ["energy.p=1", "hierarchy.levels=5"], "energy", "p must exceed 1"),
    # at s = 0.6 the critical p = 5/3 puts t's lower end at 1 - 0.4 p = 1/3
    ("solve", ["energy.s=0.6", "energy.t=0.3"], "energy.t", "inadmissible"),
    # a probe run that selects nothing would pass having checked nothing
    ("probe", ["probes=[]"], "probes", "empty"),
])
def test_out_of_range_settings_exit_2_with_one_line(tmp_path, capsys, command, sets, key, says):
    argv = [command, "--out", str(tmp_path / "o")]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"config error: {key}:") and says in err


@pytest.mark.parametrize("key", ["step0", "armijo_c", "armijo_shrink", "energy_tol"])
def test_fixed_step_rules_are_not_config_keys(tmp_path, capsys, key):
    # the line-search constants and the energy stop are not settings
    assert main(["solve", "--out", str(tmp_path / "o"), "--set", f"solver.{key}=1"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown config key solver.{key}\n"


def test_eps_reg_is_not_a_config_key(tmp_path, capsys):
    # one energy for every p > 1: there is no regularizer to set
    assert main(["solve", "--out", str(tmp_path / "o"), "--set", "energy.eps_reg=0.001"]) == 2
    assert capsys.readouterr().err == "config error: unknown config key energy.eps_reg\n"


def test_initial_value_is_not_a_config_key(tmp_path, capsys):
    cfg = _write(tmp_path, {"initial": {"value": [1.0, 0.0]}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: unknown config key initial.value\n"


def test_verify_checks_the_default_t_before_any_work(tmp_path, capsys):
    # at s = 0.04 the default t = s - 0.05 is negative: verify exits 2
    # before its EL suite, so the output directory stays empty
    g = make_grid(1, 16, 2 * np.pi)
    field_path = tmp_path / "const.field"
    write_field(field_path, VectorField(grid=g, components=2, samples=np.tile([0.6, 0.8], (16, 1)),
                                        unit_constrained=True))
    out = tmp_path / "o"
    assert main(["verify", "--set", "energy.s=0.04", "--set", "energy.p=2",
                 "--set", "grid.points_per_axis=16", "--field", str(field_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: energy.t (default s - 0.05): t must lie in (0,1)")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_probe_reports_carry_the_run_seed(tmp_path):
    out = tmp_path / "o"
    assert main(["probe", "--set", "seed=7", "--out", str(out)]) == 0
    docs = [json.loads(p.read_text()) for p in out.glob("probe_*.json")]
    assert sorted(d["probe"] for d in docs) == sorted(PROBE_NAMES)
    assert [d["seed"] for d in docs] == [7] * len(docs)


def test_set_into_a_non_object_root_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, [])
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--set", "seed=1"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_numerical_value_error_exits_1(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("localized energies not monotone")

    monkeypatch.setattr(lab, "decay_profile", broken)
    doc = dict(SOLVE_DOC, hierarchy={"center": [3.141592653589793], "levels": 5})
    cfg = _write(tmp_path, doc)
    assert main(["decay", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: localized energies not monotone\n"
