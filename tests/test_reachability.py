"""Every function defined in src/fracmap runs under a command.

The test profiles, in this process, `selftest` (solve, verify, decay and
probe on the default 1d config), a 1d solve at p = 3 and a 2d solve at
p = 4, which take the pair-pass and spectral branches that p = 2 skips,
and the calibration entry point. A function of the package that none of
them calls is code that no command runs, and fails the test by name
unless ALLOWED lists it with the reason it stays. An allowed name that
ran, or that no longer exists, fails too, so the list can only shrink.

Code objects are matched by (file, first line): the line of a def's
first decorator, or of the def itself, which is co_firstlineno on every
supported Python (3.10 has no co_qualname).
"""
import ast
import sys
from pathlib import Path

from fracmap import calibrate, cli

PACKAGE = Path(cli.__file__).resolve().parent

ALLOWED = {
    # bench/traced.py looks these up by name (ROADMAP item 6)
    "energy.el_residual",
    "fracops.forward_constant",
    # acceptance criteria 2 and 3 call these
    "energy.t_operator",
    "energy._kappa_exact",
    "fracops.riesz_potential",
}


def defined_functions() -> dict:
    """(file, first line) -> module-qualified name of every def in the
    package, nested functions and methods included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return found


def test_every_function_runs_under_a_command(tmp_path):
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runs = [
        ["selftest"],
        ["solve", "--out", str(tmp_path / "p3"), "--set", "energy.s=0.4", "--set", "energy.p=3.0",
         "--set", "grid.points_per_axis=32", "--set", "solver.max_iters=3"],
        ["solve", "--out", str(tmp_path / "2d"), "--set", "grid.dim=2",
         "--set", "grid.points_per_axis=8", "--set", "solver.max_iters=3"],
    ]
    # a cached function that an earlier test filled would not run again
    for name, module in list(sys.modules.items()):
        if name.startswith("fracmap."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in runs]
        codes.append(calibrate.main(["--out", str(tmp_path / "frozen.json")]))
    finally:
        sys.setprofile(None)
    assert codes == [0, 3, 3, 0]
    ran = {(str(Path(file).resolve()), line) for file, line in ran}
    unreached = {name for key, name in defined_functions().items() if key not in ran}
    missed = sorted(unreached - ALLOWED)
    assert not missed, f"no command runs {missed}"
    stale = sorted(ALLOWED - unreached)
    assert not stale, f"allowed, but they ran or no longer exist: {stale}"
