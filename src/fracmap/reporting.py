"""Run configuration, manifests, and serialization.

A config is a strict JSON object described by one table, SCHEMA, of
(type, default) per key, with one nested table per section. Unknown keys
are errors; a float key takes any JSON number, an int key an integral
number, either only a finite float64 (NaN, Infinity and 1e400 are out of
range, also in a list), a bool key only true or false, a string key only
a string, and null is accepted only where the default is None. Value ranges are checked by the constructors the values
feed (make_grid, EnergyParams, SolverConfig, BallHierarchy), and the
seed's sign and the few rules that tie keys together (critical p = n/s,
the admissible t window, a non-empty selection of distinct known probes) by
parse_config. Every violation raises ConfigError naming
the offending key. `probes` picks which probes run, from PROBE_NAMES; no
key reaches a probe's setup, which is fixed by its frozen constant
(lab.run_probe). The canonical input document, without defaults, is
kept as RunConfig.raw: its config_hash tags the artifact file names.
PROBE_NAMES, DECAY_MIN_LEVELS and config_hash live here, on the config
side, and lab reads them inside the functions that use them, so that
importing this module loads neither lab nor fracops.
Scientific outputs are byte-reproducible; wall-clock timestamps and CPU
readings are quarantined in the run manifest.

This module alone formats the run artifacts, each through _write_json
or _write_csv. The emitters return the paths they wrote into an output
directory that the command line has created before any work.

Field files hold vector fields: a one-line JSON header followed by a raw
little-endian float64 block in sample-major order. The header holds a
sha256 digest of the block and a `header_digest`, the config_hash of
dim, points_per_axis, box_length, components (at least 1) and
unit_constrained; read_field checks the latter when present and also
reads files without it. Those five keys take the config's strict types:
integral dim, points_per_axis and components, a number box_length, and
unit_constrained only true or false. Cheap to write, bit-exact to read
back, and self-describing enough to catch truncation, damaged headers, mismatched
grids and samples off the sphere under a unit_constrained header: any
malformed file raises FieldFormatError or FieldDigestError.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .energy import MAX_KERNEL_PAIRS, EnergyParams, _validate_t, check_pair_weights
from .grid import BallHierarchy, GridSpec, VectorField, make_grid
from .solver import SolverConfig

# The interpreter's own SHA-256 (CPython builds it in: _sha256 up to 3.11,
# _sha2 from 3.12). hashlib maps OpenSSL's libcrypto, which added 3.5 MB to
# every command's resident memory only to hash a config and a field of a
# few kB (CPython 3.11, x86-64 Linux); hashlib is the fallback.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"

PROBE_NAMES = ("sobolev", "commutator", "kernel_case", "lp_sup", "t1", "holefill")

# fewest hierarchy levels a decay table accepts
DECAY_MIN_LEVELS = 4


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest of data, the one hash of the run artifacts."""
    return _sha256(data).hexdigest()


def config_hash(doc: dict) -> str:
    """sha256 of the canonical JSON of doc (sorted keys, no whitespace):
    the digest of the frozen constants, of a run config and of a field
    header."""
    return sha256_hex(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


class ConfigError(ValueError):
    """Raised for malformed or contradictory run configurations."""


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: EnergyParams
    solver: SolverConfig
    hierarchy: BallHierarchy | None
    initial: dict
    probes: tuple
    t: float | None
    seed: int
    out_dir: str
    raw: dict = field(repr=False)

    @property
    def tag(self) -> str:
        """File-name tag of the run's artifacts: a prefix of the config hash."""
        return config_hash(self.raw)[:12]


# The config schema: key -> (type, default); a nested dict is a section.
# `null` is accepted exactly where the default is None.
SCHEMA = {
    "schema_version": (int, SCHEMA_VERSION),
    "grid": ({
        "dim": (int, 1),
        "points_per_axis": (int, 64),
        "box_length": (float, 2.0 * np.pi),
    }, {}),
    "energy": ({
        "s": (float, 0.5),
        "p": (float, None),  # None: p = n/s
        "t": (float, None),
        "critical_mode": (bool, False),
    }, {}),
    "solver": ({f.name: (type(f.default), f.default) for f in fields(SolverConfig)}, {}),
    "hierarchy": ({
        "center": (list[float], None),  # None: the origin
        "base_radius": (float, 0.05),
        "levels": (int, 5),
    }, None),
    "initial": ({
        "kind": (str, "winding"),
        "path": (str, None),
    }, {}),
    "probes": (list[str], list(PROBE_NAMES)),
    "seed": (int, 0),
    "out_dir": (str, "runs"),
}

_EXPECTED = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
             list[float]: "a list of numbers", list[str]: "a list of strings"}


def _typed(value, typ, where: str, nullable: bool = False):
    """Check one config value against its schema type."""
    if value is None and nullable:
        return None
    if isinstance(typ, dict):
        return _section(value, typ, where)
    try:  # strict JSON, as the artifacts: no NaN or infinity, also from 1e400
        json.dumps(value, allow_nan=False, default=repr)
    except ValueError:
        raise ConfigError(f"{where}: {value} is out of range") from None
    item = getattr(typ, "__args__", (None,))[0]  # list[float] -> float
    if item is not None and isinstance(value, list):
        return [_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ in (int, float) and number:
        try:
            as_float = float(value)  # an int key's value must fit a float too
        except OverflowError:
            raise ConfigError(f"{where}: {value} is out of range") from None
        if typ is float:
            return as_float
        if isinstance(value, int) or value.is_integer():
            return int(value)
    if typ in (bool, str) and isinstance(value, typ):
        return value
    raise ConfigError(f"{where}: expected {_EXPECTED[typ]}, got {json.dumps(value, default=repr)}")


def _section(doc, schema: dict, where: str) -> dict:
    """One config object: unknown keys are errors, and every schema key is
    in the result, typed, with its default where the key is absent."""
    if not isinstance(doc, dict):
        raise ConfigError(
            f"{where or 'config root'}: expected an object, got {json.dumps(doc, default=repr)}"
        )
    prefix = f"{where}." if where else ""
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix}{key}")
    return {key: _typed(doc.get(key, default), typ, prefix + key, nullable=default is None)
            for key, (typ, default) in schema.items()}


def as_config_error(where: str, fn, *args, **kwargs):
    """Call fn; a ValueError it raises on the config's values becomes a
    ConfigError naming `where`."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def parse_config(doc: dict) -> RunConfig:
    """Validate a config dictionary into a RunConfig. All constraint
    violations raise ConfigError naming the offending key."""
    c = _section(doc, SCHEMA, "")
    if c["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {c['schema_version']}")

    g = c["grid"]
    grid = as_config_error("grid", make_grid, g["dim"], g["points_per_axis"], g["box_length"])
    if grid.n_sites**2 > MAX_KERNEL_PAIRS:
        raise ConfigError(f"grid: {grid.n_sites} sites make {grid.n_sites**2} pair terms "
                          f"per pass; at most {MAX_KERNEL_PAIRS} are supported")

    e = c["energy"]
    critical_p = grid.dim / e["s"] if e["s"] > 0 else np.inf  # EnergyParams rejects s <= 0
    p = critical_p if e["critical_mode"] or e["p"] is None else e["p"]
    params = as_config_error("energy", EnergyParams, s=e["s"], p=p)
    if e["critical_mode"] and e["p"] is not None and abs(e["p"] - p) > 1e-12:
        raise ConfigError(f"energy.p: critical_mode pins p = n/s = {p}, got {e['p']}")
    if e["t"] is not None:
        as_config_error("energy.t", _validate_t, e["t"], params)
    # the pair weights tie the grid to the energy's (s, p)
    as_config_error("grid", check_pair_weights, grid, params.s, params.p)

    solver = as_config_error("solver", SolverConfig, **c["solver"])

    h = c["hierarchy"]
    hierarchy = None
    if h is not None:
        if h["levels"] < DECAY_MIN_LEVELS:
            raise ConfigError(f"hierarchy.levels: the decay table needs at least "
                              f"{DECAY_MIN_LEVELS}, got {h['levels']}")
        hierarchy = as_config_error(
            "hierarchy", BallHierarchy,
            grid=grid,
            center=np.zeros(grid.dim) if h["center"] is None else np.asarray(h["center"]),
            base_radius=h["base_radius"],
            level_max=h["levels"] - 1,
        )

    if c["seed"] < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {c['seed']}")

    initial = c["initial"]
    if initial["kind"] not in ("winding", "file", "random"):
        raise ConfigError(f"initial.kind: unknown kind {initial['kind']!r}")

    if not c["probes"]:
        raise ConfigError(f"probes: the selection is empty; choose from {PROBE_NAMES}")
    for name in c["probes"]:
        if name not in PROBE_NAMES:
            raise ConfigError(f"probes: unknown probe {name!r}; choose from {PROBE_NAMES}")
        if c["probes"].count(name) > 1:
            raise ConfigError(f"probes: {name!r} is selected more than once")

    return RunConfig(
        grid=grid,
        params=params,
        solver=solver,
        hierarchy=hierarchy,
        initial=initial,
        probes=tuple(c["probes"]),
        t=e["t"],
        seed=c["seed"],
        out_dir=c["out_dir"],
        raw=canonical_config(doc),
    )


def load_config(path, overrides, out_dir) -> RunConfig:
    """Read a JSON config file (None: the empty config), apply --set
    overrides and the output directory, and validate. Parse
    errors carry the line and column; schema errors name the offending
    key."""
    doc = {}
    if path:
        try:
            doc = json.loads(Path(path).read_bytes())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
        except (OSError, ValueError) as e:
            raise ConfigError(f"{path}: cannot read: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    doc = apply_overrides(doc, overrides)
    if out_dir is not None:
        doc["out_dir"] = out_dir
    return parse_config(doc)


def canonical_config(doc: dict) -> dict:
    """Round-trip through canonical JSON so key order cannot leak into
    hashes or manifests."""
    return json.loads(json.dumps(doc, sort_keys=True))


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply --set key=value pairs (dotted keys) onto a config dict.
    Values parse as JSON when possible, else stay strings. The result
    must be re-validated through parse_config."""
    out = json.loads(json.dumps(doc))
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except ValueError:  # not JSON: the value is a string
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r} descends into a non-object")
        node[parts[-1]] = parsed
    return out


@dataclass
class RunManifest:
    """A command's run manifest: the one artifact that carries clock
    readings. startup_cpu_s and cpu_s are the process CPU seconds
    (time.process_time) when the command began its work, after the
    interpreter, the imports and the config loading, and when it wrote
    this manifest."""

    config_hash: str
    artifact_version: str
    started: str
    finished: str
    startup_cpu_s: float
    cpu_s: float
    outputs: list

    def write(self, path) -> None:
        _write_json(path, asdict(self))


# ---------------------------------------------------------------------------
# field serialization
# ---------------------------------------------------------------------------


class FieldFormatError(ValueError):
    """Structural problem in a field file (bad header, wrong length)."""


class FieldDigestError(ValueError):
    """The sample block does not match its recorded digest."""


def _header_digest(header: dict) -> str:
    """sha256 over the canonical JSON of the header keys that fix how the
    sample block is read."""
    return config_hash({k: header[k] for k in ("dim", "points_per_axis", "box_length", "components",
                                               "unit_constrained")})


def write_field(path, f) -> None:
    """Header line (JSON) + raw little-endian float64 sample block."""
    if not isinstance(f, VectorField):
        raise TypeError(f"expected a VectorField, got {type(f).__name__}")
    block = np.ascontiguousarray(f.samples, dtype="<f8").tobytes()
    header = {
        "schema_version": SCHEMA_VERSION,
        "dim": f.grid.dim,
        "points_per_axis": f.grid.points_per_axis,
        "box_length": f.grid.box_length,
        "components": f.components,
        "unit_constrained": f.unit_constrained,
        "digest": sha256_hex(block),
    }
    header["header_digest"] = _header_digest(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(block)


def read_field(path):
    """Inverse of write_field; the block digest, the header digest (when
    the file has one), the shape and the unit norm a `unit_constrained`
    header claims are all verified."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        block = fh.read()
    try:
        header = json.loads(header_line)
        grid = make_grid(_typed(header["dim"], int, "dim"),
                         _typed(header["points_per_axis"], int, "points_per_axis"),
                         _typed(header["box_length"], float, "box_length"))
        components = _typed(header["components"], int, "components")
        unit_constrained = _typed(header.get("unit_constrained", False), bool, "unit_constrained")
        digest = header["digest"]
        header_ok = "header_digest" not in header or header["header_digest"] == _header_digest(header)
    except KeyError as e:
        raise FieldFormatError(f"{path}: header missing {e}") from None
    except (ValueError, TypeError, OverflowError) as e:
        raise FieldFormatError(f"{path}: bad header: {e}") from None
    if not header_ok:
        raise FieldDigestError(f"{path}: header digest mismatch")
    if components < 1:
        raise FieldFormatError(f"{path}: components must be at least 1, got {components}")
    expect = grid.n_sites * components * 8
    if len(block) != expect:
        raise FieldFormatError(
            f"{path}: sample block holds {len(block)} bytes, header implies {expect}"
        )
    if sha256_hex(block) != digest:
        raise FieldDigestError(f"{path}: sample block digest mismatch")
    samples = np.frombuffer(block, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(samples)):
        raise FieldFormatError(f"{path}: sample block holds non-finite values")
    try:
        return VectorField(
            grid=grid,
            components=components,
            samples=samples.reshape(grid.n_sites, components),
            unit_constrained=unit_constrained,
        )
    except ValueError as e:  # the samples break what the header claims
        raise FieldFormatError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _write_json(path, doc):
    """A JSON artifact: indent 2, sorted keys, one trailing newline; strict
    JSON, so a NaN or infinite value raises ValueError."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _csv_field(v) -> str:
    """One CSV field: a float as %.17g (full float64 round-trip precision);
    a field that holds a comma, a quote or a line break in quotes, its
    quotes doubled, as csv.writer's minimal quoting writes it."""
    if isinstance(v, float):
        return "%.17g" % v
    v = str(v)
    if not any(c in v for c in ',"\r\n'):
        return v
    return '"' + v.replace('"', '""') + '"'


def _write_csv(path, header: str, rows):
    """A CSV artifact: one header line, then one line per row. The fields
    are quoted here because importing the csv module adds 72 kB to every
    command's resident memory (CPython 3.11, x86-64 Linux)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_field, row)) + "\n")
    return path


def worst_el_entry(suite) -> dict | None:
    """The first entry of an ElResidualReport with its largest residual,
    keyed as the EL table's columns; None when it is empty."""
    if not suite.entries:
        return None
    phi_label, om_label, val = max(suite.entries, key=lambda entry: entry[2])
    return {"test_function": phi_label, "generator": om_label, "residual": float(val)}


def emit_solve_report(report, out_dir, tag: str) -> list:
    """SolveReport -> JSON summary + energy-trace CSV. Returns the paths."""
    summary = {
        "iterations": report.iterations,
        "final_grad_norm": report.final_grad_norm,
        "final_el_residual_max": report.final_el_residual_max,
        "worst_el_entry": worst_el_entry(report.el_suite),
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "energy_changes": report.energy_changes,
    }
    steps = (0.0, *report.step_trace)  # the initial iterate took no step
    rows = ((i, float(e), float(step), float(gn)) for i, (e, step, gn)
            in enumerate(zip(report.energy_trace, steps, report.grad_trace, strict=True)))
    return [_write_json(Path(out_dir) / f"solve_{tag}.json", summary),
            _write_csv(Path(out_dir) / f"trace_{tag}.csv", "iteration,energy,step,grad_norm", rows)]


def emit_decay_table(table, out_dir, tag: str) -> list:
    """lab.DecayTable -> CSV of its rows + JSON of its fit."""
    rows = ((lev, float(r), float(e)) for lev, r, e in table.rows)
    return [_write_csv(Path(out_dir) / f"decay_{tag}.csv", "level,radius,energy", rows),
            _write_json(Path(out_dir) / f"decay_{tag}.json",
                        {"theta": table.theta, "fit_residual": table.fit_residual})]


def emit_probe_report(report, out_dir, tag: str) -> list:
    """lab.ProbeReport -> CSV of its rows + JSON summary."""
    stem = f"probe_{report.name}_{tag}"
    rows = ((sample, float(lhs), float(rhs), float(ratio)) for sample, lhs, rhs, ratio in report.rows)
    summary = {"probe": report.name, "sample_count": report.sample_count,
               "worst_ratio": report.worst_ratio, "frozen_C": report.frozen_c,
               "pass": report.passed, "seed": report.seed}
    return [_write_csv(Path(out_dir) / f"{stem}.csv", "sample,lhs,rhs,ratio", rows),
            _write_json(Path(out_dir) / f"{stem}.json", summary)]


def emit_el_table(report, out_dir, tag: str) -> list:
    """ElResidualReport -> CSV of (test function, generator, residual)."""
    rows = ((phi_label, om_label, float(val)) for phi_label, om_label, val in report.entries)
    return [_write_csv(Path(out_dir) / f"el_residuals_{tag}.csv", "test_function,generator,residual", rows)]


def emit_verify_report(checks: dict, out_dir, tag: str) -> list:
    """verify's checks, one JSON object per check."""
    return [_write_json(Path(out_dir) / f"verify_{tag}.json", checks)]
