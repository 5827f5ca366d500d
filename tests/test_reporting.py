import csv
import io
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracmap.grid import ScalarField, VectorField, make_grid
from fracmap.reporting import (
    ConfigError,
    FieldDigestError,
    FieldFormatError,
    SCHEMA,
    RunManifest,
    _header_digest,
    _write_json,
    apply_overrides,
    canonical_config,
    config_hash,
    emit_decay_table,
    emit_el_table,
    emit_probe_report,
    emit_solve_report,
    load_config,
    parse_config,
    read_field,
    sha256_hex,
    write_field,
)

TWO_PI = 2.0 * np.pi


def test_readme_config_example_parses_and_uses_schema_keys():
    # the JSON block under the README's "## Config" is a valid config, and
    # every key it shows is one of the schema's
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Config\n", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    parse_config(doc)

    def check(node, schema, where):
        for key, value in node.items():
            assert key in schema, f"README config key {where}{key} is not in SCHEMA"
            sub = schema[key][0]
            if isinstance(sub, dict):
                check(value, sub, f"{where}{key}.")

    check(doc, SCHEMA, "")


def test_parse_config_defaults():
    cfg = parse_config({"energy": {"s": 0.5, "p": 2.0}})
    assert cfg.grid.dim == 1
    assert cfg.grid.points_per_axis == 64
    assert cfg.params.s == 0.5
    assert cfg.initial["kind"] == "winding"
    assert cfg.probes == ("sobolev", "commutator", "kernel_case",
                          "lp_sup", "t1", "holefill")


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="stepsize"):
        parse_config({"energy": {"s": 0.5, "p": 2.0},
                      "solver": {"stepsize": 0.1}})
    with pytest.raises(ConfigError, match="grdi"):
        parse_config({"energy": {"s": 0.5, "p": 2.0}, "grdi": {}})
    with pytest.raises(ConfigError, match="probe_params"):
        parse_config({"probes": ["t1"], "probe_params": {"t1": {"count": 2}}})
    # the run seed is the only seed of the initial data
    with pytest.raises(ConfigError, match="initial.seed"):
        parse_config({"initial": {"kind": "random", "seed": -3}})


def test_parse_config_critical_mode():
    cfg = parse_config({"grid": {"dim": 1}, "energy": {"s": 0.5, "critical_mode": True}})
    assert cfg.params.p == 2.0
    cfg2 = parse_config({"grid": {"dim": 2, "points_per_axis": 8},
                         "energy": {"s": 0.5, "critical_mode": True},
                         "initial": {"kind": "winding"}})
    assert cfg2.params.p == 4.0
    with pytest.raises(ConfigError):
        parse_config({"energy": {"s": 0.5, "p": 3.0, "critical_mode": True}})


def test_parse_config_t_admissibility():
    # t must respect 1 - (1-s)p < t < 1
    with pytest.raises(ConfigError):
        parse_config({"energy": {"s": 0.5, "p": 2.0, "t": 1.2}})
    with pytest.raises(ConfigError):
        parse_config({"energy": {"s": 0.8, "p": 2.0, "t": 0.3}})  # needs t > 0.6
    cfg = parse_config({"energy": {"s": 0.8, "p": 2.0, "t": 0.7}})
    assert cfg.t == 0.7


def test_parse_config_validates_probe_names():
    with pytest.raises(ConfigError):
        parse_config({"energy": {"s": 0.5, "p": 2.0}, "probes": ["banana"]})
    cfg = parse_config({"energy": {"s": 0.5, "p": 2.0}, "probes": ["sobolev", "t1"]})
    assert cfg.probes == ("sobolev", "t1")


def test_parse_config_initial_kinds():
    # winding data exists in 1d and 2d
    cfg = parse_config({"grid": {"dim": 2, "points_per_axis": 8},
                        "energy": {"s": 0.5, "p": 4.0},
                        "initial": {"kind": "winding"}})
    assert cfg.initial["kind"] == "winding"
    with pytest.raises(ConfigError):
        parse_config({"energy": {"s": 0.5, "p": 2.0}, "initial": {"kind": "banana"}})


def test_parse_config_strict_types():
    cfg = parse_config({"grid": {"points_per_axis": 64.0, "box_length": 6},
                        "energy": {"t": None}, "hierarchy": {}})
    assert cfg.grid.points_per_axis == 64 and type(cfg.grid.points_per_axis) is int
    assert cfg.grid.box_length == 6.0 and type(cfg.grid.box_length) is float
    assert cfg.params.p == 2.0 and cfg.t is None
    assert cfg.hierarchy.center.tolist() == [0.0]
    assert cfg.raw == {"grid": {"points_per_axis": 64.0, "box_length": 6},
                       "energy": {"t": None}, "hierarchy": {}}  # no defaults injected
    for doc, key in (({"grid": {"points_per_axis": 64.7}}, "grid.points_per_axis"),
                     ({"energy": {"s": True}}, "energy.s"),
                     ({"energy": {"s": "0.5"}}, "energy.s"),
                     ({"energy": {"critical_mode": "false"}}, "energy.critical_mode"),
                     ({"solver": {"max_iters": 1.5}}, "solver.max_iters"),
                     ({"solver": {"grad_tol": None}}, "solver.grad_tol"),
                     ({"solver": {"seed": 1}}, "solver.seed"),
                     ({"hierarchy": {"center": [0.1, "x"]}}, "hierarchy.center[1]"),
                     ({"energy": {"s": 10**400}}, "energy.s"),
                     ({"energy": {"s": 0.0}}, "energy")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(doc)


def test_parse_config_rejects_hierarchy_and_grid_no_run_can_use():
    # decay_profile and the pair kernel would raise a plain ValueError
    # (exit 1) mid-run; the config is rejected up front instead
    with pytest.raises(ConfigError, match="hierarchy.levels"):
        parse_config({"hierarchy": {"levels": 3}})
    with pytest.raises(ConfigError, match="grid"):
        parse_config({"grid": {"points_per_axis": 2**14}})
    with pytest.raises(ConfigError, match="grid"):
        parse_config({"grid": {"dim": 2, "points_per_axis": 2**40}})


def test_load_config_reports_json_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"energy": {"s": 0.5,, "p": 2}}')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad, (), None)


def test_config_hash_is_key_order_independent():
    a = {"energy": {"s": 0.5, "p": 2.0}, "seed": 3}
    b = {"seed": 3, "energy": {"p": 2.0, "s": 0.5}}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"energy": {"s": 0.5, "p": 2.0}, "seed": 4})
    assert canonical_config(a) == canonical_config(b)


def test_apply_overrides():
    doc = {"energy": {"s": 0.5, "p": 2.0}}
    out = apply_overrides(doc, ["energy.s=0.6", "solver.max_iters=50",
                                "probes=[\"sobolev\"]"])
    assert out["energy"]["s"] == 0.6
    assert out["solver"]["max_iters"] == 50
    assert out["probes"] == ["sobolev"]
    assert doc["energy"]["s"] == 0.5  # original untouched
    with pytest.raises(ConfigError):
        apply_overrides(doc, ["energy"])  # no assignment
    with pytest.raises(ConfigError):
        apply_overrides(doc, ["energy.s.deep=1"])  # descends into a scalar


def test_field_roundtrip_bitwise(tmp_path):
    g = make_grid(1, 32, TWO_PI)
    rng = np.random.default_rng(71)
    raw = rng.normal(size=(32, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    u = VectorField(grid=g, components=2, samples=raw, unit_constrained=True)
    path = tmp_path / "u.field"
    write_field(path, u)
    back = read_field(path)
    assert isinstance(back, VectorField)
    assert back.unit_constrained
    np.testing.assert_array_equal(back.samples, u.samples)
    assert back.grid == g
    # the header holds the map only; files whose header also carries a
    # `meta` object, as solve wrote them before, are still read
    header, _, block = path.read_bytes().partition(b"\n")
    doc = json.loads(header)
    assert "meta" not in doc
    doc["meta"] = {"iterations": 3}
    (tmp_path / "meta.field").write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + block)
    np.testing.assert_array_equal(read_field(tmp_path / "meta.field").samples, u.samples)

    # field files hold vector fields only: no scalar is written, and a
    # header with no components is refused
    with pytest.raises(TypeError):
        write_field(tmp_path / "f.field", ScalarField(grid=g, samples=rng.normal(size=32)))
    header, _, block = path.read_bytes().partition(b"\n")
    doc = json.loads(header)
    doc["components"] = 0
    doc["header_digest"] = _header_digest(doc)
    (tmp_path / "f.field").write_bytes(json.dumps(doc).encode() + b"\n" + block)
    with pytest.raises(FieldFormatError, match="components"):
        read_field(tmp_path / "f.field")


def test_field_corruption_detected(tmp_path):
    g = make_grid(1, 16, TWO_PI)
    u = VectorField(grid=g, components=2,
                    samples=np.tile([0.6, 0.8], (16, 1)), unit_constrained=True)
    path = tmp_path / "u.field"
    write_field(path, u)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x40  # flip a bit inside the sample block
    (tmp_path / "tampered.field").write_bytes(bytes(blob))
    with pytest.raises(FieldDigestError):
        read_field(tmp_path / "tampered.field")
    # truncation is a structural error, caught before the digest
    (tmp_path / "short.field").write_bytes(bytes(blob[:-16]))
    with pytest.raises(FieldFormatError):
        read_field(tmp_path / "short.field")
    (tmp_path / "garbage.field").write_bytes(b"not a header\n")
    with pytest.raises(FieldFormatError):
        read_field(tmp_path / "garbage.field")
    # a header that parses but describes no valid field
    header, _, block = bytes(path.read_bytes()).partition(b"\n")
    for old, new in ((b'"dim": 1', b'"dim": 3'), (b'"dim": 1', b'"dim": null'),
                     (b'"components": 2', b'"components": "x"'), (b"{", b"\xff{")):
        assert old in header
        (tmp_path / "bad.field").write_bytes(header.replace(old, new) + b"\n" + block)
        with pytest.raises(FieldFormatError):
            read_field(tmp_path / "bad.field")
    # a header that still describes a valid field, but not this one: one bit
    # of box_length flipped (6.28... -> 4.28...) is caught by the header digest
    at = header.index(b'"box_length": 6') + len(b'"box_length": ')
    flipped = bytearray(header)
    flipped[at] ^= 0x02
    (tmp_path / "bad.field").write_bytes(bytes(flipped) + b"\n" + block)
    with pytest.raises(FieldDigestError):
        read_field(tmp_path / "bad.field")
    # a unit_constrained header, both digests intact, over samples 1e-10 off
    # the sphere: the header claims what the samples do not meet
    write_field(tmp_path / "off.field",
                VectorField(grid=g, components=2, samples=np.tile([0.6, 0.8], (16, 1)) * (1 + 1e-10)))
    off_header, _, off_block = (tmp_path / "off.field").read_bytes().partition(b"\n")
    doc = json.loads(off_header)
    doc["unit_constrained"] = True
    doc["header_digest"] = _header_digest(doc)
    (tmp_path / "off.field").write_bytes(json.dumps(doc).encode() + b"\n" + off_block)
    with pytest.raises(FieldFormatError, match="off.field: unit-constrained field has norm defect"):
        read_field(tmp_path / "off.field")
    # files without a header digest, as other writers produce them, are still read
    doc = json.loads(header)
    del doc["header_digest"]
    (tmp_path / "old.field").write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + block)
    assert read_field(tmp_path / "old.field").grid == g


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_field_rejects_non_finite_samples(tmp_path, bad):
    g = make_grid(1, 16, TWO_PI)
    samples = np.tile([0.6, 0.8], (16, 1))
    samples[7, 0] = bad
    path = tmp_path / "bad.field"
    write_field(path, VectorField(grid=g, components=2, samples=samples))
    with pytest.raises(FieldFormatError, match="bad.field: sample block holds non-finite values"):
        read_field(path)


def test_json_artifacts_are_strict_json(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "a.json", {"value": float("nan")})
    assert not (tmp_path / "a.json").exists()


def test_emit_solve_report_files(tmp_path):
    from fracmap.energy import ElResidualReport
    from fracmap.solver import SolveReport

    report = SolveReport(energy_trace=(3.0, 2.5, 2.25),
                         step_trace=(1.0, 0.5), grad_trace=(0.9, 0.7, 0.3),
                         stop_reason="grad_tol",
                         energy_changes=4,
                         el_suite=ElResidualReport(entries=(("cos1", "e12", 1e-10),
                                                            ("sin1", "e12", 1e-9),
                                                            ("cos2", "e12", 1e-9)),
                                                   max_abs=1e-9))
    emit_solve_report(report, tmp_path, "abc")
    doc = json.loads((tmp_path / "solve_abc.json").read_text())
    assert doc["converged"] is True
    assert doc["stop_reason"] == "grad_tol"
    # the summary numbers are read off the traces and the EL suite
    assert doc["iterations"] == 2
    assert (doc["final_grad_norm"], doc["final_el_residual_max"]) == (0.3, 1e-9)
    assert doc["energy_changes"] == 4
    # the worst EL entry by label, the first one on a tie
    assert doc["worst_el_entry"] == {"test_function": "sin1", "generator": "e12",
                                     "residual": 1e-9}
    # exactly these keys, and no timing: that is not reproducible output
    assert sorted(doc) == ["converged", "energy_changes", "final_el_residual_max",
                           "final_grad_norm", "iterations", "stop_reason", "worst_el_entry"]
    lines = (tmp_path / "trace_abc.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,step,grad_norm"
    assert len(lines) == 4
    assert lines[-1] == "2,2.25,0.5,0.29999999999999999"
    # an empty suite has no worst entry
    emit_solve_report(replace(report, el_suite=ElResidualReport(entries=(), max_abs=0.0)),
                      tmp_path, "empty")
    assert json.loads((tmp_path / "solve_empty.json").read_text())["worst_el_entry"] is None


def test_emit_probe_report_files(tmp_path):
    from fracmap.lab import ProbeReport

    report = ProbeReport(name="sobolev", sample_count=2, worst_ratio=0.25,
                         frozen_c=0.5, passed=True, seed=9,
                         rows=(("0", 1.0, 4.0, 0.25), ("1", 0.5, 4.0, 0.125)))
    emit_probe_report(report, tmp_path, "xyz")
    doc = json.loads((tmp_path / "probe_sobolev_xyz.json").read_text())
    assert doc["pass"] is True and doc["probe"] == "sobolev"
    csv_lines = (tmp_path / "probe_sobolev_xyz.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "sample,lhs,rhs,ratio"
    assert len(csv_lines) == 3
    # full float precision survives the text roundtrip
    assert float(csv_lines[1].split(",")[3]) == 0.25


def test_emit_decay_table_bytes(tmp_path):
    from fracmap.lab import DecayTable

    table = DecayTable(rows=((0, 0.05, 1.5), (1, 0.1, 0.25)), theta=None, fit_residual=None)
    paths = emit_decay_table(table, tmp_path, "dec")
    assert paths == [tmp_path / "decay_dec.csv", tmp_path / "decay_dec.json"]
    # an int level prints as an int, a float with all 17 significant digits
    assert paths[0].read_bytes() == (b"level,radius,energy\n"
                                     b"0,0.050000000000000003,1.5\n"
                                     b"1,0.10000000000000001,0.25\n")
    assert paths[1].read_bytes() == b'{\n  "fit_residual": null,\n  "theta": null\n}\n'


def test_emit_el_table_bytes(tmp_path):
    from fracmap.energy import ElResidualReport

    entries = (("cos1", "e12", 1e-9), ("sin2", "e21", -0.5),
               ("bump(c=0.25L, r=0.7854)", "omega[0,1]", 0.25), ('a "b"', "c\nd", 2.0))
    report = ElResidualReport(entries=entries, max_abs=2.0)
    paths = emit_el_table(report, tmp_path, "el")
    assert paths == [tmp_path / "el_residuals_el.csv"]
    # only a field that holds a comma, a quote or a line break is quoted,
    # the bytes csv.writer's minimal quoting writes
    assert paths[0].read_bytes() == (b"test_function,generator,residual\n"
                                     b"cos1,e12,1.0000000000000001e-09\n"
                                     b"sin2,e21,-0.5\n"
                                     b'"bump(c=0.25L, r=0.7854)","omega[0,1]",0.25\n'
                                     b'"a ""b""","c\nd",2\n')
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(
        [["test_function", "generator", "residual"]] + [[a, b, "%.17g" % c] for a, b, c in entries])
    assert paths[0].read_text() == want.getvalue()


def test_manifest_contents(tmp_path):
    m = RunManifest(config_hash="deadbeef", artifact_version="0.1.0",
                    started="2026-01-01T00:00:00", finished="2026-01-01T00:00:01",
                    startup_cpu_s=0.25, cpu_s=0.75, outputs=("a.json",))
    m.write(tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["config_hash"] == "deadbeef"
    assert doc["outputs"] == ["a.json"]
    assert (doc["startup_cpu_s"], doc["cpu_s"]) == (0.25, 0.75)


@pytest.mark.parametrize("data", [b"", b"abc", bytes(range(256)) * 300])
def test_sha256_hex_matches_hashlib(data):
    # the interpreter's built-in SHA-256 must digest as OpenSSL's does, on
    # an empty, a short and a multi-block input of 76.8 kB
    import hashlib

    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_config_tag_keeps_its_value():
    # the tag names every artifact of a run, so its digest is pinned: this
    # is the value hashlib.sha256 gave when the digests came from OpenSSL
    cfg = parse_config({"grid": {"points_per_axis": 32}, "energy": {"s": 0.5, "p": 2.0}, "seed": 3})
    assert config_hash(cfg.raw) == "caab23e16ab3e531576e333279e91dbb47af740572d68d7f25e0cf1b36519eb7"
    assert cfg.tag == "caab23e16ab3"


# the header line of a 4-site winding written with hashlib.sha256 digests
WINDING4_HEADER = (
    b'{"box_length": 6.283185307179586, "components": 2, '
    b'"digest": "35051fd2bf2a3d2fdefc87fcb92782279bf1671d312b699d4de710a30665f017", "dim": 1, '
    b'"header_digest": "b096b46ffde1dd51ae7c2853dd411916277c0788713ef575374124ef2ccb7735", '
    b'"points_per_axis": 4, "schema_version": 1, "unit_constrained": true}\n'
)


def test_a_field_file_of_hashlib_digests_reads_back_and_rewrites_alike(tmp_path):
    samples = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    path = tmp_path / "winding4.field"
    path.write_bytes(WINDING4_HEADER + samples.astype("<f8").tobytes())
    f = read_field(path)
    assert f.grid == make_grid(1, 4, TWO_PI) and f.unit_constrained
    assert f.samples.tobytes() == samples.tobytes()
    write_field(tmp_path / "again.field", f)
    assert (tmp_path / "again.field").read_bytes() == path.read_bytes()


# leaves include values that the schema accepts, so that draws get past
# the type checks and reach the range and cross-key rules
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([0.5, 2.0, 3.0, 1, 2, 4, 64, "winding", "random", "file"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
SECTIONS = {"grid": ["dim", "points_per_axis", "box_length"],
            "energy": ["s", "p", "t", "critical_mode"],
            "solver": ["max_iters", "grad_tol"],
            "hierarchy": ["center", "base_radius", "levels"],
            "initial": ["kind", "path"]}
TOP_KEYS = [*SECTIONS, "schema_version", "probes", "seed", "out_dir"]
NEAR_SCHEMA = st.dictionaries(
    st.sampled_from(TOP_KEYS),
    st.one_of(JSON, *(st.dictionaries(st.sampled_from(keys), JSON, max_size=3)
                      for keys in SECTIONS.values())),
    max_size=3,
)
DOTTED = st.sampled_from([f"{s}.{k}" for s, keys in SECTIONS.items() for k in keys] + TOP_KEYS)
OVERRIDES = st.lists(
    st.tuples(DOTTED, JSON.map(json.dumps) | st.text(max_size=6)).map("=".join), max_size=3
) | st.lists(st.text(max_size=10), max_size=2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=JSON | NEAR_SCHEMA, overrides=OVERRIDES)
def test_any_config_document_raises_only_config_error(doc, overrides):
    try:
        cfg = parse_config(apply_overrides(doc, overrides))
    except ConfigError:
        return
    assert cfg.tag == config_hash(cfg.raw)[:12]


def _field_file_bytes(tmp_path) -> list:
    g = make_grid(1, 8, TWO_PI)
    theta = np.linspace(0.0, 1.0, 8)
    fields = [VectorField(grid=g, components=3, samples=np.stack([theta, theta**2, -theta], 1)),
              VectorField(grid=g, components=2, samples=np.stack([np.cos(theta), np.sin(theta)], 1),
                          unit_constrained=True)]
    out = []
    for f in fields:
        write_field(tmp_path / "f.field", f)
        out.append((tmp_path / "f.field").read_bytes())
    return out


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, 1), cut=st.integers(0, 10**6), bit=st.integers(0, 7),
       truncate=st.booleans())
def test_damaged_field_files_raise_only_field_errors(tmp_path, which, cut, bit, truncate):
    original = _field_file_bytes(tmp_path)[which]
    blob = bytearray(original)
    pos = cut % len(blob)
    if truncate:
        blob = blob[:pos]
    else:
        blob[pos] ^= 1 << bit
    path = tmp_path / "damaged.field"
    path.write_bytes(bytes(blob))
    try:
        back = read_field(path)
    except (FieldFormatError, FieldDigestError):
        return
    # a damaged file that still reads must read as the field that was written
    path.write_bytes(original)
    intact = read_field(path)
    assert type(back) is type(intact) and back.grid == intact.grid
    assert back.samples.tobytes() == intact.samples.tobytes()
    assert getattr(back, "unit_constrained", None) == getattr(intact, "unit_constrained", None)
