"""The layer trace of bench/traced.py wraps fracmap functions by name.
A renamed or deleted function, a SolveReport attribute that its solve
hook reads, or a run_probe that no longer receives the probe name first
or as `name` breaks the traced benchmark runs; these tests catch that
before a benchmark run does. The command line comes
from the benchmark's own argv builder, so a flag the benchmark passes and
the CLI no longer accepts fails here too."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("workloads")


def _traced_run(workloads, tmp_path, command, config_doc, field=None) -> dict:
    """Run one `fracmap <command>` through bench/traced.py in tmp_path, with
    the output directory `out`; returns the trace document."""
    trace = tmp_path / "trace.json"
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(config_doc))
    cli_args = workloads.Invocation(command, config, "out", field=field).argv(2, tmp_path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(trace), *cli_args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(trace.read_text())


def test_traced_probe_run_labels_its_probe_span(workloads, tmp_path):
    spans = _traced_run(workloads, tmp_path, "probe", {"probes": ["t1"]})["spans"]
    assert spans["lab.probe.t1"]["calls"] == 1
    assert spans["reporting.emit_probe_report"]["calls"] == 1


def test_traced_verify_run_nests_the_region_energies(workloads, tmp_path):
    field = tmp_path / "winding.field"
    M = 64
    workloads.write_circle_field(field, 1, M, np.arange(M) * (2.0 * np.pi / M))
    doc = _traced_run(workloads, tmp_path, "verify",
                      {"grid": {"dim": 1, "points_per_axis": M},
                       "energy": {"s": 0.5, "p": 2.0, "t": 0.45}}, field=str(field))
    assert doc["spans"]["energy.duality_check"]["calls"] == 1
    assert doc["spans"]["energy.holefill_check"]["calls"] == 1
    # the hole-filling check is three region energies: the two balls and the ring
    assert doc["edges"]["energy.holefill_check>energy.energy"] == 3


def test_traced_solve_run_reads_the_solve_report(workloads, tmp_path):
    solves = _traced_run(workloads, tmp_path, "solve", {"grid": {"dim": 1, "points_per_axis": 32},
                                                        "energy": {"s": 0.5, "p": 2.0}})["solves"]
    report = json.loads(next((tmp_path / "out").glob("solve_*.json")).read_text())
    assert len(solves) == 1
    assert solves[0]["iterations"] == solves[0]["accepted"] == report["iterations"]
