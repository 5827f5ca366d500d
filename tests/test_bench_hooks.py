"""The layer trace of bench/traced.py wraps fracmap functions by name.
A renamed or deleted function, or a run_probe that no longer receives
the probe name first or as `name`, breaks the traced benchmark runs; this
test catches that before a benchmark run does. The command line comes
from the benchmark's own argv builder, so a flag the benchmark passes and
the CLI no longer accepts fails here too."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_traced_probe_run_labels_its_probe_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "trace.json"
    config = tmp_path / "probe.json"
    config.write_text(json.dumps({"probes": ["t1"]}))
    cli_args = workloads.Invocation("probe", config, "out").argv(2, tmp_path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(trace), *cli_args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert spans["lab.probe.t1"]["calls"] == 1
    assert spans["reporting.emit_probe_report"]["calls"] == 1


def test_traced_verify_run_nests_the_region_energies(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "trace.json"
    field = tmp_path / "winding.field"
    M = 64
    workloads.write_circle_field(field, 1, M, np.arange(M) * (2.0 * np.pi / M))
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"grid": {"dim": 1, "points_per_axis": M},
                                  "energy": {"s": 0.5, "p": 2.0, "t": 0.45}}))
    cli_args = workloads.Invocation("verify", config, "out", field=str(field)).argv(2, tmp_path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(trace), *cli_args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(trace.read_text())
    assert doc["spans"]["energy.duality_check"]["calls"] == 1
    assert doc["spans"]["energy.holefill_check"]["calls"] == 1
    # the hole-filling check is three region energies: the two balls and the ring
    assert doc["edges"]["energy.holefill_check>energy.energy"] == 3
