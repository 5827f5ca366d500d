"""The layer trace of bench/traced.py wraps fracmap functions by name.
A renamed or deleted function, or a run_probe that no longer receives
the probe name first or as `name`, breaks the traced benchmark runs; this
test catches that before a benchmark run does."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_probe_run_labels_its_probe_span(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(trace), "probe",
         "--set", 'probes=["t1"]', "--out", str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert spans["lab.probe.t1"]["calls"] == 1
    assert spans["reporting.emit_probe_report"]["calls"] == 1
