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
