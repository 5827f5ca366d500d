"""tools/record_bench.py's pooling of bench/run.py result documents."""
import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "record_bench", Path(__file__).resolve().parent.parent / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def _result(seed, setup, failed):
    return {"record": {"nproc": 2, "python": "3.11.7", "seed": seed}, "workload": "w",
            "trace": 0, "correct": True, "attempted": 4, "failed": failed,
            "samples": {"setup_s": setup, "pass_cpu_s": [0.5, 0.25], "pass_s": [9.0, 9.0]}}


def test_pool_reads_quartiles_off_the_pooled_samples_of_every_seed():
    results = [_result(0, [6.0, 1.0, 4.0], 0), _result(1, [2.0, 5.0, 3.0], 1)]
    doc = record_bench.pool(results, ["setup_s", "pass_cpu_s"])
    # 1..6 sorted: quartile q at position 5 q, linear between neighbours
    assert doc["metrics"]["setup_s"] == {"median": 3.5, "q1": 2.25, "q3": 4.75, "n": 6}
    assert doc["metrics"]["pass_cpu_s"] == {"median": 0.375, "q1": 0.25, "q3": 0.5, "n": 4}
    assert "pass_s" not in doc["metrics"]
    assert doc["runs"] == [{"seed": 0, "correct": True, "attempted": 4, "failed": 0},
                           {"seed": 1, "correct": True, "attempted": 4, "failed": 1}]
    assert doc["failed_share"] == 1 / 8
    assert doc["record"] == {"nproc": 2, "python": "3.11.7"}
    results[1]["record"]["nproc"] = 4
    with pytest.raises(ValueError, match="run records differ"):
        record_bench.pool(results, ["setup_s"])
