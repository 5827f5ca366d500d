"""Record the benchmark's end-to-end metrics as BENCH_<workload>.json.

    python3 tools/record_bench.py

It takes no options. For each workload that BENCHMARK.json declares and
each seed in SEEDS it runs, from the root of the checkout it sits in,

    python3 bench/run.py --workload W --seed k --seconds <run_seconds>

with run_seconds read from BENCHMARK.json, and reads that run's
.bench_work/W-seedk-trace0/result.json. It then writes BENCH_W.json at
the root, holding:

- for each end-to-end metric, the median, the quartiles and the sample
  count n over the samples of all seeds pooled;
- each seed's correct flag and its attempted and failed invocations, and
  the failed share over all seeds;
- the run record (machine, versions, worker count), which must be the
  same for every seed apart from the seed itself;
- the commit, `git rev-parse HEAD`, and whether tracked files differed
  from it (`dirty`).

Quartiles are linear interpolation between order statistics, the
`inclusive` method of statistics.quantiles (numpy's default percentile
method): with the n samples sorted, quantile q sits at position q (n - 1).
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
QUARTILE_METHOD = "inclusive"


def pool(results: list, metrics: list) -> dict:
    """The seed-pooled summary of bench/run.py result documents, one per
    seed: the metrics, the runs, the failed share and the common record."""
    record = {k: v for k, v in results[0]["record"].items() if k != "seed"}
    for result in results[1:]:
        other = {k: v for k, v in result["record"].items() if k != "seed"}
        if other != record:
            raise ValueError(f"run records differ between seeds: {record} and {other}")
    summary = {}
    for name in metrics:
        values = [v for result in results for v in result["samples"][name]]
        q1, median, q3 = statistics.quantiles(values, n=4, method=QUARTILE_METHOD)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    attempted = sum(r["attempted"] for r in results)
    return {
        "metrics": summary,
        "runs": [{"seed": r["record"]["seed"], "correct": r["correct"],
                  "attempted": r["attempted"], "failed": r["failed"]} for r in results],
        "failed_share": sum(r["failed"] for r in results) / attempted,
        "record": record,
    }


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    commit = {"head": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    for workload in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in SEEDS:
            argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds)]
            run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if run.returncode != 0:
                sys.stderr.write(run.stdout[-2000:] + run.stderr[-2000:])
                raise SystemExit(f"{' '.join(argv)} exited {run.returncode}")
            work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace0"
            results.append(json.loads((work / "result.json").read_text()))
            print(run.stdout.splitlines()[-1])
        doc = {"workload": workload, "command": f"python3 bench/run.py --workload {workload} "
               f"--seed <seed> --seconds {seconds}", "seeds": list(SEEDS),
               "quartile_method": f"statistics.quantiles(method={QUARTILE_METHOD!r})",
               **pool(results, metrics), "commit": commit}
        for name, summary in doc["metrics"].items():
            summary["unit"] = units[name]
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
