"""End-to-end benchmark of the fracmap command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fracmap is imported from `src`
without being installed. One caller drives the CLI in a closed loop: every
invocation is a fresh `python -m fracmap.cli` child, started only after the
previous one ended, so each pays interpreter start-up and fills its own
caches, as a user's command does. Every invocation gets `--workers 2`.

A pass runs the workload's invocations once. Passes repeat, at least
twice, while the next one is expected to end within `--seconds`. Each
invocation's outputs are held against their acceptance tolerance, and the
scientific artifacts of every pass must be byte-identical to the first
pass's (manifests excepted).

`--trace 0` reports the end-to-end metrics: the CPU seconds of a fresh
interpreter that imports the CLI and parses the configs (`setup_s`) and of
one pass's CLI children (`pass_cpu_s`), and the pass's largest child RSS
(`peak_rss_mb`). `--trace 1` alternates plain passes with passes whose
children run through `bench/traced.py`, and reports per-layer metrics from
the traced ones, per-command wall times from the plain ones, and the
tracing overhead as the difference of the two.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it describe
the run for a reader: each metric with its unit and sample count, every
invocation's verdict, and the run record (machine, versions, seed).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, check  # noqa: E402

WORKERS = 2          # the CLI default is os.cpu_count(); fixed so runs compare across machines
SETUP_SAMPLES = 5    # fresh interpreters timed for setup_s
MIN_PASSES = 2       # the determinism guard compares passes, so a run makes at least two
RUN_LIMIT_S = 170.0  # children still running this long after start are killed

SETUP_SNIPPET = """
import json, sys
import fracmap.cli
from fracmap.reporting import parse_config
for path in sys.argv[1:]:
    with open(path) as fh:
        parse_config(json.load(fh))
"""

COMMANDS = ("solve", "verify", "probe", "decay")


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, a broken set-up)."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    traced: bool
    children: list = field(default_factory=list)  # (Invocation, Child, Verdict)
    digests: dict = field(default_factory=dict)   # artifact path -> sha256
    traces: list = field(default_factory=list)    # per-invocation trace documents

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for _, c, _ in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for _, c, _ in self.children)


def run_child(argv, cwd: Path, log: Path, deadline: float) -> Child:
    """Run one child to completion and read its own resource usage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def measure_setup(configs, work: Path, deadline: float) -> list:
    """Fresh interpreter, `import fracmap.cli`, parse the configs: no numerics."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, *map(str, configs)]
    children = []
    for i in range(SETUP_SAMPLES):
        child = run_child(argv, work, work / f"setup{i}.log", deadline)
        if child.code != 0:
            raise BenchError(f"set-up child exited {child.code}; see {work / f'setup{i}.log'}")
        children.append(child)
    return children


def run_pass(index: int, invocations, work: Path, traced: bool, deadline: float) -> Pass:
    pass_dir = work / f"pass{index:02d}"
    pass_dir.mkdir()
    result = Pass(traced)
    for inv in invocations:
        cli_args = inv.argv(WORKERS, pass_dir)
        trace_file = pass_dir / f"trace_{inv.out}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace_file), *cli_args]
        else:
            argv = [sys.executable, "-m", "fracmap.cli", *cli_args]
        child = run_child(argv, pass_dir, pass_dir / f"{inv.out}.log", deadline)
        result.children.append((inv, child, check(inv, pass_dir, child.code)))
        if traced:
            result.traces.append(json.loads(trace_file.read_text()) if trace_file.exists() else None)
        for path in sorted((pass_dir / inv.out).rglob("*")):
            if path.is_file() and not path.name.startswith("manifest_"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                result.digests[str(path.relative_to(pass_dir))] = digest
    return result


def tail_percentile(n: int):
    """Highest percentile above the median with at least ten samples beyond it."""
    return int(100 * (1 - 10 / n)) if n > 20 else None


def per_command(p: Pass) -> dict:
    out = {f"cli.{c}_s": 0.0 for c in COMMANDS}
    for inv, child, _ in p.children:
        out[f"cli.{inv.command}_s"] += child.wall_s
    return out


def layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    spans, edges, counters, solves = {}, {}, {}, []
    for doc in p.traces:
        if doc is None:
            continue
        for name, rec in doc["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for name, n in doc["edges"].items():
            edges[name] = edges.get(name, 0) + n
        for name, n in doc["counters"].items():
            counters[name] = counters.get(name, 0) + n
        solves += doc["solves"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    energy_evals = edges.get("solver.minimize>energy.energy", 0)
    line_search_evals = energy_evals - len(solves)  # minimize evaluates E(u0) once first
    m = {
        "solver.iterations": sum(s["iterations"] for s in solves),
        "solver.energy_evals": energy_evals,
        "solver.gradient_evals": edges.get("solver.minimize>energy.energy_gradient", 0),
        "solver.accept_ratio": (sum(s["accepted"] for s in solves) / line_search_evals
                                if line_search_evals > 0 else 0.0),
        "solver.minimize.self_s": span("solver.minimize", "self_s"),
        "solver.final_grad_norm": max((s["final_grad_norm"] for s in solves), default=0.0),
        "solver.el_residual_max": max((s["el_residual_max"] for s in solves), default=0.0),
        "solver.el_suite.calls": span("solver.el_residual_suite", "calls"),
        "solver.el_suite_s": span("solver.el_residual_suite", "total_s"),
    }
    for fname in ("energy", "energy_gradient", "el_residual", "seminorm"):
        m[f"energy.{fname}.calls"] = span(f"energy.{fname}", "calls")
        m[f"energy.{fname}.self_s"] = span(f"energy.{fname}", "self_s")
    m["energy.kernel_builds"] = span("energy.kernel_build", "calls")
    m["energy.kernel_build_s"] = span("energy.kernel_build", "total_s")
    m["energy.kernel_bytes"] = counters.get("kernel_bytes", 0)
    m["energy.pair_terms"] = counters.get("pair_terms", 0)
    for fname in ("t_operator", "duality_check", "holefill_check"):
        m[f"energy.{fname}.self_s"] = span(f"energy.{fname}", "self_s")
    for probe in ("sobolev", "commutator", "kernel_case", "lp_sup", "t1", "holefill"):
        m[f"lab.probe.{probe}_s"] = span(f"lab.probe.{probe}", "total_s")
    m["lab.decay_profile_s"] = span("lab.decay_profile", "total_s")
    fracops = [rec for name, rec in spans.items() if name.startswith("fracops.")]
    m["fracops.calls"] = sum(r["calls"] for r in fracops)
    m["fracops.self_s"] = sum(r["self_s"] for r in fracops)
    m["reporting.io_s"] = sum(r["self_s"] for n, r in spans.items() if n.startswith("reporting."))
    m["reporting.bytes_written"] = counters.get("bytes_written", 0)
    return m


# metrics derived from array sizes rather than timed or counted at run time
COMPUTED = {"energy.kernel_bytes", "energy.pair_terms"}


def run_record(seed: int) -> dict:
    import mpmath
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workers": WORKERS,
        "seed": seed,
        "machine": platform.machine(),
    }


def measure(invocations, work: Path, seconds: float, trace: bool, deadline: float) -> list:
    """Run passes until the next one is not expected to end within `seconds`,
    and at least MIN_PASSES of them. With tracing, each round is one plain and one traced pass, and the one
    that goes first alternates from round to round."""
    passes = []
    start = time.monotonic()
    while True:
        rounds = len(passes) // (2 if trace else 1)
        order = ((False, True) if rounds % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            passes.append(run_pass(len(passes), invocations, work, traced, deadline))
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / (rounds + 1) > seconds:
            return passes


def judge(passes):
    """(correct, failed, notes): every verdict, the determinism guard and
    the cross-check of traced iterations against the solve reports."""
    failed = sum(1 for p in passes for _, c, v in p.children if c.code != 0 or not v.passed)
    correct = all(v.consistent for p in passes for _, _, v in p.children)
    notes = []
    for i, p in enumerate(passes[1:], start=1):
        if p.digests != passes[0].digests:
            differing = sorted(k for k in p.digests.keys() | passes[0].digests.keys()
                               if p.digests.get(k) != passes[0].digests.get(k))
            notes.append(f"determinism: pass {i} differs from pass 0 in {differing}")
            failed += 1
            correct = False
    for p in passes:
        for (inv, _, verdict), doc in zip(p.children, p.traces):
            if doc is None:
                notes.append(f"trace: {inv.out} wrote no trace")
                correct = False
            elif inv.command == "solve" and [s["iterations"] for s in doc["solves"]] != [verdict.iterations]:
                notes.append(f"cross-check: traced iterations {[s['iterations'] for s in doc['solves']]}"
                             f" vs {verdict.iterations} in the solve report of {inv.out}")
                correct = False
    return correct, failed, notes


def collect(passes, setup, trace: bool) -> dict:
    """Metric name -> samples, one per pass (per set-up child for setup_s).

    The gated times are CPU seconds (user + sys over all threads) of the
    children. This kernel leaves time stolen by the hypervisor out of a
    task's CPU time, and on a shared host that steal comes in episodes of
    minutes that stretch wall times by up to half. Wall times are kept as
    `setup_wall_s`, `pass_s` and the per-command `cli.*_s`."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    samples = {}

    def add(values: dict):
        for name, value in values.items():
            samples.setdefault(name, []).append(value)

    if not trace:
        samples["setup_s"] = [c.cpu_s for c in setup]
        samples["setup_wall_s"] = [c.wall_s for c in setup]
        samples["pass_cpu_s"] = [p.cpu_s for p in plain]
        samples["pass_s"] = [p.wall_s for p in plain]
        samples["peak_rss_mb"] = [max(c.rss_mb for _, c, _ in p.children) for p in plain]
    for p in plain:
        add(per_command(p))
    if trace:
        for p in plain:
            add({"cli.cpu_s": p.cpu_s,
                 "cli.error_rate": sum(1 for _, c, v in p.children if c.code != 0 or not v.passed)
                 / len(p.children)})
        for p in traced:
            add(layer_metrics(p))
        samples["trace.overhead_s"] = [statistics.median(p.wall_s for p in traced)
                                       - statistics.median(p.wall_s for p in plain)]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "fracmap" / "cli.py").is_file():
        print(f"bench: no fracmap sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        invocations = WORKLOADS[args.workload](inputs, args.seed)
        setup = measure_setup(sorted({inv.config for inv in invocations}), work, deadline)
    except (BenchError, ImportError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    passes = measure(invocations, work, args.seconds, bool(args.trace), deadline)
    correct, failed, notes = judge(passes)
    attempted = sum(len(p.children) for p in passes)
    samples = collect(passes, setup, bool(args.trace))
    metrics = {name: statistics.median(values) for name, values in samples.items()}

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    n_traced = sum(p.traced for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes) - n_traced} plain + {n_traced} traced  workers {WORKERS}")
    for i, p in enumerate(passes):
        for inv, child, verdict in p.children:
            print(f"  pass {i} {'traced' if p.traced else 'plain '} {inv.command:6s} {inv.out:10s} "
                  f"{child.wall_s:8.3f} s  rss {child.rss_mb:6.1f} MB  "
                  f"{'pass' if verdict.passed else 'FAIL'}  {verdict.detail}")
    for name in sorted(metrics):
        n = len(samples[name])
        q = tail_percentile(n)
        tail = f"  p{q} {statistics.quantiles(samples[name], n=100)[q - 1]:.6g}" if q else ""
        label = "  (computed from array sizes)" if name in COMPUTED else ""
        print(f"  {name:28s} {metrics[name]:14.6g} {units.get(name, 's'):6s} "
              f"median of n={n}{tail}{label}")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.3f} (invocations with exit != 0 "
          f"or a failed check, plus passes differing from pass 0)")
    for note in notes:
        print(f"  {note}")

    record = {"record": run_record(args.seed), "workload": args.workload, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed, "samples": samples}
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
