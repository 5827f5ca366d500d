"""Run one fracmap CLI command with a span around each layer's public
functions, then write the span totals and counters as JSON.

    python bench/traced.py TRACE.json <fracmap command and arguments>

Spans are kept in memory and written once, when the command returns. A
span's self time is its duration minus the durations of the spans it
called directly. The wrappers replace every binding of a wrapped function
in every fracmap namespace, because `solver`, `cli` and `lab` bound the
names at import.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# each of these evaluates one S x S pair pass per call; duality_check makes
# a second one of its own besides the t_operator call it contains
ENERGY = ("energy", "energy_gradient", "el_residual", "seminorm", "t_operator",
          "duality_check", "holefill_check")
FRACOPS = ("frac_laplacian", "riesz_potential", "build_lp_bank", "lp_project",
           "commutator_H", "lp_sup_bound_probe", "forward_constant")
REPORTING = ("write_field", "read_field", "emit_solve_report", "emit_decay_table",
             "emit_probe_report", "emit_el_table")


class Tracer:
    def __init__(self):
        self.open = []      # stack of [name, time spent in direct children]
        self.spans = {}     # name -> {"calls", "total_s", "self_s"}
        self.edges = {}     # "parent>child" -> calls
        self.counters = {"pair_terms": 0, "kernel_bytes": 0, "bytes_written": 0}
        self.solves = []    # one summary per minimize call

    def wrap(self, name, fn, after=None):
        """`name` is a string or a function of the call's arguments; `after`
        sees (args, result) once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = self.open[-1][0] if self.open else None
            self.open.append([label, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                _, children = self.open.pop()
                if self.open:
                    self.open[-1][1] += elapsed
                rec = self.spans.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                rec["calls"] += 1
                rec["total_s"] += elapsed
                rec["self_s"] += elapsed - children
                if parent is not None:
                    edge = f"{parent}>{label}"
                    self.edges[edge] = self.edges.get(edge, 0) + 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self, path):
        doc = {"spans": self.spans, "edges": self.edges, "counters": self.counters,
               "solves": self.solves}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def _rebind(original, replacement):
    """Point every fracmap namespace that holds `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname == "fracmap" or modname.startswith("fracmap."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tr: Tracer):
    cli = importlib.import_module("fracmap.cli")  # imports every layer cli uses
    # the package attribute fracmap.energy is the re-exported function, so
    # modules are fetched by their full names
    energy = importlib.import_module("fracmap.energy")
    fracops = importlib.import_module("fracmap.fracops")
    lab = importlib.import_module("fracmap.lab")
    reporting = importlib.import_module("fracmap.reporting")
    solver = importlib.import_module("fracmap.solver")

    def count_pairs(fname):
        passes = 2 if fname == "duality_check" else 1

        def after(args, _result):
            tr.counters["pair_terms"] += passes * args[0].grid.n_sites ** 2
        return after

    for fname in ENERGY:
        fn = getattr(energy, fname)
        _rebind(fn, tr.wrap(f"energy.{fname}", fn, count_pairs(fname)))

    def count_kernel(args, _result):
        # args[1] is the grid for both constructors
        tr.counters["kernel_bytes"] += args[1].n_sites ** 2 * 8

    cache = energy.PairKernelCache
    cache.__init__ = tr.wrap("energy.kernel_build", cache.__init__, count_kernel)
    # seminorm builds its kernel through from_exponent, which bypasses __init__
    cache.from_exponent = classmethod(
        tr.wrap("energy.kernel_build", cache.from_exponent.__func__, count_kernel))

    def solved(_args, result):
        report = result[1]
        tr.solves.append({
            "iterations": report.iterations,
            "accepted": sum(1 for step in report.step_trace if step != 0.0),
            "final_grad_norm": report.final_grad_norm,
            "el_residual_max": report.final_el_residual_max,
        })

    _rebind(solver.minimize, tr.wrap("solver.minimize", solver.minimize, solved))
    _rebind(solver.el_residual_suite,
            tr.wrap("solver.el_residual_suite", solver.el_residual_suite))

    for fname in FRACOPS:
        fn = getattr(fracops, fname)
        _rebind(fn, tr.wrap(f"fracops.{fname}", fn))

    _rebind(lab.run_probe, tr.wrap(
        lambda args, kwargs: f"lab.probe.{args[0] if args else kwargs['name']}", lab.run_probe))
    _rebind(lab.decay_profile, tr.wrap("lab.decay_profile", lab.decay_profile))

    def wrote(path_arg):
        def after(args, result):
            paths = result if path_arg is None else [args[path_arg]]
            tr.counters["bytes_written"] += sum(os.path.getsize(p) for p in paths)
        return after

    for fname in REPORTING:
        fn = getattr(reporting, fname)
        after = None if fname == "read_field" else wrote(0 if fname == "write_field" else None)
        _rebind(fn, tr.wrap(f"reporting.{fname}", fn, after))
    manifest = reporting.RunManifest
    manifest.write = tr.wrap("reporting.manifest_write", manifest.write, wrote(1))
    return cli


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
