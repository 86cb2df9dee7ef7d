"""The repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solver-cold-mix --seed 1 \\
        --seconds 10 --trace 0

Inputs come from the seed.  The run sets the program up, measures it for
``--seconds`` in a closed loop, checks every answer, and prints two
lines: a detail object (workload parameters, the resolved chase engine
and rewrite strategy, the source identity, per-op latencies, wrong
answers and failures) and, last, the result object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and
once under the per-layer ledger and reports the per-layer metrics.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("service-zipf-warm", "solver-cold-mix", "catalog-rewrite",
                  "finite-repair")

#: End-to-end metrics, reported on every workload with ``--trace 0``.
#: Latencies and ``ops_per_s`` are on the detail line only: on a shared
#: two-core runner they move with other tenants' load far more than
#: with the program, while CPU time per op does not.
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, reported on every workload with ``--trace 1``
#: (0 where the layer does no work on that workload).
PER_LAYER = {
    "service.ping_us": "us",
    "service.wire_us": "us",
    "protocol.parse_line_us": "us",
    "protocol.encode_us": "us",
    "protocol.tenant_parse_us": "us",
    "protocol.tenant_memo_hit_ratio": "ratio",
    "protocol.handle_record_us": "us",
    "pool.route_us": "us",
    "pool.queue_wait_us": "us",
    "pool.catalog_resolve_us": "us",
    "parser.query_parse_us": "us",
    "parser.query_parses_per_op": "1/op",
    "fingerprints.query_us": "us",
    "fingerprints.dependency_us": "us",
    "fingerprints.catalog_us": "us",
    "cache.containment_hit_ratio": "ratio",
    "cache.chase_hit_ratio": "ratio",
    "cache.rewrite_hit_ratio": "ratio",
    "cache.lookup_us": "us",
    "cache.evictions": "count",
    "solver.solve_us": "us",
    "termination.analysis_us": "us",
    "termination.calls": "1/op",
    "chase.build_us": "us",
    "chase.run_ms": "ms",
    "chase.conjuncts": "count",
    "chase.conjuncts_per_s": "1/s",
    "chase.runs_per_op": "1/op",
    "homomorphism.search_us": "us",
    "homomorphism.calls": "1/op",
    "containment.levels_built": "count",
    "containment.chase_size": "count",
    "views.index_build_ms": "ms",
    "views.rewrite_ms": "ms",
    "views.views_pruned": "count",
    "views.candidates": "count",
    "views.certified_ratio": "ratio",
    "views.certifications_per_op": "1/op",
    "instance_chase.repair_ms": "ms",
    "instance_chase.steps": "count",
    "instance_chase.success_ratio": "ratio",
    "finite.databases_checked_per_s": "1/s",
    "finite.acceptance_ratio": "ratio",
    "obs.tracing_overhead": "ratio",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A traced run alternates blocks of this many untraced and traced ops;
#: the untraced ones give ``obs.tracing_overhead``.
TRACE_BLOCK = 20
#: Largest accepted gap between the self-time rows and the traced op time.
BALANCE_TOLERANCE = 1e-6


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(arguments) -> int:
    """Child mode: time importing the program and one set-up, in a fresh
    process, and print the seconds as JSON."""
    from harness import perf
    started = perf()
    import repro  # noqa: F401
    import repro.service  # noqa: F401
    imported = perf() - started
    from workloads import WORKLOADS
    workload = WORKLOADS[arguments.workload](arguments.seed)
    workload.generate()
    started = perf()
    workload.setup()
    elapsed = perf() - started
    workload.close()
    print(json.dumps({"setup_s": imported + elapsed}))
    return 0


def probe_setup_seconds(arguments) -> float:
    from harness import pinned_environment
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         arguments.workload, "--seed", str(arguments.seed), "--setup-probe"],
        cwd=HERE.parent, env=pinned_environment(), capture_output=True,
        text=True, timeout=120, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()}")
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def latency_figures(loop) -> dict:
    """Median, p90 and the highest percentile with ten samples beyond it."""
    from harness import quantile
    latencies = loop.latencies()
    figures = {
        "op_p50_ms": quantile(latencies, 0.5) * 1e3,
        "op_p90_ms": quantile(latencies, 0.9) * 1e3,
    }
    if len(latencies) >= 20:
        tail = 1 - 10 / len(latencies)
        figures["op_tail"] = {"quantile": round(tail, 4),
                              "ms": quantile(latencies, tail) * 1e3}
    for kind in ("contain", "chase", "rewrite", "sample", "satisfying"):
        values = loop.latencies(kind)
        if values:
            figures[f"{kind}_p50_ms"] = quantile(values, 0.5) * 1e3
            figures[f"{kind}_count"] = len(values)
    return figures


def throughput(loop) -> float:
    """Ops completed per second of program time (failed ops included)."""
    busy = sum(sample.seconds for sample in loop.samples
               if math.isfinite(sample.seconds))
    return (loop.attempted - loop.failed) / busy if busy else 0.0


def finite_or_none(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    from harness import PINNED_ENV
    for variable in PINNED_ENV:
        os.environ.pop(variable, None)
    sys.path.insert(0, str(SRC))
    if arguments.setup_probe:
        return setup_probe(arguments)

    from harness import LoopResult, median, metric, perf, run_loop, source_identity
    from ledger import Ledger
    from repro.chase.registry import resolve_engine_name
    from repro.views.registry import resolve_rewriter_name
    from workloads import WORKLOADS, cache_layer_metrics

    workload = WORKLOADS[arguments.workload](arguments.seed)
    workload.generate()
    setup_ledger = Ledger()
    layers: dict = {}
    try:
        if workload.setup_in_parent:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                started = perf()
                workload.setup()
                setup_times.append(perf() - started)
        else:
            setup_times = [probe_setup_seconds(arguments)
                           for _ in range(SETUP_REPEATS)]

            if arguments.trace:
                # Set-up work done lazily (a catalog index) is traced too.
                workload.instrument(setup_ledger)
                setup_ledger.install()
                try:
                    workload.setup()
                finally:
                    setup_ledger.uninstall()
            else:
                workload.setup()
        # The benchmark's own inputs are long-lived; keep them out of the
        # program's garbage collections.
        gc.collect()
        gc.freeze()
        ops = workload.ops()
        if not arguments.trace:
            cpu_started = workload.cpu_seconds()
            loops = [run_loop(ops, arguments.seconds)]
            cpu_seconds = workload.cpu_seconds() - cpu_started
        else:
            untraced, traced = LoopResult(), LoopResult()
            ledger = Ledger()
            before = workload.cache_snapshot()
            deadline = perf() + arguments.seconds
            while perf() < deadline:
                run_loop(ops, deadline - perf(), max_ops=TRACE_BLOCK,
                         loop=untraced)
                workload.instrument(ledger)
                ledger.install()
                try:
                    run_loop(ops, max(deadline - perf(), 0.0),
                             workload.timed_call(ledger),
                             max_ops=TRACE_BLOCK, loop=traced)
                finally:
                    ledger.uninstall()
            after = workload.cache_snapshot()
            loops = [untraced, traced]
            layers = workload.layer_metrics(ledger, traced,
                                            arguments.seconds / 2)
            layers.update(cache_layer_metrics(before, after))
            layers["views.index_build_ms"] = layers.get(
                "views.index_build_ms", 0.0) + 1e3 * setup_ledger.totals.get(
                    "views:index_build", 0.0)
            layers["obs.tracing_overhead"] = (
                latency_figures(traced)["op_p50_ms"]
                / latency_figures(untraced)["op_p50_ms"])
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()

    wrong = sum(workload.check(loop) for loop in loops)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    main_loop = loops[0]
    figures = latency_figures(main_loop)
    end_to_end = {
        "setup_s": median(setup_times),
        "ops_per_s": throughput(main_loop),
        "op_p50_ms": figures["op_p50_ms"],
        "op_p90_ms": figures["op_p90_ms"],
        "peak_rss_mb": peak_rss_mb,
    }
    if not arguments.trace:
        end_to_end["cpu_ms_per_op"] = cpu_seconds / main_loop.attempted * 1e3
    uncertain = workload.uncertain_ratio(main_loop)
    detail = {
        "workload": workload.name,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "generator": workload.params(),
        "chase_engine": resolve_engine_name(None),
        "rewrite_strategy": resolve_rewriter_name(None),
        **source_identity(),
        "setup_times_s": setup_times,
        "samples": main_loop.attempted,
        "ops_per_s": metric(end_to_end["ops_per_s"], "1/s"),
        "latency": {key: value for key, value in figures.items()},
        "wrong_answers": metric(wrong, "count"),
        "fail_ratio": metric(failed / attempted if attempted else 0.0, "ratio"),
        "uncertain_ratio": (metric(uncertain, "ratio")
                            if uncertain is not None else None),
    }
    correct = wrong == 0 and failed == 0
    if arguments.trace:
        layers.update(ledger.self_time_rows())
        detail["self_time_us"] = ledger.self_time_rows()
        detail["balance_error"] = ledger.balance_error()
        correct = correct and detail["balance_error"] <= BALANCE_TOLERANCE
        metrics = {name: metric(float(layers.get(name, 0.0)), unit)
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {name: metric(end_to_end[name], unit)
                   for name, unit in END_TO_END.items()}
    print(json.dumps(detail, default=finite_or_none))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer_units() -> dict:
    """Every per-layer metric: the named ones plus the self-time rows."""
    from ledger import LAYERS
    units = dict(PER_LAYER)
    for layer in LAYERS:
        units[f"self.{layer}_us"] = "us"
    units["self.unattributed_us"] = "us"
    units["trace.op_us"] = "us"
    return units


if __name__ == "__main__":
    sys.exit(main())
