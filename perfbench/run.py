"""The repository benchmark: host time of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload batch-2k --seed 1 --seconds 50 --trace 0

Runs one workload (``batch-2k``, ``service-4k`` or ``crash-2k``; see
NOTES.md, which also says why ``crash-2k`` is not listed in
BENCHMARK.json) in this process, cells one after another on the
reference core. Every operation is checked. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` repeats whole passes for about ``--seconds`` (at least
one) and reports the end-to-end metrics over all of them (time per
pass, work per second), plus ``setup_s`` from fresh-interpreter set-up
probes. ``--trace 1`` runs one untraced pass, then one pass with every
layer wrapped by ``tracer.Tracer``, and reports the per-layer metrics
from the traced pass. Simulated results must be identical in every pass, traced or not:
an operation whose digest differs between passes counts as failed.

Lines before the last one list each operation's digest and every
failure. Exits non-zero, printing no result, when the simulator sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh-interpreter set-up samples per run; ``setup_s`` is their median
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
#: raw spans kept for the Chrome trace written by ``--trace 1``
KEEP_SPANS = 50_000
TRACE_DIR = os.path.join(ROOT, ".perfbench")

#: layers whose self time the traced run reports (see tracer.layer_of);
#: ``bench`` is the benchmark's own code between calls into a layer
LAYERS = (
    "engine", "core", "core.bloom", "persist", "mem.hierarchy", "mem.wpq",
    "mem.image", "sim", "workloads", "runtime", "common", "harness",
    "recovery", "bench",
)


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_samples(workload: str, seed: int) -> list:
    """Import + build + install times, each from a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["import_s"] + probe["build_s"])
    return samples


def upper_quartile(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def judge(passes) -> dict:
    """label -> failure reason (None when every pass agreed and passed)."""
    verdicts = {}
    first = {o.label: o.digest for o in passes[0].outcomes}
    for i, res in enumerate(passes):
        for o in res.outcomes:
            if o.failure is not None:
                verdicts.setdefault(o.label, o.failure)
            elif o.digest != first.get(o.label):
                verdicts.setdefault(o.label, f"digest of pass {i} differs from pass 0")
            else:
                verdicts.setdefault(o.label, None)
    return verdicts


def report_outcomes(name: str, passes, verdicts: dict) -> None:
    for o in passes[0].outcomes:
        print(f"digest {name} {o.label} {o.digest or '-'}")
    for label, failure in verdicts.items():
        if failure is not None:
            print(f"FAIL {name} {label}: {failure}")


def end_to_end(workload, seconds: float) -> tuple:
    setup = setup_samples(workload.name, workload.seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        # Stop before a pass that would likely overrun ``seconds``, so a
        # run lasts about ``seconds`` whatever the pass length.
        if elapsed + elapsed / len(passes) > seconds:
            break
    walls = [p.wall_s for p in passes]
    # The upper quartile of each operation's time over the passes, summed.
    # A shared host's speed drifts by tens of percent, with faster
    # stretches of seconds to minutes; a median or mean moves with the
    # share of a run they cover, the upper quartile stays with the slower,
    # usual speed. Every pass does the same work, so the rates divide one
    # pass's work.
    wall = sum(upper_quartile(op) for op in zip(*(p.op_wall_s for p in passes)))
    metrics = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "sim_ops_per_s": metric(passes[0].sim_ops / wall, "1/s"),
        "requests_per_s": metric(passes[0].requests / wall, "1/s"),
        "verified_ops_per_s": metric(len(passes[0].outcomes) / wall, "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    print(
        f"{workload.name}: {len(passes)} passes, wall_s "
        f"{' '.join(f'{w:.3f}' for w in walls)}, setup_s "
        f"{' '.join(f'{s:.3f}' for s in setup)}",
        file=sys.stderr,
    )
    return passes, metrics, True


def per_layer(workload) -> tuple:
    from tracer import Tracer

    plain = workload.run_pass()
    tracer = Tracer(keep_spans=KEEP_SPANS)
    tracer.install()
    try:
        traced = workload.run_pass(tracer)
    finally:
        tracer.uninstall()
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write_chrome_trace(
        os.path.join(TRACE_DIR, f"{workload.name}-seed{workload.seed}.json")
    )

    calls, incl = tracer.calls, tracer.incl_s
    ops = traced.sim_ops
    counters = traced.counters

    def count(predicate) -> int:
        return sum(n for name, n in calls.items() if predicate(name))

    events = count(lambda name: name.endswith(":event"))
    persist_calls = count(lambda name: name.startswith("persist:") and not name.endswith(":event"))
    accesses = counters.get("cache_accesses", 0)
    regions = counters.get("regions", 0)
    wall = traced.total_s
    unattributed = wall - tracer.top_level_s
    closure_error = abs(tracer.self_total_s() + unattributed - wall)

    m = {f"{layer}.self_s": metric(tracer.self_s.get(layer, 0.0), "s") for layer in LAYERS}
    m.update({
        "engine.events": metric(events, "count"),
        "engine.events_per_op": metric(events / ops, "ratio"),
        "core.bloom.clears": metric(calls.get("core.bloom:BloomFilter.clear", 0), "count"),
        "core.bloom.clear_s": metric(incl.get("core.bloom:BloomFilter.clear", 0.0), "s"),
        "persist.calls_per_op": metric(persist_calls / ops, "ratio"),
        "mem.hierarchy.accesses": metric(accesses, "count"),
        "mem.hierarchy.llc_miss_ratio": metric(
            counters.get("llc_misses", 0) / accesses if accesses else 0.0, "ratio"
        ),
        "mem.hierarchy.mshr_merges": metric(counters.get("mshr_merges", 0), "count"),
        "mem.wpq.peak": metric(counters.get("wpq_peak", 0), "count"),
        "mem.pm_writes_per_region": metric(
            counters.get("pm_writes", 0) / regions if regions else 0.0, "ratio"
        ),
        "sim.ops": metric(ops, "count"),
        "workloads.install_s": metric(
            sum(t for name, t in incl.items()
                if name.startswith("workloads:") and name.endswith(".install")),
            "s",
        ),
        "recovery.crash_s": metric(incl.get("bench:crash", 0.0), "s"),
        "recovery.recover_s": metric(incl.get("bench:recover", 0.0), "s"),
        "recovery.verify_s": metric(incl.get("bench:verify", 0.0), "s"),
        "recovery.regions_undone": metric(counters.get("regions_undone", 0), "count"),
        "recovery.words_checked": metric(counters.get("words_checked", 0), "count"),
        "service.p99_cycles": metric(max(traced.p99_cycles, default=0), "cycles"),
        "service.achieved_over_offered": metric(
            min(traced.achieved_over_offered, default=0.0), "ratio"
        ),
        "trace.wall_s": metric(wall, "s"),
        "trace.unattributed_s": metric(unattributed, "s"),
        "trace.closure_error": metric(closure_error / wall, "ratio"),
        "trace.overhead_s": metric(wall - plain.total_s, "s"),
        "trace.spans": metric(tracer.span_count, "count"),
    })
    for key in ("cl_entry", "cl_slot", "dep_entry", "dep_slot", "lh_wpq"):
        m[f"core.stall.{key}"] = metric(counters.get(f"stall.{key}", 0), "count")
    print(
        f"{workload.name}: untraced {plain.total_s:.3f}s, traced {wall:.3f}s, "
        f"{tracer.span_count} spans, closure error {closure_error:.3g}s",
        file=sys.stderr,
    )
    # The closure is exact up to float rounding; anything larger means a
    # span was opened or closed without being accounted.
    closed = closure_error <= 1e-9 * wall
    return [plain, traced], m, closed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        _die(f"simulator sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from cells import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        passes, metrics, checks_ok = per_layer(workload)
    else:
        passes, metrics, checks_ok = end_to_end(workload, args.seconds)
    verdicts = judge(passes)
    report_outcomes(workload.name, passes, verdicts)
    failed = sum(1 for failure in verdicts.values() if failure is not None)
    print(json.dumps({
        "correct": checks_ok and failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
