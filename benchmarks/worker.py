"""One benchmark process: set up one workload, then time it or trace it.

Started by ``run.py`` in a fresh interpreter, so ``setup_s`` includes the
import of ``aft``.  Prints one JSON object as its last line of output.

    python3 benchmarks/worker.py --workload NAME --seed N --mode setup|run
        [--seconds S] [--trace 0|1] --work-dir DIR
"""

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from calibration import Calibration
from tracer import Tracer

MAX_ERRORS_SHOWN = 10


def percentile(values, share):
    """Nearest-rank percentile, with the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * share))
    return ordered[rank - 1], len(ordered) - rank


def _timed(items, seconds, min_sample_s, calibration):
    """Untraced passes until ``seconds`` have passed, at least one.

    Item percentiles are taken within each pass; every timing reported is
    the median over passes, scaled by calibration (``raw_wall_s`` is not).
    """
    from workloads import run_pass

    passes = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        passes.append(run_pass(items, min_sample_s=min_sample_s, calibration=calibration))
    p50 = [percentile(p.latencies_s, 0.50)[0] for p in passes]
    p99, beyond = zip(*(percentile(p.latencies_s, 0.99) for p in passes))
    return passes, {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "raw_wall_s": statistics.median(p.raw_wall_s for p in passes),
        "passes": len(passes),
        "item_p50_ms": statistics.median(p50) * 1e3,
        "item_p99_ms": statistics.median(p99) * 1e3,
        "items_per_pass": len(items),
        "items_beyond_p99": beyond[0],
    }


def _traced(items, workdir, tracer, calibration):
    """One untraced pass for reference, then one traced pass.

    Both call each item exactly once, so that the counts repeat exactly.
    ``tracer`` already holds the spans of the set-up.
    """
    from workloads import run_pass

    untraced = run_pass(items, calibration=calibration)
    with tracer:
        traced = run_pass(items, tracer, calibration=calibration)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    tracer.write_spans(workdir / "spans.tsv")
    summary = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans_recorded": tracer.span_count,
        "spans_kept": len(tracer.spans),
        "item_untraced_s": dict(zip((i.name for i in items), untraced.latencies_s)),
        "item_traced_s": dict(zip((i.name for i in items), traced.latencies_s)),
        "item_inclusive_s": {},
        "metrics": metrics,
    }
    for (item, key), seconds in sorted(tracer.item_inclusive.items()):
        summary["item_inclusive_s"].setdefault(item, {})[key] = seconds
    (workdir / "trace-summary.json").write_text(json.dumps(summary, indent=1))
    return [untraced, traced], metrics


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    return parser.parse_args(argv)


def _run(argv, calibration):
    start = time.perf_counter()
    sampled_before = calibration.interrupted_s
    # Imported here, not at the top, so that set-up time includes aft's import.
    import aft.corpus
    from workloads import WORKLOADS

    args = _parse_args(argv, sorted(WORKLOADS))
    # A traced run also traces the set-up, as item "setup", so that the
    # layers behind setup_s show.  Its spans leave out calibration samples.
    tracer = None
    if args.trace:
        tracer = Tracer(clock=lambda: time.perf_counter() - calibration.interrupted_s)
        tracer.item = "setup"
        tracer.install()
    aft.corpus.load_corpus()
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.work_dir)
    setup_end = time.perf_counter()
    if tracer:
        tracer.uninstall()
    raw_setup_s = setup_end - start - (calibration.interrupted_s - sampled_before)
    setup_s = raw_setup_s * calibration.scale(start, setup_end)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    items = workload.items()
    # The inputs live for the whole run; freezing them keeps the collector
    # from rescanning benchmark data during every timed item.
    gc.collect()
    gc.freeze()
    if tracer:
        passes, metrics = _traced(items, args.work_dir, tracer, calibration)
    else:
        passes, metrics = _timed(items, args.seconds, workload.min_sample_s, calibration)
        metrics["setup_s"] = setup_s
        metrics["raw_setup_s"] = raw_setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = [e for p in passes for e in p.errors]
    for line in errors[:MAX_ERRORS_SHOWN]:
        print(f"oracle failure: {line}", file=sys.stderr)
    print(json.dumps({
        "attempted": sum(len(p.latencies_s) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    calibration = Calibration()
    calibration.start()
    try:
        return _run(argv, calibration)
    finally:
        calibration.stop()


if __name__ == "__main__":
    sys.exit(main())
