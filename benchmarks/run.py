"""Benchmark for aft: four seeded workloads, checked against oracles.

    python3 benchmarks/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload runs in fresh
single-threaded processes, one after another (see ``worker.py``):
``SETUP_RUNS`` processes that only set up, to time set-up, then one that
sets up and measures.  With ``--trace 0`` the last line of output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of one traced pass, and the spans are written under
``.bench_work/<workload>/``.  ``--workload all`` prints one line per
workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("homology-ladder", "linear-sweep", "subgroup-lattice", "pipeline-certify")
DEFAULT_SEED = 1
SETUP_RUNS = 2
TIME_LIMIT_S = 170.0  # per workload, under the 180 s a run may take
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    pass


def _environment():
    """Git sha (None outside a git checkout), Python version, core count."""
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = sha = None
    if top is None or Path(top).resolve() != ROOT:
        sha = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aft").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "aft_source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _worker(args, deadline):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(BENCH_DIR), os.environ.get("PYTHONPATH")) if p
    )
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time limit reached before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the time limit: {args}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker failed with code {proc.returncode}: {args}")
    return json.loads(lines[-1])


def measure(name, seed, seconds, trace):
    """Set-up samples and one measured run of one workload."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_work" / name
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--work-dir", str(workdir)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            setups.append(_worker([*common, "--mode", "setup"], deadline))
    result = _worker(
        [*common, "--mode", "run", "--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    if not trace:
        m = result["metrics"]
        setups.append({"setup_s": m["setup_s"], "raw_setup_s": m["raw_setup_s"]})
        for key in ("setup_s", "raw_setup_s"):
            m[key] = statistics.median(s[key] for s in setups)
        result["setup_samples"] = len(setups)
    return result


def _summary(name, seed, result):
    m = result["metrics"]
    share = result["failed"] / result["attempted"]
    if "wall_s" not in m:
        return (f"{name} seed={seed} traced: overhead_ratio={m['trace.overhead_ratio']:.3f} "
                f"failed_share={share:.4f} items={result['attempted']}")
    return (
        f"{name} seed={seed}: setup_s={m['setup_s']:.4f} (median of {result['setup_samples']}, "
        f"raw {m['raw_setup_s']:.4f}) "
        f"wall_s={m['wall_s']:.4f} (median of {m['passes']} passes, raw {m['raw_wall_s']:.4f}) "
        f"item_p50_ms={m['item_p50_ms']:.4f} item_p99_ms={m['item_p99_ms']:.4f} "
        f"(per-pass percentiles of {m['items_per_pass']} items, {m['items_beyond_p99']} beyond p99) "
        f"peak_rss_mb={m['peak_rss_mb']:.1f} "
        f"failed_share={share:.4f} ({result['failed']}/{result['attempted']})"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aft" / "__init__.py").is_file():
        print(f"error: no aft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _environment()
    print("environment: " + json.dumps(env))
    units = metric_units() if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, args.trace)
            results[name] = result
            print(_summary(name, args.seed, result), flush=True)
            record = dict(result, workload=name, seed=args.seed, environment=env)
            (ROOT / ".bench_work" / name / f"result-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1)
            )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def metrics_of(result, prefix=""):
        return {prefix + k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}

    if len(names) == 1:
        metrics = metrics_of(results[names[0]])
    else:
        metrics = {}
        for name, result in results.items():
            metrics.update(metrics_of(result, f"{name}."))
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
