"""Compare the baselines quoted in ROADMAP.md with the latest traced runs.

    python3 benchmarks/run.py --workload homology-ladder --trace 1
    python3 benchmarks/run.py --workload subgroup-lattice --trace 1
    python3 benchmarks/run.py --workload pipeline-certify --trace 1
    python3 benchmarks/baselines.py
"""

import json
from pathlib import Path

WORK = Path(__file__).resolve().parent.parent / ".bench_work"


def _summary(workload):
    return json.loads((WORK / workload / "trace-summary.json").read_text())


def main():
    hom = _summary("homology-ladder")
    item = hom["item_inclusive_s"]["boundary-4-simplex-sd2"]
    total = item["simplicial.homology"]
    print(f"homology of sd^2(boundary of the 4-simplex): {total:.2f} s traced (raw), "
          f"{hom['item_untraced_s']['boundary-4-simplex-sd2']:.2f} s untraced (scaled, whole analyze call)")
    for key in ("integermat.rank_mod_p", "integermat.smith_diagonal"):
        print(f"  {key}: {item[key]:.2f} s = {item[key] / total:.1%} of homology")

    sub = _summary("subgroup-lattice")
    print(f"all_subgroups((Z/2)^6): {sub['item_untraced_s']['all:Z2^6']:.2f} s untraced (scaled), "
          f"{sub['item_inclusive_s']['all:Z2^6']['groups.all_subgroups']:.2f} s traced (raw)")

    pipe = _summary("pipeline-certify")
    mink = pipe["item_inclusive_s"]["suite:minkowski"]["bounds.minkowski_injectivity_check"]
    print(f"minkowski_injectivity_check over the suite's 4 groups: {mink:.2f} s traced (raw); "
          f"minkowski suite through the CLI: {pipe['item_untraced_s']['suite:minkowski']:.2f} s untraced (scaled)")


if __name__ == "__main__":
    main()
