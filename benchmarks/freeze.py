"""Write reference.json: the outputs of the current aft at the default seed.

The frozen values are second oracles next to the independent ones in
``oracles.py``.  Regenerate them only from a commit whose outputs are
known to be right, since every later run is compared against them.

    PYTHONPATH=src:benchmarks python3 benchmarks/freeze.py
"""

import json
import tempfile
from pathlib import Path

from aft import cli, groups

from oracles import digest
from workloads import (
    CORPUS_SUITES,
    DEFAULT_SEED,
    REFERENCE_PATH,
    SUBGROUP_LADDER,
    LinearSweep,
    suite_digest,
)


def main():
    sweep = LinearSweep(reference={"seed": None})
    sweep.setup(DEFAULT_SEED, None)
    digests = []
    for name, model, run, oracle in sweep.plan():
        summary, problem = oracle(model, run(model))
        if problem is not None:
            raise SystemExit(f"{name}: {problem}")
        digests.append(digest(summary, 8))

    suite_digests = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for suite in CORPUS_SUITES:
            out = Path(tmp) / f"{suite}.json"
            argv = ["verify", "--suite", suite, "--seed", str(DEFAULT_SEED), "--out", str(out)]
            if cli.main(argv) != 0:
                raise SystemExit(f"suite {suite} failed")
            suite_digests[suite] = suite_digest(json.loads(out.read_text()))

    reference = {
        "linear-sweep": {"seed": DEFAULT_SEED, "item_digests": "".join(digests)},
        "subgroup-lattice": {
            name: len(groups.all_subgroups(groups.FiniteAbelianGroup(primary)))
            for name, primary in SUBGROUP_LADDER
        },
        "pipeline-certify": suite_digests,
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
