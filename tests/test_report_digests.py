"""The reports are what they were when their digests were frozen.

``tests/data/report_digests_seed1.json`` maps each suite to the SHA-256 of
the text ``aft verify --suite <suite> --seed 1`` writes at small scale,
without ``wall_time_seconds``.  ``tests/data/report_digests_more.json``
holds, in the same way:

- every suite at seeds 0 and 7, small scale (``<suite>-seed<n>``);
- ``smith`` and ``pipeline`` at full scale, seeds 0, 1 and 7
  (``<suite>-seed<n>-full``);
- the text ``aft action check --out`` writes for each corpus action, with
  its vertices renamed 0..n-1 (``action-check:<name>``).

A change that alters any byte of any of these outputs fails here.
"""

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from aft.cli import main
from aft.corpus import corpus_actions
from aft.suites import SUITE_NAMES, run_suite

DATA = Path(__file__).parent / "data"
DIGESTS = {
    **json.loads((DATA / "report_digests_seed1.json").read_text()),
    **json.loads((DATA / "report_digests_more.json").read_text()),
}


def suite_text(suite, seed, scale, workdir):
    payload = run_suite(suite, seed=seed, scale=scale).to_json()
    del payload["wall_time_seconds"]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def action_check_text(entry, workdir):
    source, out = workdir / "action.json", workdir / "check.json"
    source.write_text(json.dumps(entry.action.to_json()))
    assert main(["action", "check", str(source), "--out", str(out)]) == 0
    return out.read_bytes()


def outputs():
    """(name, function of a work directory giving the output's bytes)."""
    runs = [(suite, partial(suite_text, suite, 1, "small")) for suite in SUITE_NAMES]
    runs += [
        (f"{suite}-seed{seed}", partial(suite_text, suite, seed, "small"))
        for seed in (0, 7)
        for suite in SUITE_NAMES
    ]
    runs += [
        (f"{suite}-seed{seed}-full", partial(suite_text, suite, seed, "full"))
        for suite in ("smith", "pipeline")
        for seed in (0, 1, 7)
    ]
    runs += [
        (f"action-check:{entry.name}", partial(action_check_text, entry))
        for entry in corpus_actions()
    ]
    return runs


def test_every_suite_has_a_frozen_digest():
    names = [name for name, _ in outputs()]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(DIGESTS)


@pytest.mark.parametrize(
    "name, render", [pytest.param(name, render, id=name) for name, render in outputs()]
)
def test_report_digest_is_frozen(name, render, tmp_path):
    assert hashlib.sha256(render(tmp_path)).hexdigest() == DIGESTS[name]
