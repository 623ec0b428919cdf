"""The suite reports at seed 1 are what they were when their digests were frozen.

``tests/data/report_digests_seed1.json`` maps each suite to the SHA-256 of
the text ``aft verify --suite <suite> --seed 1`` writes at small scale,
without ``wall_time_seconds``.  A change that alters any byte of any
report fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from aft.suites import SUITE_NAMES, run_suite

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "report_digests_seed1.json").read_text()
)


def test_every_suite_has_a_frozen_digest():
    assert sorted(DIGESTS) == sorted(SUITE_NAMES)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_report_digest_is_frozen(suite):
    payload = run_suite(suite, seed=1).to_json(include_timing=False)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[suite]
