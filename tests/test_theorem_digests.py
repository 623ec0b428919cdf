"""The disk and sphere theorems give what they gave when frozen.

``tests/data/theorem_digests.json`` maps each shape to the SHA-256 of the
text made of one line ``json.dumps(result.to_json(), sort_keys=True)`` per
model, for the theorem of that shape on the 2,000 models
``random_<shape>_model(split_rng(1, i))``, i = 0..1999, in order.

The lines carry the index, the bound, the branch, the chi of the fixed
set, gamma and the generators of A'; a change to any of them fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from aft.linear import disk_theorem, sphere_theorem
from aft.suites import random_disk_model, random_sphere_model, split_rng

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "theorem_digests.json").read_text()
)
MODELS = 2000

THEOREMS = {
    "disk": (random_disk_model, disk_theorem),
    "sphere": (random_sphere_model, sphere_theorem),
}


def theorem_text(shape):
    make, theorem = THEOREMS[shape]
    lines = (
        json.dumps(theorem(make(split_rng(1, i))).to_json(), sort_keys=True) + "\n"
        for i in range(MODELS)
    )
    return "".join(lines).encode()


def test_every_shape_has_a_frozen_digest():
    assert sorted(DIGESTS) == sorted(THEOREMS)


@pytest.mark.parametrize("shape", sorted(THEOREMS))
def test_theorem_digest_is_frozen(shape):
    assert hashlib.sha256(theorem_text(shape)).hexdigest() == DIGESTS[shape]
