"""The disk and sphere theorems give what they gave when frozen.

``tests/data/theorem_digests.json`` maps each seed s and shape to the
SHA-256 of the text made of one line ``json.dumps(result.to_json(),
sort_keys=True)`` per model, for the theorem of that shape on the 2,000
models ``random_<shape>_model(split_rng(s, i))``, i = 0..1999, in order.
Seed 7 was frozen from the code before the sphere 2-group reduction
stopped building its subgroup c, so it checks that rewrite too.

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
SEEDS = (1, 7)

THEOREMS = {
    "disk": (random_disk_model, disk_theorem),
    "sphere": (random_sphere_model, sphere_theorem),
}


def theorem_text(shape, seed):
    make, theorem = THEOREMS[shape]
    lines = (
        json.dumps(theorem(make(split_rng(seed, i))).to_json(), sort_keys=True)
        + "\n"
        for i in range(MODELS)
    )
    return "".join(lines).encode()


def test_every_shape_has_a_frozen_digest():
    assert sorted(DIGESTS) == [str(seed) for seed in SEEDS]
    for shapes in DIGESTS.values():
        assert sorted(shapes) == sorted(THEOREMS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", sorted(THEOREMS))
def test_theorem_digest_is_frozen(shape, seed):
    digest = hashlib.sha256(theorem_text(shape, seed)).hexdigest()
    assert digest == DIGESTS[str(seed)][shape]
