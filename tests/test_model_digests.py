"""The seeded linear models are the models they were when frozen.

``tests/data/model_digests.json`` maps each seed s and shape to the
SHA-256 of the text made of one line ``json.dumps(model_to_json(model),
sort_keys=True)`` per model, for the 2,000 models
``random_<shape>_model(split_rng(s, i))``, i = 0..1999, in order.

``tests/test_theorem_digests.py`` pins what the theorems return on these
models, and a summand that no theorem reads does not change that.  Here
the group, the shape and every summand's kind and reduced character
exponents are pinned, so a change to how groups, characters or models
are built, or to the generator's draws, fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from aft.linear import model_to_json
from aft.suites import random_disk_model, random_sphere_model, split_rng

DIGESTS = json.loads((Path(__file__).parent / "data" / "model_digests.json").read_text())
MODELS = 2000
SEEDS = (1, 7)

MAKERS = {"disk": random_disk_model, "sphere": random_sphere_model}


def model_text(shape, seed):
    make = MAKERS[shape]
    lines = (
        json.dumps(model_to_json(make(split_rng(seed, i))), sort_keys=True) + "\n"
        for i in range(MODELS)
    )
    return "".join(lines).encode()


def test_every_shape_has_a_frozen_digest():
    assert sorted(DIGESTS) == [str(seed) for seed in SEEDS]
    for shapes in DIGESTS.values():
        assert sorted(shapes) == sorted(MAKERS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", sorted(MAKERS))
def test_model_digest_is_frozen(shape, seed):
    digest = hashlib.sha256(model_text(shape, seed)).hexdigest()
    assert digest == DIGESTS[str(seed)][shape]
