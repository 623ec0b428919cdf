"""``aft analyze`` writes what it wrote when its digests were frozen.

``tests/data/analyze_digests.json`` maps each complex below to the SHA-256
of the text ``aft analyze --primes 2,3,5 --out`` writes for it:

- sd^0..sd^3 of the octahedron and of the projective plane, and sd^0..sd^2
  of the boundary of the 4-simplex, each with its vertices renamed by a
  fixed shuffle;
- every complex of the corpus, with its vertices renamed 0..n-1.

A change that alters any byte of any of these outputs fails here.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from aft import corpus
from aft.cli import main
from aft.simplicial import barycentric_subdivision, complex_to_json

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "analyze_digests.json").read_text()
)

LADDER = (
    ("octahedron", corpus.octahedron, 3),
    ("projective-plane", corpus.projective_plane, 3),
    ("boundary-4-simplex", lambda: corpus.boundary_simplex(4), 2),
)


def ladder_inputs():
    """(name, JSON input) for every rung of every ladder, relabelled."""
    inputs = []
    for base, build, top in LADDER:
        rng = random.Random(f"analyze-digests:{base}")
        cx = build()
        for level in range(top + 1):
            ids = list(range(len(cx.vertices)))
            rng.shuffle(ids)
            relabel = dict(zip(cx.vertices, ids))
            data = {
                "maximal_simplices": [
                    [relabel[v] for v in s] for s in cx.maximal_simplices()
                ]
            }
            inputs.append((f"{base}-sd{level}", data))
            if level < top:
                cx = barycentric_subdivision(cx)
    return inputs


def corpus_inputs():
    return [
        (f"corpus:{entry.name}", complex_to_json(entry.complex_))
        for entry in corpus.load_corpus()
        if entry.kind == "complex"
    ]


def analyze_digest(data, workdir):
    source, out = workdir / "complex.json", workdir / "analyze.json"
    source.write_text(json.dumps(data))
    assert main(["analyze", str(source), "--primes", "2,3,5", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_input_has_a_frozen_digest():
    names = [name for name, _ in ladder_inputs() + corpus_inputs()]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(DIGESTS)


@pytest.mark.parametrize(
    "name, data",
    [pytest.param(name, data, id=name) for name, data in ladder_inputs() + corpus_inputs()],
)
def test_analyze_digest_is_frozen(name, data, tmp_path):
    assert analyze_digest(data, tmp_path) == DIGESTS[name]
