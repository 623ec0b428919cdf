"""The tracer nests spans correctly and leaves no wrapper behind."""

import sys

import pytest

from aft import actions, bounds, corpus, groups, integermat, simplicial

from tracer import Tracer


def _aft_namespaces():
    modules = [m for n, m in sys.modules.items() if n == "aft" or n.startswith("aft.")]
    return modules + [groups.Subgroup, groups.Character]


def test_homology_span_has_elimination_children_and_self_times_add_up():
    cx = simplicial.barycentric_subdivision(corpus.octahedron())
    tracer = Tracer()
    with tracer:
        simplicial.homology(cx, primes=(2, 3))
    spans = {sid: (parent, key, start, end) for sid, parent, _, key, start, end in tracer.spans}
    (root,) = [sid for sid, (_, key, _, _) in spans.items() if key == "simplicial.homology"]
    _, _, root_start, root_end = spans[root]
    children = [s for s in spans.values() if s[0] == root]
    assert {"integermat.rank_mod_p", "integermat.smith_diagonal"} <= {c[1] for c in children}
    for _, _, start, end in children:
        assert root_start <= start <= end <= root_end
    # Self time is duration minus child time, so over the whole tree it
    # sums to the root span's duration.
    assert sum(tracer.self_s.values()) == pytest.approx(root_end - root_start, rel=1e-9)
    assert tracer.calls["integermat.rank_mod_p"] == 2 * cx.dimension
    assert tracer.counts["simplicial.homology.simplices"] == cx.num_simplices()


def test_every_alias_is_patched_and_restored():
    rank_mod_p, f = integermat.rank_mod_p, bounds.f
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched_names()
        wrappers = [vars(owner)[attr] for owner, attr, _ in patched]
        assert simplicial.rank_mod_p is integermat.rank_mod_p is not rank_mod_p
        assert actions.subgroups_of is groups.subgroups_of
    finally:
        tracer.uninstall()

    def aliases(original):
        return {(owner.__name__, attr) for owner, attr, o in patched if o is original}

    assert aliases(rank_mod_p) == {("aft.integermat", "rank_mod_p"), ("aft.simplicial", "rank_mod_p")}
    assert {("aft", "f"), ("aft.bounds", "f"), ("aft.linear", "f_bound")} <= aliases(f)
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    live = [value for ns in _aft_namespaces() for value in vars(ns).values()]
    assert not any(value is wrapper for wrapper in wrappers for value in live)
