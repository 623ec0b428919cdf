"""Linear disk and sphere models: stability, descent, index theorems."""

import math
import sys

import pytest

from aft import groups, linear
from aft.bounds import chain_bound
from aft.corpus import boundary_simplex, corpus_entry, load_corpus, simplex
from aft.groups import (
    Character,
    FiniteAbelianGroup,
    Subgroup,
    kernel,
    p_part,
    subgroups_of,
)
from aft.integermat import factorize, kernel_basis
from aft.linear import (
    DISK,
    SPHERE,
    LinearActionModel,
    RealRepresentation,
    Summand,
    assemble_cross_prime,
    chi_fixed,
    descent_to_stable,
    disk_theorem,
    fixed_point_count,
    fixed_subspace_dim,
    generic_element,
    is_lambda_stable,
    model_from_json,
    model_to_json,
    normal_characters,
    orientation_character,
    sphere_theorem,
    sphere_two_group_reduce,
)
from aft.linear import _averaging_search, _restrict
from aft.simplicial import homology
from aft.suites import random_disk_model, random_sphere_model, split_rng
from character_reference import FractionCharacter
from reduction_reference import sphere_two_group_reduce as reference_reduce
from subgroup_reference import closure_elements


def z2():
    return FiniteAbelianGroup([(2, [1])])


def disk(group, summands):
    return LinearActionModel(RealRepresentation(group, tuple(summands)), DISK)


def sphere(group, summands):
    return LinearActionModel(RealRepresentation(group, tuple(summands)), SPHERE)


def test_summand_validation():
    g = FiniteAbelianGroup([(4 - 1, [1])])  # Z/3
    with pytest.raises(ValueError):
        Summand("sign", Character(g, (1,)))  # order 3, not a sign
    with pytest.raises(ValueError):
        Summand("rotation", Character(g, (0,)))  # trivial
    with pytest.raises(ValueError):
        Summand("spin")
    assert Summand("rotation", Character(g, (1,))).dim == 2


def test_fixed_subspace_dims():
    g = FiniteAbelianGroup([(2, [2])])  # Z/4
    model = disk(
        g,
        [
            Summand("trivial"),
            Summand("sign", Character(g, (2,))),
            Summand("rotation", Character(g, (1,))),
        ],
    )
    whole = Subgroup.whole(g)
    half = Subgroup.cyclic(g.element((2,)))
    assert model.rep.dim == 4
    assert fixed_subspace_dim(model, whole) == 1
    assert fixed_subspace_dim(model, half) == 2  # sign kills g^2
    assert fixed_subspace_dim(model, Subgroup.trivial_subgroup(g)) == 4
    assert chi_fixed(model, whole) == 1


def test_chi_and_point_counts_on_spheres():
    g = z2()
    antipodal = sphere(g, [Summand("sign", Character(g, (1,)))] * 3)
    whole = Subgroup.whole(g)
    assert antipodal.dim_space == 2
    assert chi_fixed(antipodal, whole) == 0
    assert fixed_point_count(antipodal, whole) == 0
    reflect = sphere(
        g,
        [
            Summand("trivial"),
            Summand("trivial"),
            Summand("sign", Character(g, (1,))),
        ],
    )
    assert fixed_subspace_dim(reflect, whole) == 2  # fixed circle
    assert chi_fixed(reflect, whole) == 0
    assert fixed_point_count(reflect, whole) is None  # infinitely many
    line = sphere(
        g,
        [
            Summand("trivial"),
            Summand("sign", Character(g, (1,))),
            Summand("sign", Character(g, (1,))),
        ],
    )
    assert fixed_point_count(line, whole) == 2


@pytest.mark.parametrize("n", range(5))
def test_model_betti_numbers_match_simplicial_homology(n):
    # D^n is the n-simplex and S^n the boundary of the (n+1)-simplex.
    g = z2()
    for model, space in [
        (disk(g, [Summand("trivial")] * n), simplex(n)),
        (sphere(g, [Summand("trivial")] * (n + 1)), boundary_simplex(n + 1)),
    ]:
        profile = homology(space)
        assert model.dim_space == space.dimension == n
        assert list(model.betti()) == profile.ranks()
        assert model.total_betti() == sum(profile.ranks())
        assert model.euler_characteristic() == profile.euler


def test_normal_characters_identify_conjugates():
    g = FiniteAbelianGroup([(5, [1])])
    model = disk(
        g,
        [
            Summand("rotation", Character(g, (1,))),
            Summand("rotation", Character(g, (4,))),  # conjugate pair
            Summand("rotation", Character(g, (2,))),
        ],
    )
    chars = normal_characters(model, Subgroup.whole(g))
    assert len(chars) == 2
    assert all(index == 5 for _, index in chars)


def test_orientation_character():
    g = FiniteAbelianGroup([(2, [1, 1])])
    model = sphere(
        g,
        [
            Summand("sign", Character(g, (1, 0))),
            Summand("sign", Character(g, (0, 1))),
            Summand("trivial"),
        ],
    )
    sigma = orientation_character(model)
    assert sigma.exponents == (1, 1)
    assert kernel(sigma).order == 2


def test_stability_and_descent():
    g = FiniteAbelianGroup([(2, [2])])
    model = disk(
        g,
        [
            Summand("sign", Character(g, (2,))),
            Summand("rotation", Character(g, (1,))),
        ],
    )
    # lambda = 2: the sign character has kernel index 2 <= 2, unstable.
    assert not is_lambda_stable(model, 2)
    stable, steps = descent_to_stable(model, 2, start=Subgroup.whole(g))
    # Step 1 cuts to <g^2> via the sign character; there the rotation
    # character restricts to order 2, so step 2 cuts to the trivial
    # subgroup.
    assert [s.kernel_index for s in steps] == [2, 2]
    assert stable.order == 1
    assert stable.index <= 2 ** len(steps)
    assert normal_characters(model, stable) == []
    assert fixed_subspace_dim(model, stable) > fixed_subspace_dim(
        model, Subgroup.whole(g)
    )


def test_descent_steps_stay_below_dim_v_and_the_chain_bound():
    # Each step grows the fixed subspace, so there are at most dim V steps,
    # and dim V <= m + 1 < m + 2 <= C(m+k+1, m+1) for k >= 1.
    for i in range(SAMPLE):
        model = random_disk_model(split_rng(1, i))
        bound = chain_bound(model.dim_space, model.total_betti())
        for p in model.group.primes():
            start = p_part(model.group, p)
            stable, steps = descent_to_stable(model, model.rep.dim, start)
            grown = fixed_subspace_dim(model, stable) - fixed_subspace_dim(
                model, start
            )
            assert len(steps) <= grown <= model.rep.dim < bound
            assert stable.index <= start.index * model.rep.dim ** len(steps)


def test_descent_rejects_composite_groups():
    g = FiniteAbelianGroup([(2, [1]), (3, [1])])
    model = disk(g, [Summand("rotation", Character(g, (1, 1)))])
    with pytest.raises(ValueError):
        descent_to_stable(model, 2, start=Subgroup.whole(g))
    stable, steps = descent_to_stable(model, 2, start=p_part(g, 3))
    assert stable.order in (1, 3)
    # The trivial subgroup is a p-group for every p: it starts no descent step.
    trivial = Subgroup.trivial_subgroup(g)
    assert descent_to_stable(model, 2, start=trivial) == (trivial, [])


def test_descent_rejects_a_start_from_another_group():
    z2, z3 = FiniteAbelianGroup([(2, [1])]), FiniteAbelianGroup([(3, [1])])
    model = disk(z2, [Summand("trivial")])
    with pytest.raises(ValueError):
        descent_to_stable(model, 2, start=p_part(z3, 3))


def _record_searches(monkeypatch):
    """Wrap the averaging search; the list it returns fills with each
    (part, p) the theorems hand it."""
    calls = []

    def recording(model, part, p, chars):
        calls.append((part, p))
        return _averaging_search(model, part, p, chars)

    monkeypatch.setattr(linear, "_averaging_search", recording)
    return calls


def test_disk_theorem_searches_each_p_part_with_its_prime(monkeypatch):
    # Z/6 turning three planes, with a fixed R^3 so that neither p-part
    # takes the low-dimensional branch.
    g = FiniteAbelianGroup([(2, [1]), (3, [1])])
    model = disk(
        g, [Summand("rotation", Character(g, (1, 1)))] * 3 + [Summand("trivial")] * 3
    )
    calls = _record_searches(monkeypatch)
    assert disk_theorem(model).branch == "gamma-search"
    assert calls == [(p_part(g, 2), 2), (p_part(g, 3), 3)]


def test_theorems_search_only_where_the_search_conditions_hold(monkeypatch):
    # The conditions the theorems guarantee before each search: a
    # nontrivial p-group of that p and, on a sphere, an odd fixed
    # dimension >= 3 (a fixed sphere of even dimension >= 2).
    calls = _record_searches(monkeypatch)
    for theorem, random_model in (
        (disk_theorem, random_disk_model),
        (sphere_theorem, random_sphere_model),
    ):
        seen = set()
        for i in range(300):
            model = random_model(split_rng(1, i))
            theorem(model)
            for part, p in calls:
                assert [q for q, _ in factorize(part.order)] == [p]
                if model.shape == SPHERE:
                    fixed = fixed_subspace_dim(model, part)
                    assert fixed % 2 == 1 and fixed >= 3
                seen.add(p)
            calls.clear()
        # The sample searches both the 2-parts and some odd p-parts.
        assert 2 in seen and len(seen) > 1


def test_shared_closed_forms_are_never_altered_by_their_callers():
    # The whole group, the trivial subgroup and the p-parts are built once
    # per group type and shared by every caller, so no caller may write to
    # one: after the theorems and the descent on 300 models each must still
    # match one built afresh through a Hermite form.
    for i in range(300):
        model = random_disk_model(split_rng(1, i))
        disk_theorem(model)
        sphere_theorem(random_sphere_model(split_rng(1, i)))
        lam = model.rep.dim
        for p in model.group.primes():
            descent_to_stable(model, lam, p_part(model.group, p))
        if is_lambda_stable(model, lam):
            generic_element(model, lam)
    kept = 0
    for group in FiniteAbelianGroup._instances.values():
        units = [[int(i == j) for j in range(group.rank)] for i in range(group.rank)]
        built = [(group._whole, Subgroup.from_rows(group, units)),
                 (group._trivial, Subgroup.from_rows(group, []))]
        for p, part in group._p_parts.items():
            rows = [u for u, q in zip(units, group.factor_primes) if q == p]
            built.append((part, Subgroup.from_rows(group, rows)))
        for shared, fresh in built:
            if shared is None:
                continue
            kept += 1
            assert shared.parent is group
            assert shared.canonical_basis == fresh.canonical_basis
            assert (shared.index, shared.order) == (fresh.index, fresh.order)
            assert shared.basis_residues == fresh.basis_residues
    assert kept > 300


def test_generic_element_disk():
    g = FiniteAbelianGroup([(5, [1])])
    model = disk(
        g,
        [
            Summand("rotation", Character(g, (1,))),
            Summand("rotation", Character(g, (2,))),
        ],
    )
    gamma = generic_element(model, 4)
    assert gamma == g.element((1,))
    assert fixed_subspace_dim(model, Subgroup.cyclic(gamma)) == 0


def test_generic_element_precondition():
    g = FiniteAbelianGroup([(5, [1])])
    model = disk(g, [Summand("rotation", Character(g, (1,)))] * 3)
    with pytest.raises(ValueError):
        generic_element(model, 1)  # lambda below dim * total Betti


def test_averaging_search_meets_the_averaging_bound():
    g = FiniteAbelianGroup([(3, [1, 1])])
    chars = [Character(g, e) for e in ((1, 0), (0, 1), (1, 1), (1, 2))]
    model = disk(g, [Summand("rotation", c) for c in chars])
    whole = Subgroup.whole(g)
    normal = normal_characters(model, whole)
    gamma, a_prime = _averaging_search(model, whole, 3, normal)
    # r = 4 classes of index 3 = 3^1, p = 3: gamma lies in at most
    # [4/3] = 1 of their kernels, each weighted by its exponent 1.
    assert len(normal) == 4
    i_value = sum(1 for char, _ in normal if char.value(gamma.residues) == 0)
    assert i_value <= 1
    assert whole.order % a_prime.order == 0
    assert fixed_subspace_dim(model, Subgroup.cyclic(gamma)) == (
        fixed_subspace_dim(model, a_prime)
    )


def test_disk_theorem_small_dimension_keeps_whole_group():
    entry = corpus_entry("model-z3-rotation-disk")
    result = disk_theorem(entry.model)
    # dim V = 2 < 3, so f(k) = f(-1) = 1 forces A' = A.
    assert result.index == 1
    assert result.divisor_bound == 1
    assert result.chi == 1


def test_disk_theorem_large_prime_group_fixed():
    g = FiniteAbelianGroup([(7, [1])])
    model = disk(
        g,
        [Summand("rotation", Character(g, (1,)))] * 2
        + [Summand("trivial")] * 3,
    )
    # n = 7, k = 2; all prime divisors (7) exceed max(2, k) = 2, so the
    # whole group keeps a fixed point.
    result = disk_theorem(model)
    assert result.subgroup == Subgroup.whole(model.group)
    assert result.index == 1


def test_disk_theorem_on_the_trivial_group():
    g = FiniteAbelianGroup([])
    result = disk_theorem(disk(g, [Summand("trivial")] * 4))
    assert result.branch == "trivial-group"
    assert result.index == 1
    assert result.chi == 1
    assert result.gamma is None


def test_sphere_two_group_reduction_antipodal():
    entry = corpus_entry("model-z2-antipodal-sphere")
    a0 = sphere_two_group_reduce(entry.model, p_part(entry.model.group, 2))
    assert a0.order == 1
    assert fixed_subspace_dim(entry.model, a0) == 3


@pytest.mark.parametrize("seed", (1, 7))
def test_sphere_two_group_reduction_matches_the_subgroup_reference(seed):
    # The reference keeps c as a subgroup and returns A'.join(c); the
    # library carries W = V^c as summands and returns the last kernel.
    reduced = 0
    for i in range(2000):
        model = random_sphere_model(split_rng(seed, i))
        two_part = p_part(model.group, 2)
        if two_part.order == 1:
            continue
        a0 = sphere_two_group_reduce(model, two_part)
        assert a0.canonical_basis == reference_reduce(model, two_part).canonical_basis, i
        reduced += 1
    assert reduced > 1000


def test_sphere_theorem_antipodal():
    entry = corpus_entry("model-z2-antipodal-sphere")
    result = sphere_theorem(entry.model)
    assert result.index == 2
    assert result.divisor_bound == 4  # 2^(m+1) f(m-1) with m = 1
    count = fixed_point_count(entry.model, result.subgroup)
    assert count is None or count >= 2


def test_sphere_theorem_rotation():
    entry = corpus_entry("model-z3-rotation-sphere")
    result = sphere_theorem(entry.model)
    assert result.index == 1  # f(0) = 1 and no 2-part
    assert result.chi == 2


def test_sphere_characters_count_classes_and_low_fixed_dim_takes_two_points():
    g = FiniteAbelianGroup([(3, [1])])
    # dim V = 7, fixed dim 3: the repeated character collapses to one
    # class and r = 1 <= m - l = 2.
    model = sphere(
        g,
        [
            Summand("rotation", Character(g, (1,))),
            Summand("rotation", Character(g, (1,))),
        ]
        + [Summand("trivial")] * 3,
    )
    assert len(normal_characters(model, Subgroup.whole(g))) == 1
    # With a 1-dimensional fixed subspace the theorem takes the two-point
    # branch instead of searching.
    low = sphere(
        g,
        [
            Summand("rotation", Character(g, (1,))),
            Summand("trivial"),
        ],
    )
    assert sphere_theorem(low).branch == "two-point"


def test_assemble_cross_prime_certification():
    g = FiniteAbelianGroup([(2, [1]), (3, [1])])
    model = disk(
        g,
        [
            Summand("sign", Character(g, (1, 0))),
            Summand("rotation", Character(g, (0, 1))),
            Summand("trivial"),
        ],
    )
    parts = {}
    for p in (2, 3):
        part = p_part(g, p)
        parts[p] = _averaging_search(model, part, p, normal_characters(model, part))
    gamma, a_prime = assemble_cross_prime(model, parts)
    assert gamma.order() == 6
    assert a_prime == Subgroup.whole(g)
    assert fixed_subspace_dim(model, Subgroup.cyclic(gamma)) == 1


def test_model_json_round_trip():
    for entry in [e for e in load_corpus() if e.kind == "model"]:
        data = model_to_json(entry.model)
        rebuilt = model_from_json(data)
        assert rebuilt.shape == entry.model.shape
        assert rebuilt.rep.dim == entry.model.rep.dim
        assert model_to_json(rebuilt) == data


def test_random_model_generators_are_deterministic():
    a = random_disk_model(split_rng(42, 7))
    b = random_disk_model(split_rng(42, 7))
    assert model_to_json(a) == model_to_json(b)
    s = random_sphere_model(split_rng(42, 7))
    assert s.rep.dim % 2 == 1 and s.rep.dim <= 11
    assert a.rep.dim <= 10 and a.group.order <= 512


def test_theorem_invariants_on_seeded_sample():
    from aft.bounds import f

    for i in range(60):
        model = random_disk_model(split_rng(99, i))
        result = disk_theorem(model)
        k = (model.rep.dim - 3) // 2
        assert f(k) % result.index == 0
        assert chi_fixed(model, result.subgroup) == 1
    for i in range(60):
        model = random_sphere_model(split_rng(99, i))
        result = sphere_theorem(model)
        m = model.dim_space // 2
        assert (2 ** (m + 1) * f(m - 1)) % result.index == 0
        count = fixed_point_count(model, result.subgroup)
        assert count is None or count >= 2


SAMPLE = 40


def _sample_models():
    """The corpus models and the first seed-1 random disk and sphere models."""
    corpus = [pytest.param(e.model, id=e.name) for e in load_corpus() if e.kind == "model"]
    return corpus + [
        pytest.param(make(split_rng(1, i)), id=f"{make.__name__}-{i}")
        for make in (random_disk_model, random_sphere_model)
        for i in range(SAMPLE)
    ]


def _brute_fixed_dim(model, subgroup):
    """dim V^H with a summand fixed when its character is 0 on every element
    of H, the elements listed by closure over the generators."""
    elements = closure_elements(subgroup)
    return sum(
        s.dim
        for s in model.rep.summands
        if s.kind == "trivial" or all(s.character.is_one_at(x) for x in elements)
    )


def _fraction_normal_characters(model, subgroup):
    """Normal characters of H with the values taken as ``FractionCharacter``
    rotation numbers: each conjugate pair keyed by the smaller value tuple,
    represented by the first summand in exponent order, and sorted by
    (kernel index, exponents)."""
    found = {}
    for s in sorted(
        model.rep.summands,
        key=lambda s: () if s.character is None else s.character.exponents,
    ):
        if s.kind == "trivial":
            continue
        ref = FractionCharacter(model.group, s.character.exponents)
        key = ref.restriction_key(subgroup)
        if any(key):
            key = min(key, tuple(-v % 1 for v in key))
            found.setdefault(key, (s.character, ref.restricted_order(subgroup)))
    return sorted(found.values(), key=lambda t: (t[1], t[0].exponents))


@pytest.mark.parametrize("model", _sample_models())
def test_fixed_dims_match_oracles(model):
    # X^g read off g itself equals X^<g> read off the Hermite basis of <g>.
    for g in model.group.elements():
        assert model.rep.fixed_dim((g.residues,)) == fixed_subspace_dim(
            model, Subgroup.cyclic(g)
        )
    # One evaluation per subgroup gives both dim V^H and the normal
    # characters, as the element closure and the Fraction values do.
    for h in subgroups_of(Subgroup.whole(model.group)):
        assert _restrict(model, h) == (
            _brute_fixed_dim(model, h), _fraction_normal_characters(model, h)
        )


def _theorem_results(count):
    return [
        (
            disk_theorem(random_disk_model(split_rng(1, i))).to_json(),
            sphere_theorem(random_sphere_model(split_rng(1, i))).to_json(),
        )
        for i in range(count)
    ]


def test_theorems_never_list_subgroup_elements(monkeypatch):
    expected = _theorem_results(300)

    def refuse(self):
        raise AssertionError("a search built the full element list")

    monkeypatch.setattr(Subgroup, "elements", refuse)
    assert _theorem_results(300) == expected


def _descent_results(count):
    results = []
    for i in range(count):
        model = random_disk_model(split_rng(1, i))
        for p in model.group.primes():
            start = p_part(model.group, p)
            results.append(descent_to_stable(model, model.rep.dim, start))
    return results


def test_linear_kernels_take_no_lattice_meet(monkeypatch):
    # Every kernel the searches take is one Hermite form inside its
    # subgroup: with the Zassenhaus meets and kernel_basis refused wherever
    # an aft module binds them, the results stay the same.
    expected = (_descent_results(300), _theorem_results(300))

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel went through a lattice meet")

    refused = (groups.intersect, kernel_basis)
    for name, module in list(sys.modules.items()):
        if name == "aft" or name.startswith("aft."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in refused):
                    monkeypatch.setattr(module, attr, refuse)
    assert (_descent_results(300), _theorem_results(300)) == expected

