"""Group actions element by element on vertex labels, the reference for
``aft.actions``.

Every function here composes an element's map of vertex labels from the
generators' vertex dicts, one generator step at a time, and sends each
simplex to the frozenset of its image labels; a simplex is fixed setwise
when that set is its own.  The library instead turns each generator into
permutations of simplex indices once and composes those.
"""

from aft.actions import DivisibilityVerdict
from aft.groups import Subgroup


def label_map(action, element):
    """Label -> label map of ``element``."""
    labels = action.space.labels
    image = {labels[v]: labels[v] for v in action.space.vertices}
    for r, gen in zip(element.residues, action.vertex_images):
        step = {labels[v]: labels[w] for v, w in gen.items()}
        for _ in range(r):
            image = {x: step[y] for x, y in image.items()}
    return image


def _fixes(image, simplex):
    return frozenset(image[x] for x in simplex) == frozenset(simplex)


def lefschetz_number(action, element):
    """Alternating count of the simplices ``element`` fixes setwise."""
    image = label_map(action, element)
    space = action.space
    return sum(
        (-1) ** (len(s) - 1)
        for s in map(space.labelled, space.simplices())
        if _fixes(image, s)
    )


def simplex_permutation(action, element, d):
    """Each d-simplex's index goes to the index of the simplex whose set of
    labels is the image of its own, looked up by labelled frozenset."""
    image = label_map(action, element)
    simplices = list(map(action.space.labelled, action.space.simplices(d)))
    position = {frozenset(s): i for i, s in enumerate(simplices)}
    return tuple(position[frozenset(image[x] for x in s)] for s in simplices)


def goodness_witnesses(action):
    """(element, simplex, moved vertex) for each setwise-fixed simplex that
    some non-identity element does not fix pointwise, all in labels."""
    witnesses = []
    for g in action.group.elements():
        if g.is_identity():
            continue
        image = label_map(action, g)
        for s in map(action.space.labelled, action.space.simplices()):
            if _fixes(image, s):
                moved = [x for x in s if image[x] != x]
                if moved:
                    witnesses.append((g, s, moved[0]))
    return witnesses


def action_kernel(action):
    """Elements fixing every vertex label."""
    return Subgroup(
        action.group,
        [
            g
            for g in action.group.elements()
            if all(x == y for x, y in label_map(action, g).items())
        ],
    )


def chi_defect_divisibility(action, gamma0, n):
    """The verdict of ``aft.actions.chi_defect_divisibility``: the defect
    sums (-1)^d over the simplices that some element of Gamma0 does not
    fix pointwise, and each one's index is the group's order over the
    number of elements that fix it setwise."""
    group = action.group
    modulus = group.primary_decomposition[0][0] ** (n + 1)
    fixing = [label_map(action, g) for g in gamma0.elements()]
    images = [label_map(action, g) for g in group.elements()]
    defect = 0
    witnesses = []
    for s in map(action.space.labelled, action.space.simplices()):
        if all(image[x] == x for image in fixing for x in s):
            continue
        defect += (-1) ** (len(s) - 1)
        index = group.order // sum(_fixes(image, s) for image in images)
        if index < modulus:
            witnesses.append((s, index))
    if witnesses:
        return DivisibilityVerdict(
            "hypothesis_violated", defect, modulus, tuple(witnesses[:5])
        )
    status = "divisible" if defect % modulus == 0 else "not_divisible"
    return DivisibilityVerdict(status, defect, modulus)
