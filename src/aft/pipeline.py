"""The end-to-end fixed-point pipeline over an action or a linear model.

It builds a cohomology-trivializing subgroup (for an action, read off the
Lefschetz numbers) and the Gamma_chi parts, a subgroup A0 all of whose
subgroups preserve chi, and a generic gamma with X^gamma = X^A0, then
compares [A : A0] with 3^b C_{lambda_chi}.  The exponent n_p of each
Gamma_chi part (``C_p_chi``) and lambda_chi = chi * dim are read off the
same ``BoundsConfig`` as the composite bound, so Gamma_chi and the bound
share them by construction.

Everything the pipeline reads off an action is an invariant of the action
on |X|, so it reads it on the root action (``SimplicialAction.root``),
the one that ``subdivide_action`` started from, good or not.  The
homology is that of the root's space; Hopf's trace L(g), chi(X^H) by
orbit counts, the action kernel, the generic element and the
per-component checks all come from the root's stabilizer table.  The two
formulas for L(g), Hopf's trace and the orbit count of chi(X^<g>), are
compared for every g.
"""

from __future__ import annotations

from .actions import (
    action_kernel,
    assert_chi_preserved,
    component_chis,
    fixed_set_chi,
    generic_fixed_element,
    lefschetz_number,
)
from .bounds import BoundsConfig, C_p_chi, composite_bound
from .groups import Subgroup, intersect, kernel, p_part
from .linear import (
    SPHERE,
    TRIVIAL,
    assemble_cross_prime,
    chi_fixed,
    descent_to_stable,
    generic_element,
    orientation_character,
)
from .simplicial import homology


def _bounds_config_for_action(entry, profile):
    return BoundsConfig(
        dim=entry.action.space.dimension,
        betti_Z=tuple(profile.ranks()),
        betti_mod_p={p: tuple(bs) for p, bs in profile.betti_mod_p.items()},
        torsion_primes=frozenset(profile.torsion_primes()),
        mu=entry.metadata["mu"],
    )


def _bounds_config_for_model(entry):
    model = entry.model
    return BoundsConfig(
        dim=model.dim_space,
        betti_Z=model.betti(),
        betti_mod_p={},
        torsion_primes=frozenset(),
        mu=entry.metadata["mu"],
    )


def pipeline(entry):
    """Full constructive run of the fixed-point existence argument.

    Returns a dict report with the stages, the final subgroup A0, the
    index comparison against the composite bound, and the per-component
    Euler characteristic checks.
    """
    if entry.kind == "action":
        return _pipeline_action(entry)
    if entry.kind == "model":
        return _pipeline_model(entry)
    raise ValueError("pipeline needs an action or model entry")


def _pipeline_action(entry):
    action = entry.action.root
    group = action.group
    primes = tuple(sorted({2, 3, 5} | set(group.primes())))
    profile = homology(action.space, primes=primes)
    if not profile.has_no_odd_cohomology():
        raise ValueError(f"{entry.name}: entry has odd cohomology")
    cfg = _bounds_config_for_action(entry, profile)
    stages = []

    # By Hopf the chain trace L(g) is sum of (-1)^d tr(g | H_d).  With no
    # odd cohomology every term is a trace of finite order on Z^(b_d), at
    # most b_d and equal to it only for the identity.  So g acts trivially
    # on H_*(X; Z) exactly when L(g) = chi(X); by Minkowski's lemma that
    # subgroup is the kernel of A -> prod GL(b_d, F_3).
    traces = {g.residues: lefschetz_number(action, g) for g in group.elements()}
    chi = cfg.euler()
    trivializing = Subgroup.from_rows(
        group, [r for r, trace in traces.items() if trace == chi]
    )
    minkowski_bound = cfg.minkowski_bound()
    if trivializing.index > minkowski_bound:
        raise AssertionError(
            f"{entry.name}: [A:G] = {trivializing.index} exceeds the "
            f"Minkowski bound {minkowski_bound}"
        )
    stages.append(
        {
            "stage": "cohomology-trivializing",
            "index": trivializing.index,
            "bound": minkowski_bound,
        }
    )
    # Lefschetz's theorem for a simplicial map of finite order: L(g) is
    # chi(X^<g>), here a sum of signs of invariant simplices against a sum
    # over the cells of the fixed set.
    for g in group.elements():
        fixed_chi = fixed_set_chi(action, Subgroup.cyclic(g))
        if fixed_chi != traces[g.residues]:
            raise AssertionError(
                f"{entry.name}: L(g) = {traces[g.residues]} but "
                f"chi(X^<g>) = {fixed_chi} for g = {list(g.residues)}"
            )

    ker = action_kernel(action)
    a0 = Subgroup.trivial_subgroup(group)
    for p in group.primes():
        gp = p_part(group, p, trivializing)
        if gp.order == 1:
            continue
        n = C_p_chi(p, cfg)[0]
        gchi_p = gp.powers(p ** n).join(intersect(ker, gp))
        stages.append(
            {"stage": f"gamma-chi-p{p}", "n": n, "order": gchi_p.order}
        )
        a0 = a0.join(gchi_p)

    assert_chi_preserved(action, a0)
    stages.append({"stage": "stability-oracle", "order": a0.order})

    gamma = generic_fixed_element(action, a0)
    if gamma is None:
        raise AssertionError(f"{entry.name}: no generic element found in A0")
    stages.append({"stage": "gamma", "element": list(gamma.residues)})

    checks = [_component_check(*pair) for pair in component_chis(action, a0)]
    return _report(entry, stages, a0, cfg, checks)


def _pipeline_model(entry):
    model = entry.model
    group = model.group
    if model.shape == SPHERE and model.dim_space % 2 != 0:
        raise ValueError("pipeline sphere models must be even-dimensional")
    cfg = _bounds_config_for_model(entry)
    lam = cfg.euler() * cfg.dim
    stages = []

    if model.shape == SPHERE:
        trivializing = kernel(orientation_character(model))
    else:
        trivializing = Subgroup.whole(model.group)
    stages.append(
        {"stage": "cohomology-trivializing", "index": trivializing.index}
    )

    ker = Subgroup.whole(group)  # the action kernel, as in _pipeline_action
    for s in model.rep.summands:
        if s.kind != TRIVIAL:
            ker = kernel(s.character, ker)
    parts = {}
    for p in group.primes():
        gp = p_part(group, p, trivializing)
        if gp.order == 1:
            continue
        n = C_p_chi(p, cfg)[0]
        gchi_p = gp.powers(p ** n).join(intersect(ker, gp))
        # On a sphere the descent checks first that Gamma-chi preserves chi.
        stable, steps = descent_to_stable(model, lam, start=gchi_p)
        stages.append(
            {
                "stage": f"descent-p{p}",
                "n": n,
                "steps": len(steps),
                "order": stable.order,
            }
        )
        if stable.order > 1:
            gamma_p = generic_element(model, lam, stable)
            parts[p] = (gamma_p, stable)

    if parts:
        gamma, a0 = assemble_cross_prime(model, parts)
    else:
        gamma, a0 = group.identity(), Subgroup.trivial_subgroup(group)
    stages.append({"stage": "gamma", "element": list(gamma.residues)})

    check = _component_check(model.euler_characteristic(), chi_fixed(model, a0))
    return _report(entry, stages, a0, cfg, [check])


def _component_check(chi, chi_fixed_a0):
    return {"chi": chi, "chi_fixed": chi_fixed_a0, "ok": chi_fixed_a0 == chi}


def _report(entry, stages, a0, cfg, component_checks):
    bound = composite_bound(cfg)
    return {
        "schema": "aft/1",
        "entry": entry.name,
        "stages": stages,
        "index": a0.index,
        "composite_bound": bound,
        "index_within_bound": a0.index <= bound,
        "component_checks": component_checks,
        "passed": a0.index <= bound and all(c["ok"] for c in component_checks),
    }
