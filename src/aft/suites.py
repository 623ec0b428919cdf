"""Verification suites and the end-to-end fixed-point pipeline.

Each suite runs an invariant battery over the corpus or over seeded
random models and returns a VerificationReport.  Reports are
deterministic given (suite, seed, scale); wall time is recorded in a
separate field that is excluded from the deterministic payload.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .actions import (
    action_kernel,
    chi_defect_divisibility,
    fixed_subcomplex,
    lefschetz_number,
)
from .bounds import (
    BoundsConfig,
    chain_bound,
    chain_bound_oracle,
    chi_exponent,
    cohomology_trivializing_subgroup,
    composite_bound,
    f,
    minkowski_injectivity_check,
)
from .corpus import corpus_actions, corpus_models, load_corpus
from .groups import (
    Character,
    FiniteAbelianGroup,
    Subgroup,
    all_subgroups,
    intersect,
    kernel,
    p_part,
    subgroups_of,
)
from .linear import (
    DISK,
    SPHERE,
    LinearActionModel,
    RealRepresentation,
    Summand,
    chi_fixed,
    descent_to_stable,
    disk_theorem,
    fixed_point_count,
    fixed_subspace_dim,
    generic_element,
    is_lambda_stable,
    normal_characters,
    orientation_character,
    sphere_theorem,
)
from .simplicial import connected_components, homology

SUITE_NAMES = (
    "smith",
    "lefschetz",
    "divisibility",
    "chain-bound",
    "descent",
    "disks",
    "spheres",
    "pipeline",
    "minkowski",
)


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    seed: int
    scale: str
    cases: tuple
    wall_time: float

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    def to_json(self, include_timing=True):
        out = {
            "schema": "aft/1",
            "suite": self.suite,
            "seed": self.seed,
            "scale": self.scale,
            "passed": self.passed,
            "cases_run": len(self.cases),
            "failures": [c.to_json() for c in self.cases if not c.passed],
            "cases": [c.to_json() for c in self.cases],
        }
        if include_timing:
            out["wall_time_seconds"] = self.wall_time
        return out


def run_suite(name, seed=0, scale="small"):
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if scale not in ("small", "full"):
        raise ValueError("scale must be 'small' or 'full'")
    start = time.perf_counter()
    runner = _RUNNERS[name]
    cases = tuple(runner(seed, scale))
    return VerificationReport(name, seed, scale, cases, time.perf_counter() - start)


# -- deterministic pseudo-random model generation ---------------------------


class _SplitMix:
    """Tiny deterministic generator, stable across platforms and versions."""

    def __init__(self, seed):
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    def randrange(self, n):
        return self.next64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def split_rng(seed, case_index):
    """Per-case generator split from the master seed."""
    return _SplitMix((seed << 20) ^ (case_index * 0x632BE59BD9B4E019) ^ 0xA5A5)


def random_group(rng, max_order=512):
    """Random primary decomposition with order <= max_order."""
    by_prime = {}
    order = 1
    for _ in range(rng.randrange(4) + 1):
        p = rng.choice((2, 2, 2, 3, 3, 5, 7))
        e = rng.randrange(3) + 1
        if order * p ** e > max_order:
            continue
        order *= p ** e
        by_prime.setdefault(p, []).append(e)
    if not by_prime:
        by_prime = {2: [1]}
    return FiniteAbelianGroup(sorted(by_prime.items()))


def _random_character(rng, group):
    return Character(group, [rng.randrange(m) for m in group.factor_orders])


def _random_summands(rng, group, target_dim):
    """Summand list of total dimension exactly target_dim."""
    summands = []
    dim = 0
    while dim < target_dim:
        char = _random_character(rng, group)
        order = char.order()
        if order >= 3 and dim + 2 <= target_dim:
            summands.append(Summand("rotation", char))
            dim += 2
        elif order == 2:
            summands.append(Summand("sign", char))
            dim += 1
        else:
            summands.append(Summand("trivial"))
            dim += 1
    return tuple(summands)


def random_disk_model(rng, max_dim=10):
    group = random_group(rng)
    target = rng.randrange(max_dim) + 1
    return LinearActionModel(
        RealRepresentation(group, _random_summands(rng, group, target)), DISK
    )


def random_sphere_model(rng, max_dim=11):
    group = random_group(rng)
    target = rng.choice(tuple(range(1, max_dim + 1, 2)))  # odd dim V
    return LinearActionModel(
        RealRepresentation(group, _random_summands(rng, group, target)), SPHERE
    )


def _sweep_count(scale):
    return 1000 if scale == "small" else 2000


# -- corpus suites ----------------------------------------------------------


def _suite_smith(seed, scale):
    for entry in corpus_actions():
        group = entry.action.group
        if not group.is_p_group() or group.order == 1:
            continue
        p = group.primary_decomposition[0][0]
        profile = homology(entry.action.space, primes=(p,))
        total = profile.total_betti_mod(p)
        for sub in all_subgroups(group):
            fx = fixed_subcomplex(entry.action, sub)
            fx_total = homology(fx, primes=(p,)).total_betti_mod(p)
            yield CaseResult(
                f"{entry.name}/index-{sub.index}",
                fx_total <= total,
                {"fixed_total": fx_total, "space_total": total, "p": p},
            )


def _suite_lefschetz(seed, scale):
    for entry in corpus_actions():
        for g in entry.action.group.elements():
            fx = fixed_subcomplex(entry.action, Subgroup.cyclic(g))
            chi = fx.euler_characteristic()
            trace = lefschetz_number(entry.action, g)
            yield CaseResult(
                f"{entry.name}/g{list(g.residues)}",
                chi == trace,
                {"chi_fixed": chi, "trace": trace},
            )


def _suite_divisibility(seed, scale):
    from .actions import gamma_chi_subgroup

    for entry in corpus_actions():
        group = entry.action.group
        if not group.is_p_group() or group.order == 1:
            continue
        p = group.primary_decomposition[0][0]
        profile = homology(entry.action.space, primes=(p,))
        n = chi_exponent(p, profile.total_betti_mod(p))
        gamma_chi, _ = gamma_chi_subgroup(
            entry.action, entry.metadata["mu"], verify=False, profile=profile
        )
        verdict = chi_defect_divisibility(entry.action, gamma_chi, n)
        yield CaseResult(
            f"{entry.name}/n-{n}",
            verdict.ok,
            verdict.to_json(),
        )


def _suite_chain_bound(seed, scale):
    for m in range(13):
        for k in range(13 - m):
            closed = chain_bound(m, k)
            oracle = chain_bound_oracle(m, k)
            yield CaseResult(
                f"m{m}-k{k}",
                closed == oracle,
                {"closed_form": closed, "oracle": oracle},
            )


def _suite_minkowski(seed, scale):
    for n in range(1, 5):
        mats = []
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                mats.append(
                    tuple(
                        tuple(
                            signs[i] if perm[i] == j else 0 for j in range(n)
                        )
                        for i in range(n)
                    )
                )
        verdict = minkowski_injectivity_check(mats)
        yield CaseResult(
            f"signed-permutations-{n}x{n}",
            verdict.injective,
            {"group_order": verdict.size},
        )


# -- randomized linear-model suites -----------------------------------------


def _suite_descent(seed, scale):
    for i in range(_sweep_count(scale)):
        rng = split_rng(seed, i)
        model = random_disk_model(rng)
        lam = model.euler_characteristic() * model.dim_space
        ok = True
        details = {"dim": model.dim_space, "order": model.group.order}
        try:
            for p in model.group.primes():
                start = p_part(model.group, p)
                stable, steps = descent_to_stable(model, lam, start=start)
                bound = chain_bound(model.dim_space, model.total_betti())
                if not (
                    len(steps) < bound
                    and stable.index <= start.index * lam ** len(steps)
                ):
                    ok = False
                    details["violation"] = {"p": p, "steps": len(steps)}
            if is_lambda_stable(model, lam):
                g = generic_element(model, lam)
                details["generic"] = list(g.residues)
        except (AssertionError, ValueError) as exc:
            ok = False
            details["error"] = str(exc)
        yield CaseResult(f"disk-model-{i}", ok, details)


def _suite_disks(seed, scale):
    for i in range(_sweep_count(scale)):
        rng = split_rng(seed, i)
        model = random_disk_model(rng)
        k = (model.rep.dim - 3) // 2
        ok = True
        details = {"dim": model.rep.dim, "order": model.group.order}
        try:
            result = disk_theorem(model)
            divisor = f(k)
            details.update(
                {"index": result.index, "f_k": divisor, "branch": result.branch}
            )
            if divisor % result.index != 0 or result.chi != 1:
                ok = False
            large_primes = all(
                p > max(2, k) for p in model.group.primes()
            )
            if large_primes and result.subgroup != model.whole_subgroup():
                ok = False
                details["violation"] = "large-prime group not fully fixed"
        except (AssertionError, ValueError) as exc:
            ok = False
            details["error"] = str(exc)
        yield CaseResult(f"disk-model-{i}", ok, details)


def _suite_spheres(seed, scale):
    for i in range(_sweep_count(scale)):
        rng = split_rng(seed, i)
        model = random_sphere_model(rng)
        m = model.dim_space // 2
        ok = True
        details = {"dim": model.dim_space, "order": model.group.order}
        try:
            result = sphere_theorem(model)
            divisor = 2 ** (m + 1) * f(m - 1)
            points = fixed_point_count(model, result.subgroup)
            details.update(
                {
                    "index": result.index,
                    "bound": divisor,
                    "branch": result.branch,
                    "fixed_points": "inf" if points is None else points,
                }
            )
            if divisor % result.index != 0 or (points is not None and points < 2):
                ok = False
        except (AssertionError, ValueError) as exc:
            ok = False
            details["error"] = str(exc)
        yield CaseResult(f"sphere-model-{i}", ok, details)


# -- the end-to-end pipeline ------------------------------------------------


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
    if model.shape == DISK:
        betti = (1,) + (0,) * model.dim_space
    else:
        betti = (1,) + (0,) * (model.dim_space - 1) + (1,)
    return BoundsConfig(
        dim=model.dim_space,
        betti_Z=betti,
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
    from .actions import gamma_chi_subgroup

    action = entry.action
    group = action.group
    primes = tuple(sorted({2, 3, 5} | set(group.primes())))
    profile = homology(action.space, primes=primes)
    if not profile.has_no_odd_cohomology():
        raise ValueError(f"{entry.name}: entry has odd cohomology")
    cfg = _bounds_config_for_action(entry, profile)
    stages = []

    trivializing, minkowski_bound = cohomology_trivializing_subgroup(
        group, entry.metadata["homology_matrices"]
    )
    stages.append(
        {
            "stage": "cohomology-trivializing",
            "index": trivializing.index,
            "bound": minkowski_bound,
        }
    )

    ker = action_kernel(action)
    a0 = Subgroup.trivial_subgroup(group)
    for p in group.primes():
        gp = p_part(group, p, trivializing)
        if gp.order == 1:
            continue
        n = chi_exponent(p, profile.total_betti_mod(p))
        gchi_p = gp.powers(p ** n).join(intersect(ker, gp))
        stages.append(
            {"stage": f"gamma-chi-p{p}", "n": n, "order": gchi_p.order}
        )
        a0 = a0.join(gchi_p)

    chi = action.space.euler_characteristic()
    # Oracle stability check: every subgroup of A0 preserves chi.
    for sub in subgroups_of(a0):
        fx = fixed_subcomplex(action, sub)
        if fx.euler_characteristic() != chi:
            raise AssertionError(
                f"{entry.name}: chi not preserved by a subgroup of A0"
            )
    stages.append({"stage": "stability-oracle", "order": a0.order})

    fixed_a0 = fixed_subcomplex(action, a0)
    gamma = None
    target = set(fixed_a0.simplices())
    for g in a0.elements():
        fx = fixed_subcomplex(action, Subgroup.cyclic(g))
        if set(fx.simplices()) == target:
            gamma = g
            break
    if gamma is None:
        raise AssertionError(f"{entry.name}: no generic element found in A0")
    trace = lefschetz_number(action, gamma)
    if trace != fixed_a0.euler_characteristic():
        raise AssertionError(f"{entry.name}: Lefschetz check failed for gamma")
    stages.append({"stage": "gamma", "element": list(gamma.residues)})

    component_checks = []
    for comp in connected_components(action.space):
        comp_vertices = set(comp.vertices)
        comp_fixed = [
            s
            for s in fixed_a0.simplices()
            if all(v in comp_vertices for v in s)
        ]
        chi_comp_fixed = sum((-1) ** (len(s) - 1) for s in comp_fixed)
        component_checks.append(
            {
                "chi": comp.euler_characteristic(),
                "chi_fixed": chi_comp_fixed,
                "ok": chi_comp_fixed == comp.euler_characteristic(),
            }
        )

    bound = composite_bound(cfg)
    return {
        "schema": "aft/1",
        "entry": entry.name,
        "stages": stages,
        "index": a0.index,
        "composite_bound": bound,
        "index_within_bound": a0.index <= bound,
        "component_checks": component_checks,
        "passed": a0.index <= bound
        and all(c["ok"] for c in component_checks),
    }


def _pipeline_model(entry):
    model = entry.model
    group = model.group
    if model.shape == SPHERE and model.dim_space % 2 != 0:
        raise ValueError("pipeline sphere models must be even-dimensional")
    cfg = _bounds_config_for_model(entry)
    lam = model.euler_characteristic() * model.dim_space
    stages = []

    if model.shape == SPHERE:
        trivializing = kernel(orientation_character(model))
    else:
        trivializing = model.whole_subgroup()
    stages.append(
        {"stage": "cohomology-trivializing", "index": trivializing.index}
    )

    parts = {}
    for p in group.primes():
        gp = p_part(group, p, trivializing)
        if gp.order == 1:
            continue
        n = chi_exponent(p, model.total_betti())
        gchi_p = gp.powers(p ** n)
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
        from .linear import assemble_cross_prime

        gamma, a0 = assemble_cross_prime(model, parts)
    else:
        gamma, a0 = group.identity(), Subgroup.trivial_subgroup(group)
    stages.append({"stage": "gamma", "element": list(gamma.residues)})

    chi_ok = chi_fixed(model, a0) == model.euler_characteristic()
    index = group.order // a0.order
    bound = composite_bound(cfg)
    return {
        "schema": "aft/1",
        "entry": entry.name,
        "stages": stages,
        "index": index,
        "composite_bound": bound,
        "index_within_bound": index <= bound,
        "component_checks": [
            {
                "chi": model.euler_characteristic(),
                "chi_fixed": chi_fixed(model, a0),
                "ok": chi_ok,
            }
        ],
        "passed": index <= bound and chi_ok,
    }


def _suite_pipeline(seed, scale):
    for entry in load_corpus():
        if entry.kind == "complex":
            continue
        if not entry.metadata.get("no_odd_cohomology"):
            continue
        try:
            report = pipeline(entry)
            yield CaseResult(
                entry.name,
                report["passed"],
                {
                    "index": report["index"],
                    "composite_bound": report["composite_bound"],
                },
            )
        except (AssertionError, ValueError) as exc:
            yield CaseResult(entry.name, False, {"error": str(exc)})


_RUNNERS = {
    "smith": _suite_smith,
    "lefschetz": _suite_lefschetz,
    "divisibility": _suite_divisibility,
    "chain-bound": _suite_chain_bound,
    "descent": _suite_descent,
    "disks": _suite_disks,
    "spheres": _suite_spheres,
    "pipeline": _suite_pipeline,
    "minkowski": _suite_minkowski,
}
