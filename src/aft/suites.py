"""Verification suites with deterministic reports.

Each suite runs an invariant battery over the corpus or over seeded
random models and returns a VerificationReport.  Reports are
deterministic given (suite, seed, scale); wall time is recorded in a
separate field that is excluded from the deterministic payload.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple

from .actions import (
    chi_defect_divisibility,
    fixed_subcomplex,
    gamma_chi_subgroup,
    lefschetz_number,
)
from .bounds import (
    chain_bound,
    chain_bound_oracle,
    f,
    minkowski_injectivity_check,
)
from .corpus import corpus_actions, load_corpus
from .groups import Character, FiniteAbelianGroup, Subgroup, all_subgroups, p_part
from .integermat import factorize
from .linear import (
    DISK,
    SPHERE,
    LinearActionModel,
    RealRepresentation,
    Summand,
    descent_to_stable,
    disk_theorem,
    fixed_point_count,
    generic_element,
    sphere_theorem,
)
from .pipeline import pipeline
from .simplicial import homology


class CaseResult(namedtuple("CaseResult", "name passed details")):
    __slots__ = ()

    def __new__(cls, name, passed, details=None):
        return tuple.__new__(cls, (name, passed, {} if details is None else details))

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "details": self.details}


class VerificationReport(
    namedtuple("VerificationReport", "suite seed scale cases wall_time")
):
    __slots__ = ()

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    def to_json(self):
        return {
            "schema": "aft/1",
            "suite": self.suite,
            "seed": self.seed,
            "scale": self.scale,
            "passed": self.passed,
            "cases_run": len(self.cases),
            "failures": [c.to_json() for c in self.cases if not c.passed],
            "cases": [c.to_json() for c in self.cases],
            "wall_time_seconds": self.wall_time,
        }


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


# Random models: the largest group order, and the largest dim V of a disk
# and of a sphere (odd).
MAX_GROUP_ORDER = 512
MAX_DISK_DIM = 10
MAX_SPHERE_DIM = 11


def random_group(rng):
    """Random primary decomposition with order <= MAX_GROUP_ORDER."""
    by_prime = {}
    order = 1
    for _ in range(rng.randrange(4) + 1):
        p = rng.choice((2, 2, 2, 3, 3, 5, 7))
        e = rng.randrange(3) + 1
        if order * p ** e > MAX_GROUP_ORDER:
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


def random_disk_model(rng):
    group = random_group(rng)
    target = rng.randrange(MAX_DISK_DIM) + 1
    return LinearActionModel(
        RealRepresentation(group, _random_summands(rng, group, target)), DISK
    )


def random_sphere_model(rng):
    group = random_group(rng)
    target = rng.choice(tuple(range(1, MAX_SPHERE_DIM + 1, 2)))  # odd dim V
    return LinearActionModel(
        RealRepresentation(group, _random_summands(rng, group, target)), SPHERE
    )


def _sweep_count(scale):
    return 1000 if scale == "small" else 2000


# -- corpus suites ----------------------------------------------------------


def _suite_smith(seed, scale):
    """Smith's bound sum_j b_j(X^H; F_p) <= sum_j b_j(X; F_p) for every
    subgroup H of every p-group corpus action, X^H read as K_H on the root."""
    for entry in corpus_actions():
        root = entry.action.root
        group = root.group
        if not group.is_p_group() or group.order == 1:
            continue
        p = group.primary_decomposition[0][0]
        profile = homology(root.space, primes=(p,))
        total = profile.total_betti_mod(p)
        for sub in all_subgroups(group):
            fx = fixed_subcomplex(root, sub)
            fx_total = homology(fx, primes=(p,)).total_betti_mod(p)
            yield CaseResult(
                f"{entry.name}/index-{sub.index}",
                fx_total <= total,
                {"fixed_total": fx_total, "space_total": total, "p": p},
            )


def _suite_lefschetz(seed, scale):
    """L(g) = chi(X^<g>) for every element of every corpus action.

    Two routes on the root action (for ``z2-swap-subdivided-edge`` the
    swap of an edge, which is not good): Hopf's signed trace
    (``lefschetz_number``) and chi of K_<g> (``fixed_subcomplex``).
    """
    for entry in corpus_actions():
        root = entry.action.root
        for g in root.group.elements():
            fx = fixed_subcomplex(root, Subgroup.cyclic(g))
            chi = fx.euler_characteristic()
            trace = lefschetz_number(root, g)
            yield CaseResult(
                f"{entry.name}/g{list(g.residues)}",
                chi == trace,
                {"chi_fixed": chi, "trace": trace},
            )


def _suite_divisibility(seed, scale):
    for entry in corpus_actions():
        group = entry.action.group
        if not group.is_p_group() or group.order == 1:
            continue
        p = group.primary_decomposition[0][0]
        mu = entry.metadata["mu"]
        gamma_chi, bound = gamma_chi_subgroup(entry.action, mu, verify=False)
        # The bound is p^(n mu): n is read off it, not off a second homology.
        n = dict(factorize(bound)).get(p, 0) // mu
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
        # Row i of a signed permutation matrix is signs[i] * e_perm[i]: the
        # matrices share these 2n signed unit rows.
        units = {
            (s, j): tuple(s if i == j else 0 for i in range(n))
            for s in (1, -1)
            for j in range(n)
        }
        mats = [
            tuple(map(units.__getitem__, zip(signs, perm)))
            for perm in itertools.permutations(range(n))
            for signs in itertools.product((1, -1), repeat=n)
        ]
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
            stable_everywhere = True
            for p in model.group.primes():
                start = p_part(model.group, p)
                stable, steps = descent_to_stable(model, lam, start=start)
                stable_everywhere = stable_everywhere and not steps
                bound = chain_bound(model.dim_space, model.total_betti())
                if not (
                    len(steps) < bound
                    and stable.index <= start.index * lam ** len(steps)
                ):
                    ok = False
                    details["violation"] = {"p": p, "steps": len(steps)}
            # A disk model's p-part is lambda-stable exactly when its descent
            # takes no step: the first normal character violates if any does.
            if stable_everywhere:
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
            if large_primes and result.subgroup != Subgroup.whole(model.group):
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
SUITE_NAMES = tuple(_RUNNERS)
