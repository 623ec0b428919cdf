"""The four benchmark workloads: seeded inputs, timed items and their oracles.

A workload builds its inputs in ``setup`` from the seed alone, then
``items`` lists the timed calls into ``aft``.  Each item pairs a call with
a check that compares the result against ``oracles`` (textbook formulas
and known topology) or against values frozen in ``reference.json``.  Calls
go through module attributes (``groups.all_subgroups``, not a local
alias) so that the tracer's patches see them.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from pathlib import Path
from typing import Callable, NamedTuple

from aft import actions, cli, corpus, groups, linear, simplicial, suites

from oracles import (
    character_trivial_on,
    digest,
    elementary_subgroup_count,
    f_value,
    subdivided_f_vector,
    subgroup_count,
)

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Item(NamedTuple):
    """One timed call; ``check`` returns None when the result is right."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class PassResult(NamedTuple):
    wall_s: float  # scaled by the calibration, if any, like latencies_s
    latencies_s: list
    raw_wall_s: float
    failed: int
    errors: list


def run_pass(items, tracer=None, min_sample_s=0.0, calibration=None):
    """Run every item once; failures are counted, never raised.

    An item faster than ``min_sample_s`` is called again until that much
    time has passed, and its latency is the mean time per call: one short
    call is too brief a sample on a host whose speed varies from moment
    to moment.  With a running ``calibration`` the latencies leave out its
    samples and are scaled to the reference host speed.  ``wall_s`` is the
    sum of the latencies, the time of one pass with one call per item.
    Garbage left by earlier work is collected first, so that each pass
    starts from the same heap.
    """
    gc.collect()
    raw = []
    intervals = []
    errors = []
    for item in items:
        if tracer is not None:
            tracer.item = item.name
        sampled_before = calibration.interrupted_s if calibration else 0.0
        calls = 0
        t0 = time.perf_counter()
        try:
            value = item.call()
            calls = 1
            while time.perf_counter() - t0 < min_sample_s:
                item.call()
                calls += 1
        except Exception as exc:  # an item that raises is a failed item
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            reason = None
        t1 = time.perf_counter()
        sampled = (calibration.interrupted_s if calibration else 0.0) - sampled_before
        raw.append((t1 - t0 - sampled) / max(calls, 1))
        intervals.append((t0, t1))
        if reason is None:
            try:
                reason = item.check(value)
            except Exception as exc:  # a malformed result fails its oracle
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            errors.append(f"{item.name}: {reason}")
    latencies = raw
    if calibration is not None:
        latencies = [r * calibration.scale(*span) for r, span in zip(raw, intervals)]
    return PassResult(sum(latencies), latencies, sum(raw), len(errors), errors)


def _mismatch(label, got, want):
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


def _first_problem(*problems):
    return next((p for p in problems if p), None)


# -- homology-ladder ---------------------------------------------------------

# Known homology of the base spaces; subdivision and relabelling keep it.
BASE_SPACES = {
    "octahedron": {
        "build": corpus.octahedron,
        "f_vector": (6, 12, 8),
        "betti_Z": [(1, []), (0, []), (1, [])],
        "betti_mod_p": {"2": [1, 0, 1], "3": [1, 0, 1], "5": [1, 0, 1]},
        "euler": 2,
    },
    "projective-plane": {
        "build": corpus.projective_plane,
        "f_vector": (6, 15, 10),
        "betti_Z": [(1, []), (0, [2]), (0, [])],
        "betti_mod_p": {"2": [1, 1, 1], "3": [1, 0, 0], "5": [1, 0, 0]},
        "euler": 1,
    },
    "boundary-4-simplex": {
        "build": lambda: corpus.boundary_simplex(4),
        "f_vector": (5, 10, 10, 5),
        "betti_Z": [(1, []), (0, []), (0, []), (1, [])],
        "betti_mod_p": {"2": [1, 0, 0, 1], "3": [1, 0, 0, 1], "5": [1, 0, 0, 1]},
        "euler": 0,
    },
}

# Base space and its deepest subdivision: sd^0 .. sd^top of each, from 26
# to 12,600 simplices.
HOMOLOGY_LADDER = (("octahedron", 3), ("projective-plane", 3), ("boundary-4-simplex", 2))


class HomologyLadder:
    """``aft analyze --primes 2,3,5`` on subdivided, relabelled complexes."""

    name = "homology-ladder"
    min_sample_s = 0.25

    def __init__(self):
        self.paths = []

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for base, top in HOMOLOGY_LADDER:
            cx = BASE_SPACES[base]["build"]()
            for level in range(top + 1):
                ids = list(range(len(cx.vertices)))
                rng.shuffle(ids)
                relabel = dict(zip(cx.vertices, ids))
                data = {
                    "maximal_simplices": [
                        [relabel[v] for v in s] for s in cx.maximal_simplices()
                    ]
                }
                path = workdir / f"{base}-sd{level}.json"
                path.write_text(json.dumps(data))
                self.paths.append((base, level, path))
                if level < top:
                    cx = simplicial.barycentric_subdivision(cx)

    def items(self):
        return [self._item(base, level, path) for base, level, path in self.paths]

    @staticmethod
    def _item(base, level, path):
        out = path.with_suffix(".out")

        def call():
            code = cli.main(["analyze", str(path), "--primes", "2,3,5", "--out", str(out)])
            with open(out) as fh:
                return code, json.load(fh)

        def check(value):
            code, payload = value
            want = BASE_SPACES[base]
            counts = subdivided_f_vector(want["f_vector"], level)
            hom = payload["homology"]
            return _first_problem(
                _mismatch("exit code", code, 0),
                _mismatch(
                    "simplex counts",
                    payload["simplex_counts"],
                    {str(d): c for d, c in enumerate(counts)},
                ),
                _mismatch(
                    "betti_Z",
                    [(b["rank"], b["torsion"]) for b in hom["betti_Z"]],
                    want["betti_Z"],
                ),
                _mismatch("betti_mod_p", hom["betti_mod_p"], want["betti_mod_p"]),
                _mismatch("euler", hom["euler"], want["euler"]),
            )

        return Item(f"{base}-sd{level}", call, check)


# -- linear-sweep ------------------------------------------------------------

SWEEP_MODELS = 2000


def _rep_dim(model):
    return sum(2 if s.kind == linear.ROTATION else 1 for s in model.rep.summands)


def _fixed_dim(model, subgroup):
    """dim V^H from the summand characters and the generators of H."""
    orders = model.group.factor_orders
    gens = [g.residues for g in subgroup.basis_elements()]
    total = 0
    for s in model.rep.summands:
        if s.kind == linear.TRIVIAL:
            total += 1
        elif all(character_trivial_on(s.character.exponents, orders, g) for g in gens):
            total += 2 if s.kind == linear.ROTATION else 1
    return total


def _without_primes(order, p):
    while order % p == 0:
        order //= p
    return order


class LinearSweep:
    """Descent, disk and sphere theorems on seeded random linear models."""

    name = "linear-sweep"
    min_sample_s = 0.0  # 6,000 models per pass give the percentiles their samples

    def __init__(self, reference=None):
        self.reference = load_reference()[self.name] if reference is None else reference
        self.seed = None
        self.disks = []
        self.spheres = []

    def setup(self, seed, workdir):
        self.seed = seed
        self.disks = [
            suites.random_disk_model(suites.split_rng(seed, i)) for i in range(SWEEP_MODELS)
        ]
        self.spheres = [
            suites.random_sphere_model(suites.split_rng(seed, i)) for i in range(SWEEP_MODELS)
        ]

    def plan(self):
        """(item name, model, call, oracle) in item order."""
        return (
            [(f"descent-{i}", m, self._descent, self._check_descent) for i, m in enumerate(self.disks)]
            + [(f"disk-{i}", m, self._disk, self._check_disk) for i, m in enumerate(self.disks)]
            + [(f"sphere-{i}", m, self._sphere, self._check_sphere) for i, m in enumerate(self.spheres)]
        )

    def items(self):
        frozen = None
        if self.seed == self.reference["seed"]:
            frozen = self.reference["item_digests"]
        return [
            self._item(name, model, run, oracle, frozen and frozen[8 * i: 8 * i + 8])
            for i, (name, model, run, oracle) in enumerate(self.plan())
        ]

    @staticmethod
    def _item(name, model, run, oracle, frozen):
        def check(value):
            summary, problem = oracle(model, value)
            if problem is None and frozen:
                problem = _mismatch("result digest", digest(summary, 8), frozen)
            return problem

        return Item(name, lambda: run(model), check)

    @staticmethod
    def _descent(model):
        lam = _rep_dim(model)  # chi(disk) * dim
        runs = []
        for p in model.group.primes():
            start = groups.p_part(model.group, p)
            stable, steps = linear.descent_to_stable(model, lam, start=start)
            runs.append((p, len(steps), stable))
        generic = None
        if linear.is_lambda_stable(model, lam):
            generic = linear.generic_element(model, lam)
        return runs, generic

    @staticmethod
    def _check_descent(model, value):
        runs, generic = value
        m = lam = _rep_dim(model)
        chain = math.comb(m + 1 + 1, m + 1)  # C(m+k+1, m+1) with k = 1
        problem = None
        for p, steps, stable in runs:
            start_index = _without_primes(model.group.order, p)
            if steps >= chain:
                problem = problem or f"p={p}: {steps} steps, chain bound {chain}"
            if stable.index > start_index * lam ** steps:
                problem = problem or f"p={p}: index {stable.index} > {start_index}*{lam}^{steps}"
        summary = [
            [[p, steps, [list(r) for r in stable.canonical_basis]] for p, steps, stable in runs],
            None if generic is None else list(generic.residues),
        ]
        return summary, problem

    @staticmethod
    def _disk(model):
        return linear.disk_theorem(model)

    @staticmethod
    def _check_disk(model, result):
        bound = f_value((_rep_dim(model) - 3) // 2)
        problem = _first_problem(
            _mismatch("index", result.index, model.group.order // result.subgroup.order),
            None if bound % result.index == 0 else f"index {result.index} does not divide f = {bound}",
            _mismatch("chi of fixed set", result.chi, 1),
        )
        return result.to_json(), problem

    @staticmethod
    def _sphere(model):
        return linear.sphere_theorem(model)

    @staticmethod
    def _check_sphere(model, result):
        m = (_rep_dim(model) - 1) // 2
        bound = 2 ** (m + 1) * f_value(m - 1)
        fixed = _fixed_dim(model, result.subgroup)
        problem = _first_problem(
            _mismatch("index", result.index, model.group.order // result.subgroup.order),
            None if bound % result.index == 0 else f"index {result.index} does not divide {bound}",
            None if fixed >= 1 else "fewer than 2 fixed points",
        )
        return result.to_json(), problem


# -- subgroup-lattice --------------------------------------------------------

SUBGROUP_LADDER = tuple(
    [(f"Z2^{k}", [(2, [1] * k)]) for k in range(1, 7)]
    + [("Z4^3", [(2, [2, 2, 2])]), ("Z8+Z4+Z2", [(2, [3, 2, 1])]), ("Z3^3", [(3, [1, 1, 1])])]
)


def _index_p_generators(group, p, rng):
    """Generators of the kernel of a seeded functional G -> Z/p.

    The functional is nonzero on the last, smallest cyclic factor, so the
    kernel has the same isomorphism type, and costs the same, for every
    seed.
    """
    rank = group.rank
    coeffs = [rng.randrange(p) for _ in range(rank - 1)] + [1 + rng.randrange(p - 1)]
    j = rank - 1
    inv = pow(coeffs[j], -1, p)
    gens = []
    for i in range(rank):
        row = [0] * rank
        if i == j:
            row[j] = p
        else:
            row[i] = 1
            row[j] = (-coeffs[i] * inv) % p
        gens.append(row)
    return gens


class SubgroupLattice:
    """``all_subgroups`` over the group ladder, and ``subgroups_of`` on H."""

    name = "subgroup-lattice"
    min_sample_s = 0.5  # its median item takes about 17 ms

    def __init__(self, reference=None, ladder=SUBGROUP_LADDER):
        self.reference = load_reference()[self.name] if reference is None else reference
        self.ladder = ladder
        self.cases = []

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.cases = []
        for name, primary in self.ladder:
            group = groups.FiniteAbelianGroup(primary)
            (p, _), = primary
            rows = _index_p_generators(group, p, rng)
            sub = groups.Subgroup(group, [group.element(r) for r in rows])
            self.cases.append((name, group, p, sub))

    def items(self):
        out = []
        for name, group, p, sub in self.cases:
            out.append(self._all_item(name, group))
            out.append(self._sub_item(name, group, p, sub))
        return out

    def _all_item(self, name, group):
        frozen = self.reference[name]

        def check(count):
            want = subgroup_count(group.factor_orders)
            (p, exps), = group.primary_decomposition
            if set(exps) == {1}:
                want_elementary = elementary_subgroup_count(len(exps), p)
                if want_elementary != want:
                    return f"oracles disagree: {want_elementary} != {want}"
            return _first_problem(
                _mismatch("subgroup count", count, want),
                _mismatch("frozen subgroup count", count, frozen),
            )

        return Item(f"all:{name}", lambda: len(groups.all_subgroups(group)), check)

    @staticmethod
    def _sub_item(name, group, p, sub):
        def call():
            factors = sub.invariant_factors()
            as_group = groups.FiniteAbelianGroup.from_cyclic_orders(factors)
            return (
                len(groups.subgroups_of(sub)),
                len(groups.all_subgroups(as_group)),
                sub.order,
                factors,
            )

        def check(value):
            inside, standalone, order, factors = value
            return _first_problem(
                _mismatch("|H|", order, group.order // p),
                _mismatch("product of invariant factors", math.prod(factors), order),
                _mismatch("subgroups_of(H) vs all_subgroups(G_H)", inside, standalone),
                _mismatch("subgroups of H", inside, subgroup_count(factors)),
            )

        return Item(f"sub:{name}", call, check)


# -- pipeline-certify --------------------------------------------------------

CORPUS_SUITES = ("smith", "lefschetz", "divisibility", "chain-bound", "minkowski", "pipeline")


def suite_digest(payload):
    """Digest of a suite report without its timing and seed fields.

    The corpus suites ignore the seed, so one frozen digest covers every
    seed.
    """
    return digest({k: v for k, v in payload.items() if k not in ("seed", "wall_time_seconds")})


# chi of the fixed set of each element, by residues: the antipodal map of
# S^2 fixes nothing, a half-turn fixes two poles, and a reflection fixes
# an equatorial circle.
OCTAHEDRON_ACTIONS = {
    "z2-antipodal-octahedron": {(0,): 2, (1,): 0},
    "z2xz2-octahedron": {(0, 0): 2, (0, 1): 2, (1, 0): 0, (1, 1): 0},
}
SUBDIVISIONS = 3
OCTAHEDRON_F_VECTOR = (6, 12, 8)
SPHERE_MOD2_BETTI_TOTAL = 2


class PipelineCertify:
    """Corpus suites through the CLI, and the paper's argument on sd^3 actions."""

    name = "pipeline-certify"
    min_sample_s = 0.25

    def __init__(self):
        self.reference = load_reference()[self.name]
        self.seed = None
        self.workdir = None
        self.bases = []

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.workdir = workdir
        self.bases = []
        for name in OCTAHEDRON_ACTIONS:
            entry = corpus.corpus_entry(name)
            action = entry.action
            ids = list(range(len(action.space.vertices)))
            rng.shuffle(ids)
            relabel = dict(zip(action.space.vertices, ids))
            space = simplicial.build_complex(
                [tuple(relabel[v] for v in s) for s in action.space.maximal_simplices()]
            )
            perms = [
                {relabel[v]: relabel[image] for v, image in perm.items()}
                for perm in action.vertex_images
            ]
            base = actions.SimplicialAction(action.group, space, perms)
            self.bases.append((entry, base))

    def items(self):
        out = [self._suite_item(suite) for suite in CORPUS_SUITES]
        for entry, base in self.bases:
            out.extend(self._action_items(entry, base))
        return out

    def _suite_item(self, suite):
        out = self.workdir / f"{suite}.out"
        argv = ["verify", "--suite", suite, "--seed", str(self.seed), "--scale", "small",
                "--out", str(out)]
        frozen = self.reference[suite]

        def call():
            code = cli.main(argv)
            with open(out) as fh:
                return code, json.load(fh)

        def check(value):
            code, payload = value
            return _first_problem(
                _mismatch("exit code", code, 0),
                _mismatch("passed", payload.get("passed"), True),
                _mismatch("report digest", suite_digest(payload), frozen),
            )

        return Item(f"suite:{suite}", call, check)

    @staticmethod
    def _action_items(entry, base):
        name = entry.name
        group = base.group
        expected_chi = OCTAHEDRON_ACTIONS[name]
        (p, _), = group.primary_decomposition
        mu = entry.metadata["mu"]
        n = 0
        while p ** (n + 1) <= 2 * SPHERE_MOD2_BETTI_TOTAL:
            n += 1
        state = {}

        def subdivide():
            action = base
            for _ in range(SUBDIVISIONS):
                action = actions.subdivide_action(action)
            state["action"] = action
            return action.space.num_simplices(), actions.validate_good(action).is_good

        def check_subdivide(value):
            size, good = value
            want = sum(subdivided_f_vector(OCTAHEDRON_F_VECTOR, SUBDIVISIONS))
            return _first_problem(_mismatch("simplices", size, want), _mismatch("good", good, True))

        def fixed_sets():
            action = state["action"]
            out = []
            for g in group.elements():
                fixed = actions.fixed_subcomplex(action, groups.Subgroup.cyclic(g))
                out.append((g.residues, fixed.euler_characteristic(),
                            actions.lefschetz_number(action, g)))
            return out

        def check_fixed_sets(rows):
            got = {residues: (chi, trace) for residues, chi, trace in rows}
            want = {residues: (chi, chi) for residues, chi in expected_chi.items()}
            return _mismatch("(chi of fixed set, trace) by element", got, want)

        def divisibility():
            action = state["action"]
            sub, bound = actions.gamma_chi_subgroup(action, mu, verify=True)
            verdict = actions.chi_defect_divisibility(action, sub, n)
            return sub.order, bound, verdict.status

        def check_divisibility(value):
            # Faithful elementary abelian action: the p^n-th powers are trivial.
            return _mismatch("(|Gamma_chi|, bound, status)", value, (1, p ** (n * mu), "divisible"))

        def pipeline():
            entry_sd = corpus.CorpusEntry(
                f"{name}-sd{SUBDIVISIONS}", "action", action=state["action"],
                metadata=entry.metadata,
            )
            return suites.pipeline(entry_sd)

        def check_pipeline(report):
            return _first_problem(
                _mismatch("passed", report["passed"], True),
                _mismatch("index", report["index"], group.order),
            )

        return [
            Item(f"{name}/subdivide", subdivide, check_subdivide),
            Item(f"{name}/fixed-sets", fixed_sets, check_fixed_sets),
            Item(f"{name}/gamma-chi", divisibility, check_divisibility),
            Item(f"{name}/pipeline", pipeline, check_pipeline),
        ]


WORKLOADS = {
    cls.name: cls for cls in (HomologyLadder, LinearSweep, SubgroupLattice, PipelineCertify)
}
