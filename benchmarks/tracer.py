"""Span tracer that wraps public ``aft`` functions from outside the library.

``Tracer.install`` replaces every alias of each traced function object in
the ``aft.*`` module namespaces (and methods on their class) with a timing
wrapper; ``uninstall`` puts the original objects back, so an untraced run
carries no wrapper.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import sys
import time

# (layer, module, qualified name).  The metric prefix is "<layer>.<name>".
TARGETS = (
    ("integermat", "aft.integermat", "rank_mod_p"),
    ("integermat", "aft.integermat", "smith_diagonal"),
    ("integermat", "aft.integermat", "hermite_normal_form"),
    ("integermat", "aft.integermat", "kernel_basis"),
    ("simplicial", "aft.simplicial", "homology"),
    ("simplicial", "aft.simplicial", "barycentric_subdivision"),
    ("simplicial", "aft.simplicial", "build_complex"),
    ("simplicial", "aft.simplicial", "boundary_entries"),
    ("groups", "aft.groups", "all_subgroups"),
    ("groups", "aft.groups", "subgroups_of"),
    ("groups", "aft.groups", "Subgroup.join"),
    ("groups", "aft.groups", "Subgroup.elements"),
    ("groups", "aft.groups", "Character.rotation"),
    ("groups", "aft.groups", "intersect"),
    ("groups", "aft.groups", "kernel"),
    ("linear", "aft.linear", "descent_to_stable"),
    ("linear", "aft.linear", "disk_theorem"),
    ("linear", "aft.linear", "sphere_theorem"),
    ("linear", "aft.linear", "generic_element"),
    ("linear", "aft.linear", "normal_characters"),
    ("actions", "aft.actions", "subdivide_action"),
    ("actions", "aft.actions", "validate_good"),
    ("actions", "aft.actions", "fixed_subcomplex"),
    ("actions", "aft.actions", "lefschetz_number"),
    ("actions", "aft.actions", "chi_defect_divisibility"),
    ("actions", "aft.actions", "gamma_chi_subgroup"),
    ("bounds", "aft.bounds", "minkowski_injectivity_check"),
    ("bounds", "aft.bounds", "cohomology_trivializing_subgroup"),
    ("bounds", "aft.bounds", "composite_bound"),
    ("bounds", "aft.bounds", "f"),
    ("corpus", "aft.corpus", "load_corpus"),
    ("suites", "aft.suites", "pipeline"),
    ("suites", "aft.suites", "run_suite"),
    ("cli", "aft.cli", "main"),
)

FUNCTION_KEYS = tuple(f"{layer}.{name}" for layer, _, name in TARGETS)

# Work counts recorded at the same boundaries by ``HOOKS``.
COUNT_KEYS = (
    "integermat.rank_mod_p.entries",
    "integermat.smith_diagonal.entries",
    "simplicial.homology.simplices",
    "groups.subgroups.found",
    "linear.descent.steps",
    "bounds.minkowski.products_computed",
)

RATIO_KEYS = ("groups.join_useful_ratio", "actions.validate_good.distinct_ratio", "trace.overhead_ratio")

# Spans beyond this many are counted in the aggregates but not kept, so a
# pass with millions of leaf calls stays within a small memory budget.
SPAN_CAP = 100_000


def _nonzeros(entries):
    return sum(1 for v in entries.values() if v)


def _count(key, amount_of):
    """Hook adding ``amount_of(args, result)`` to counter ``key``."""
    def hook(tracer, args, result):
        tracer.counts[key] = tracer.counts.get(key, 0) + amount_of(args, result)
    return hook


def _distinct_action(tracer, args, result):
    # Keep the action alive so its id is never reused within the run.
    tracer.validated[id(args[0])] = args[0]


HOOKS = {
    "integermat.rank_mod_p": _count(
        "integermat.rank_mod_p.entries", lambda a, r: _nonzeros(a[0])
    ),
    "integermat.smith_diagonal": _count(
        "integermat.smith_diagonal.entries", lambda a, r: _nonzeros(a[0])
    ),
    "simplicial.homology": _count(
        "simplicial.homology.simplices", lambda a, r: a[0].num_simplices()
    ),
    "groups.all_subgroups": _count("groups.subgroups.found", lambda a, r: len(r)),
    "groups.subgroups_of": _count("groups.subgroups.found", lambda a, r: len(r)),
    "linear.descent_to_stable": _count("linear.descent.steps", lambda a, r: len(r[1])),
    "actions.validate_good": _distinct_action,
    "bounds.minkowski_injectivity_check": _count(
        "bounds.minkowski.products_computed",
        lambda a, r: len({tuple(map(tuple, m)) for m in a[0]}) ** 2,
    ),
}


def _aft_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "aft" or name.startswith("aft."))
    ]


def metric_units():
    """Unit of every per-layer metric a traced run reports, by name."""
    units = {}
    for key in FUNCTION_KEYS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    units.update({key: "count" for key in COUNT_KEYS})
    units.update({key: "ratio" for key in RATIO_KEYS})
    return units


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = None
        self.spans = []  # (id, parent id, item, key, start, end)
        self.span_count = 0
        self.calls = {key: 0 for key in FUNCTION_KEYS}
        self.self_s = {key: 0.0 for key in FUNCTION_KEYS}
        self.item_inclusive = {}  # (item, key) -> seconds, outermost calls only
        self.counts = {}
        self.validated = {}
        self._stack = []  # [span id, key, child seconds]
        self._active = {key: 0 for key in FUNCTION_KEYS}
        self._patches = []  # (namespace object, attribute, original)

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _aft_modules()
        for layer, module_name, name in TARGETS:
            key = f"{layer}.{name}"
            module = sys.modules[module_name]
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(key, original))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def patched_names(self):
        """(namespace, attribute, original object) for every live patch."""
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, key, original):
        tracer = self
        stack = self._stack
        hook = HOOKS.get(key)
        clock = self.clock

        def traced(*args, **kwargs):
            span_id = tracer.span_count
            tracer.span_count += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, key, 0.0]
            stack.append(frame)
            tracer._active[key] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._active[key] -= 1
                tracer._close(span_id, parent, key, start, end, frame[2])
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", key)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _close(self, span_id, parent, key, start, end, child_s):
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[key] += 1
        self.self_s[key] += duration - child_s
        if not self._active[key]:
            slot = (self.item, key)
            self.item_inclusive[slot] = self.item_inclusive.get(slot, 0.0) + duration
        if span_id < SPAN_CAP:
            self.spans.append((span_id, parent, self.item, key, start, end))

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer calls, self seconds, counts and ratios, by metric name.

        ``trace.overhead_ratio`` needs an untraced pass and is added by the
        caller.
        """
        out = {}
        for key in FUNCTION_KEYS:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for key in COUNT_KEYS:
            out[key] = self.counts.get(key, 0)
        joins = self.calls["groups.Subgroup.join"]
        found = self.counts.get("groups.subgroups.found", 0)
        out["groups.join_useful_ratio"] = found / joins if joins else 0.0
        validations = self.calls["actions.validate_good"]
        out["actions.validate_good.distinct_ratio"] = (
            len(self.validated) / validations if validations else 0.0
        )
        return out

    def write_spans(self, path):
        """Tab-separated spans: id, parent, item, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\titem\tname\tstart_s\tend_s\n")
            for span_id, parent, item, key, start, end in sorted(self.spans):
                fh.write(f"{span_id}\t{parent}\t{item}\t{key}\t{start:.9f}\t{end:.9f}\n")
