"""Oracle failures are counted per item, and the oracles agree with brute force."""

import itertools
import json
from pathlib import Path

import pytest

from aft import bounds

import oracles
import run
from tracer import metric_units
from workloads import Item, SubgroupLattice, run_pass


def test_wrong_expected_count_is_one_failed_item():
    ladder = (("Z2^2", [(2, [1, 1])]), ("Z3^2", [(3, [1, 1])]))
    # (Z/2)^2 has 5 subgroups, not 6; (Z/3)^2 has 6.
    workload = SubgroupLattice(reference={"Z2^2": 6, "Z3^2": 6}, ladder=ladder)
    workload.setup(seed=1, workdir=None)
    result = run_pass(workload.items())
    assert len(result.latencies_s) == 4
    assert result.failed == 1
    assert result.errors[0].startswith("all:Z2^2: frozen subgroup count: got 5, want 6")


def test_raising_item_is_counted_and_the_pass_continues():
    items = [
        Item("raises", lambda: 1 // 0, lambda value: None),
        Item("fine", lambda: 2, lambda value: None if value == 2 else "wrong"),
    ]
    result = run_pass(items)
    assert (len(result.latencies_s), result.failed) == (2, 1)
    assert result.errors == ["raises: raised ZeroDivisionError: integer division or modulo by zero"]


def test_short_items_are_repeated_and_timed_per_call():
    calls = []
    items = [Item("short", lambda: calls.append(1), lambda value: None)]
    result = run_pass(items, min_sample_s=0.01)
    assert len(calls) > 1
    assert result.raw_wall_s < 0.01
    assert result.wall_s == result.latencies_s[0]


def _brute_force_subgroups(orders):
    elements = list(itertools.product(*(range(m) for m in orders)))

    def closure(gens):
        seen = {tuple(0 for _ in orders)}
        frontier = list(seen)
        while frontier:
            frontier = [
                y
                for x in frontier
                for g in gens
                for y in [tuple((a + b) % m for a, b, m in zip(x, g, orders))]
                if y not in seen and not seen.add(y)
            ]
        return frozenset(seen)

    return len({closure(gens) for gens in itertools.combinations_with_replacement(elements, len(orders))})


@pytest.mark.parametrize("orders", [(4, 2), (4, 4), (8, 2), (9, 3), (2, 2, 2), (6,), (12, 2)])
def test_subgroup_count_formula_matches_brute_force(orders):
    assert oracles.subgroup_count(orders) == _brute_force_subgroups(orders)


def test_elementary_counts_and_f_agree_with_known_values():
    assert [oracles.elementary_subgroup_count(k, 2) for k in range(1, 7)] == [2, 5, 16, 67, 374, 2825]
    assert oracles.elementary_subgroup_count(3, 3) == 28
    assert [oracles.f_value(k) for k in range(-1, 30)] == [bounds.f(k) for k in range(-1, 30)]
    assert sum(oracles.subdivided_f_vector((5, 10, 10, 5), 2)) == 12600


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
