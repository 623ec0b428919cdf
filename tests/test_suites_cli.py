"""Suite runner determinism, pipeline contract, CLI exit codes."""

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aft
import aft.bounds
import aft.integermat
import aft.linear
import aft.pipeline
import aft.simplicial
from aft.actions import SimplicialAction
from aft.cli import main
from aft.corpus import CorpusEntry, corpus_entry, load_corpus, simplex
from aft.bounds import BoundsConfig, C_lambda_factors, chain_bound, composite_bound
from aft.groups import Character, FiniteAbelianGroup, Subgroup
from aft.linear import (
    SIGN,
    SPHERE,
    TRIVIAL,
    LinearActionModel,
    RealRepresentation,
    Summand,
)
from aft.pipeline import _bounds_config_for_action
from aft.simplicial import homology
from aft.suites import pipeline, run_suite


def test_pipeline_is_a_submodule_holding_the_suites_function():
    assert aft.suites.pipeline is pipeline is aft.pipeline.pipeline
    assert importlib.reload(aft.pipeline) is sys.modules["aft.pipeline"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")
    with pytest.raises(ValueError):
        run_suite("smith", scale="huge")


def test_reports_are_deterministic():
    def report(seed):
        payload = run_suite("descent", seed=seed).to_json()
        del payload["wall_time_seconds"]
        return json.dumps(payload, sort_keys=True)

    assert report(11) == report(11)
    assert report(11) != report(12)


def _descent_cases(monkeypatch, broken):
    """The first cases of the descent suite with ``broken(model, lam,
    start, stable, steps)`` in place of the descent's result."""
    real = aft.suites.descent_to_stable

    def descent(model, lam, start):
        return broken(model, lam, start, *real(model, lam, start))

    monkeypatch.setattr(aft.suites, "descent_to_stable", descent)
    return list(itertools.islice(aft.suites._suite_descent(1, "small"), 5))


def test_descent_suite_fails_a_descent_of_chain_bound_many_steps(monkeypatch):
    def too_long(model, lam, start, stable, steps):
        return stable, [None] * chain_bound(model.dim_space, model.total_betti())

    for case in _descent_cases(monkeypatch, too_long):
        assert not case.passed and "error" not in case.details
        # Disk models have total Betti number 1.
        assert case.details["violation"]["steps"] == chain_bound(case.details["dim"], 1)


def test_descent_suite_fails_an_index_above_start_times_lambda_to_the_steps(monkeypatch):
    # With no steps the bound is the start's index, and the trivial
    # subgroup's index |G| exceeds that of any nontrivial p-part.
    def too_deep(model, lam, start, stable, steps):
        return Subgroup.trivial_subgroup(model.group), []

    for case in _descent_cases(monkeypatch, too_deep):
        assert not case.passed and "error" not in case.details
        assert case.details["violation"]["steps"] == 0


def test_descent_suite_passes_its_first_cases_unchanged(monkeypatch):
    cases = _descent_cases(monkeypatch, lambda model, lam, start, stable, steps: (stable, steps))
    assert all(case.passed and "violation" not in case.details for case in cases)


def test_pipeline_trivial_action_keeps_whole_group():
    report = pipeline(corpus_entry("trivial-z2-on-triangle"))
    assert report["passed"]
    assert report["index"] == 1


def _trivial_group_on_triangle():
    return CorpusEntry(
        "trivial-group-on-triangle",
        "action",
        action=SimplicialAction(FiniteAbelianGroup([]), simplex(2), []),
        metadata={"mu": 1},
    )


def test_pipeline_runs_on_the_trivial_group():
    # The stage bound is 3^b with b = sum b_d^2 = 1 for the triangle.
    report = pipeline(_trivial_group_on_triangle())
    assert report["passed"]
    assert report["index"] == 1
    assert report["stages"][0] == {
        "stage": "cohomology-trivializing", "index": 1, "bound": 3
    }


def test_pipeline_rotation_disk_model():
    report = pipeline(corpus_entry("model-z3-rotation-disk"))
    assert report["passed"]
    assert report["index"] == 1
    assert report["component_checks"][0]["chi_fixed"] == 1


def test_pipeline_antipodal_sphere_model():
    report = pipeline(corpus_entry("model-z2-antipodal-sphere"))
    assert report["passed"]
    assert report["index"] == 2
    assert report["index"] <= report["composite_bound"]


@pytest.mark.parametrize("kind, index", [(SIGN, 2), (TRIVIAL, 1)], ids=[SIGN, TRIVIAL])
def test_pipeline_accepts_the_zero_sphere(kind, index):
    # Two points have H_0 = Z^2 and no odd cohomology: b = 4, so the
    # composite bound is 3^4 * C_0 = 81 * (4 * 3 * 1) = 972.  The trivial
    # summand puts Z/2 in the action kernel, which Gamma_chi takes, so A0
    # is the whole group, as for an action acting trivially.
    z2 = FiniteAbelianGroup([(2, [1])])
    summand = Summand(kind, Character(z2, (1,)) if kind == SIGN else None)
    model = LinearActionModel(RealRepresentation(z2, (summand,)), SPHERE)
    assert model.dim_space == 0 and model.betti() == (2,)
    report = pipeline(CorpusEntry("z2-on-s0", "model", model=model, metadata={"mu": 1}))
    assert report["passed"]
    assert (report["index"], report["composite_bound"]) == (index, 972)


def test_pipeline_rejects_odd_cohomology_entry():
    with pytest.raises(ValueError):
        pipeline(corpus_entry("z2-antipodal-hexagon"))


def test_pipeline_contract_on_corpus():
    for entry in load_corpus():
        if entry.kind == "complex" or not entry.metadata.get(
            "no_odd_cohomology"
        ):
            continue
        report = pipeline(entry)
        assert report["passed"], entry.name
        assert report["index"] <= report["composite_bound"]
        for check in report["component_checks"]:
            assert check["ok"]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_analyze(tmp_path, capsys):
    path = _write(
        tmp_path,
        "cx.json",
        {"maximal_simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
    )
    assert main(["analyze", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "aft/1"
    assert data["homology"]["euler"] == 2


def test_cli_action_check_good_and_bad(tmp_path, capsys):
    good = _write(
        tmp_path,
        "good.json",
        {
            "group": {"primary": [{"p": 2, "exponents": [1]}]},
            "complex": {
                "maximal_simplices": [[i, (i + 1) % 6] for i in range(6)]
            },
            "generator_images": [[3, 4, 5, 0, 1, 2]],
        },
    )
    assert main(["action", "check", good]) == 0
    bad = _write(
        tmp_path,
        "bad.json",
        {
            "group": {"primary": [{"p": 2, "exponents": [1]}]},
            "complex": {"maximal_simplices": [[0, 1]]},
            "generator_images": [[1, 0]],
        },
    )
    # Violation of goodness reports exit code 1.
    assert main(["action", "check", bad]) == 1
    out = capsys.readouterr().out
    assert '"is_good": false' in out


def test_cli_descent_refuses_a_group_beyond_the_enumeration_cap(tmp_path, capsys):
    # An even sphere of (Z/2)^13, order 8192: the chi check of the descent
    # would enumerate its subgroups, so nothing is checked and it exits 2.
    rank = 13
    signs = [
        {"kind": "sign", "character": [int(i == j) for j in range(rank)]}
        for i in range(2)
    ]
    path = _write(
        tmp_path,
        "model.json",
        {
            "group": {"primary": [{"p": 2, "exponents": [1] * rank}]},
            "shape": "sphere",
            "summands": signs + [{"kind": "trivial"}],
        },
    )
    assert main(["descent", path, "--lambda", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1"
    assert "exceeds the enumeration cap" in error["error"]


def test_cli_action_check_refuses_a_group_beyond_the_enumeration_cap(tmp_path, capsys):
    # The swap of an edge by Z/2^40: reading it would compose 2^40 powers
    # of the generator and walk 2^40 elements, so it exits 2 at once.
    path = _write(
        tmp_path,
        "action.json",
        {
            "group": {"primary": [{"p": 2, "exponents": [40]}]},
            "complex": {"maximal_simplices": [[0, 1]]},
            "generator_images": [[1, 0]],
        },
    )
    start = time.perf_counter()
    assert main(["action", "check", path]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1"
    assert "exceeds the enumeration cap" in error["error"]


def test_cli_descent(tmp_path, capsys):
    path = _write(
        tmp_path,
        "model.json",
        {
            "group": {"primary": [{"p": 2, "exponents": [2]}]},
            "shape": "disk",
            "summands": [
                {"kind": "rotation", "character": [1]},
                {"kind": "trivial"},
            ],
        },
    )
    assert main(["descent", path, "--lambda", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["per_prime"][0]["p"] == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["descent", "MODEL", "--lambda", "-1"], "--lambda"),
        (["bounds", "--table", "f", "--max-k", "-5"], "--max-k"),
    ],
    ids=["descent-lambda", "bounds-max-k"],
)
def test_cli_rejects_negative_arguments(tmp_path, capsys, argv, flag):
    model = _write(
        tmp_path,
        "model.json",
        {
            "group": {"primary": [{"p": 2, "exponents": [2]}]},
            "shape": "disk",
            "summands": [{"kind": "rotation", "character": [1]}],
        },
    )
    argv = [model if a == "MODEL" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1" and flag in error["error"]
    # Zero stays valid.
    assert main([a if a not in ("-1", "-5") else "0" for a in argv]) == 0


def test_cli_verify_and_out_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--suite",
            "chain-bound",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "aft/1"
    assert data["passed"] and data["cases_run"] == 91


DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
TETRAHEDRON_BOUNDARY = {"maximal_simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    aft.cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    complex_ = _write(tmp_path, "cx.json", TETRAHEDRON_BOUNDARY)
    assert main(["analyze", complex_]) == 0
    # aft, its five commands and `action check`.
    assert len(built) == 7
    assert main(["verify", "--suite", "chain-bound", "--seed", "5"]) == 0
    assert main(["bounds", "--table", "f", "--max-k", "3"]) == 0
    assert main(["action", "check", str(DEMO_DATA / "octahedron_antipodal.json")]) == 0
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert main(["analyze", complex_]) == 0
    assert len(built) == 7


def test_cli_out_file_does_not_leak_into_the_next_call(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "chain-bound", "--seed", "5"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out.read_text())
    for report in (printed, written):
        del report["wall_time_seconds"]
    assert printed == written


def test_cli_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    complex_ = _write(tmp_path, "cx.json", TETRAHEDRON_BOUNDARY)
    assert main(["analyze", complex_, "--primes", "2,3"]) == 0
    first = capsys.readouterr()
    assert main(["analyze", complex_, "--primes"]) == 2
    capsys.readouterr()
    assert main(["analyze", complex_, "--primes", "2,3"]) == 0
    assert capsys.readouterr() == first


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "aft: the following arguments are required: command"),
        (["bogus"], "aft: argument command: invalid choice: 'bogus'"),
        (["verify", "--suite", "nonsense"], "aft verify: argument --suite: invalid choice: 'nonsense'"),
        (["verify", "--suite", "smith", "--seed", "x"], "aft verify: argument --seed: invalid int value: 'x'"),
        (["descent", "model.json"], "aft descent: the following arguments are required: --lambda"),
        (["action"], "aft action: the following arguments are required: action_command"),
    ],
    ids=["no-command", "unknown-command", "unknown-suite", "seed-not-int", "descent-no-lambda",
         "action-no-subcommand"],
)
def test_cli_usage_errors_exit_2_with_one_json_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert set(error) == {"schema", "error"} and error["schema"] == "aft/1"
    assert error["error"].startswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["aft", "verify"])
def test_cli_help_prints_text_and_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: aft") and captured.err == ""


def test_cli_bounds(tmp_path, capsys):
    path = _write(
        tmp_path,
        "cfg.json",
        {
            "dim": 2,
            "betti_Z": [1, 0, 1],
            "betti_mod_p": {"2": [1, 0, 1]},
            "torsion_primes": [],
            "mu": 1,
        },
    )
    assert main(["bounds", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["constants"]["P_chi"] == 5

    assert main(["bounds", "--table", "f", "--max-k", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"]["6"] == 2880


def test_cli_bounds_prints_a_bound_too_long_for_str_as_factors(tmp_path, capsys):
    # S^20: the composite bound has about 4,870 decimal digits, past the
    # interpreter's 4,300-digit limit on str(int), where aft bounds exited
    # 1 with a ValueError.  Both long constants print as null with their
    # exponent maps, which multiply back to the integers.
    config = {
        "dim": 20,
        "betti_Z": [1] + [0] * 19 + [1],
        "betti_mod_p": {},
        "torsion_primes": [],
        "mu": 2,
    }
    assert main(["bounds", _write(tmp_path, "s20.json", config)]) == 0
    data = json.loads(capsys.readouterr().out)["constants"]
    assert data["composite_bound"] is None and data["C_lambda"] is None
    cfg = BoundsConfig.from_json(config)

    def product(factors):
        return math.prod(int(p) ** e for p, e in factors.items())

    assert product(data["composite_bound_factors"]) == composite_bound(cfg)
    assert product(data["C_lambda_factors"]) == product(
        C_lambda_factors(data["lambda_chi"], cfg)
    )
    assert data["composite_bound_factors"] == {"2": 9112, "3": 4, "5": 3036}


def test_cli_bounds_never_builds_a_constant_too_long_to_print(tmp_path, capsys, monkeypatch):
    # S^400: C_lambda and the composite bound have tens of millions of
    # decimal digits.  Their exponent maps show that str cannot write
    # them, so neither is multiplied out; aft bounds took 31.6 s doing it.
    config = {
        "dim": 400,
        "betti_Z": [1] + [0] * 399 + [1],
        "betti_mod_p": {},
        "torsion_primes": [],
        "mu": 2,
    }
    built = []
    product = aft.bounds._product

    def spy(factors):
        built.append(dict(factors))
        return product(factors)

    monkeypatch.setattr(aft.bounds, "_product", spy)
    assert main(["bounds", _write(tmp_path, "s400.json", config)]) == 0
    data = json.loads(capsys.readouterr().out)["constants"]
    assert data["composite_bound"] is None and data["C_lambda"] is None
    assert data["composite_bound_factors"] == {"2": 56297089, "3": 4, "5": 22518834}
    long_maps = [
        {int(p): e for p, e in data[f"{name}_factors"].items()}
        for name in ("C_lambda", "composite_bound")
    ]
    assert built and not [factors for factors in built if factors in long_maps]


def test_cli_f_table_prints_values_too_long_for_str_as_factors(capsys):
    # f(1639) is the first value with more than 4,300 decimal digits, where
    # the table exited 1 with a ValueError.  From there each value prints
    # as null beside its exponent map under "factors".
    assert main(["bounds", "--table", "f", "--max-k", "1700"]) == 0
    data = json.loads(capsys.readouterr().out)
    too_long = [str(k) for k in range(1639, 1701)]
    assert [k for k, value in data["values"].items() if value is None] == too_long
    assert list(data["factors"]) == too_long
    assert data["values"]["6"] == 2880
    assert data["values"]["1638"] == aft.bounds.f(1638)
    for k in ("1639", "1700"):
        factors = data["factors"][k]
        assert math.prod(int(p) ** e for p, e in factors.items()) == aft.bounds.f(int(k))


def test_cli_f_table_sieves_once_and_never_tests_primality(capsys, monkeypatch):
    # Every row reads the table's one sieve up to --max-k: the table made
    # 1.4M is_prime calls at --max-k 1700 when each row listed its primes
    # by trial division.
    tested, sieved = [], []
    is_prime, primes_up_to = aft.integermat.is_prime, aft.bounds.primes_up_to

    def is_prime_spy(n):
        tested.append(n)
        return is_prime(n)

    def primes_up_to_spy(n):
        sieved.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(aft.integermat, "is_prime", is_prime_spy)
    monkeypatch.setattr(aft.bounds, "primes_up_to", primes_up_to_spy)
    assert main(["bounds", "--table", "f", "--max-k", "200"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert tested == [] and sieved == []
    monkeypatch.undo()
    assert [data["values"][str(k)] for k in range(-1, 201)] == [
        aft.bounds.f(k) for k in range(-1, 201)
    ]


def test_cli_bounds_prints_a_short_bound_without_factors(tmp_path, capsys):
    # S^2's bounds print as integers, as before, with no factor maps.
    config = {"dim": 2, "betti_Z": [1, 0, 1], "betti_mod_p": {}, "torsion_primes": [], "mu": 1}
    assert main(["bounds", _write(tmp_path, "s2.json", config)]) == 0
    data = json.loads(capsys.readouterr().out)["constants"]
    assert data["composite_bound"] == composite_bound(BoundsConfig.from_json(config))
    assert not [key for key in data if key.endswith("_factors")]


def test_cli_bounds_on_the_trivial_group(tmp_path, capsys):
    entry = _trivial_group_on_triangle()
    profile = homology(entry.action.space, primes=(2, 3, 5))
    cfg = _bounds_config_for_action(entry, profile).to_json()
    assert main(["bounds", _write(tmp_path, "cfg.json", cfg)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["constants"]["composite_bound"] == pipeline(entry)["composite_bound"]


@pytest.mark.parametrize(
    "field, value",
    [("torsion_primes", [4]), ("betti_mod_p", {"2": [1, 0, 1], "4": [1, 0, 1]})],
    ids=["torsion-primes", "betti-mod-p"],
)
def test_cli_bounds_rejects_non_primes(tmp_path, capsys, field, value):
    config = {
        "dim": 2,
        "betti_Z": [1, 0, 1],
        "betti_mod_p": {"2": [1, 0, 1]},
        "torsion_primes": [],
        "mu": 1,
    }
    config[field] = value
    path = _write(tmp_path, "cfg.json", config)
    assert main(["bounds", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1" and "4 is not prime" in error["error"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("dim", -1),
        ("dim", 1.5),
        ("mu", True),
        ("betti_Z", [1, 0.5, 1]),
        ("betti_mod_p", None),
        ("torsion_primes", [2.0]),
        ("torsion_primes", [2]),  # without mod-2 Betti numbers
    ],
)
def test_cli_bounds_rejects_malformed_counts(tmp_path, capsys, field, value):
    config = {"dim": 2, "betti_Z": [1, 0, 1], "betti_mod_p": {}, "mu": 1}
    config[field] = value
    path = _write(tmp_path, "cfg.json", config)
    assert main(["bounds", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid bounds config" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("betti_Z", [], "has 3 Betti numbers, not 0"),
        ("betti_Z", [1, 0, 1, 0, 0, 5], "has 3 Betti numbers, not 6"),
        ("mu", 0, "mu 0 is not a positive integer"),
    ],
    ids=["no-betti-numbers", "betti-numbers-above-the-dimension", "mu-0"],
)
def test_cli_bounds_rejects_configs_no_space_has(tmp_path, capsys, field, value, message):
    # Each of these printed a bound before: composite bound 1 with no Betti
    # numbers, lambda_chi -6 from a b_5 on a 2-dimensional space.
    config = {"dim": 2, "betti_Z": [1, 0, 1], "betti_mod_p": {}, "torsion_primes": [], "mu": 1}
    config[field] = value
    path = _write(tmp_path, "cfg.json", config)
    assert main(["bounds", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "invalid bounds config" in error and message in error


def test_cli_bounds_rejects_mod_p_betti_numbers_against_universal_coefficients(
    tmp_path, capsys
):
    # With no 3-torsion, b_j(F_3) = b_j; [1, 4, 1] has Euler characteristic
    # -2 against 2.
    config = {
        "dim": 2,
        "betti_Z": [1, 0, 1],
        "betti_mod_p": {"3": [1, 4, 1]},
        "torsion_primes": [],
        "mu": 1,
    }
    path = _write(tmp_path, "cfg.json", config)
    assert main(["bounds", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "invalid bounds config" in error and "universal coefficients" in error


def test_divisibility_suite_computes_each_homology_once(monkeypatch):
    calls = []
    original = aft.simplicial.homology

    def counting_homology(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (aft.simplicial, aft.suites, aft.actions):
        monkeypatch.setattr(module, "homology", counting_homology)
    report = run_suite("divisibility")
    assert report.passed and len(report.cases) == 7
    assert len(calls) == 7


@pytest.mark.parametrize("primes", ["1,4", "x", "2,,3", ""])
def test_cli_analyze_rejects_bad_primes(tmp_path, capsys, primes):
    path = _write(tmp_path, "cx.json", {"maximal_simplices": [[0, 1], [1, 2]]})
    assert main(["analyze", path, "--primes", primes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1" and "--primes" in error["error"]


@pytest.mark.parametrize("payload", [[1, 2], {"maximal_simplices": [[[0], [1]]]}])
def test_cli_analyze_rejects_malformed_complex(tmp_path, capsys, payload):
    path = _write(tmp_path, "cx.json", payload)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1" and "invalid complex" in error["error"]


@pytest.mark.parametrize(
    "payload",
    [
        {"maximal_simplices": "abc"},
        {"maximal_simplices": [[None, 2]]},
        {"maximal_simplices": [[0.5, 2]]},
        {"maximal_simplices": [[False, 2]]},
        {"maximal_simplices": [[]]},
        {"maximal_simplices": [[1, 1, 2]]},
        {"maximal_simplices": [[0, 1], [1, 0]]},
    ],
)
def test_cli_analyze_rejects_malformed_simplices(tmp_path, capsys, payload):
    path = _write(tmp_path, "cx.json", payload)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid complex" in json.loads(captured.err)["error"]


# Any JSON value, and any value under "maximal_simplices".  Lists hold at
# most 4 items, so no simplex has more than 15 faces.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)


def _run_on_payload(command, payload, options=()):
    """Exit code of ``aft <command> <payload file> <options>``.

    Exit 2 prints only a JSON error to stderr; any other exit prints only
    an aft/1 report to stdout.  An exception escaping ``main`` fails the
    calling test with its traceback.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), "input.json", payload)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [path] + list(options))
    if code == 2:
        assert out.getvalue() == "" and "error" in json.loads(err.getvalue())
    else:
        assert err.getvalue() == "" and json.loads(out.getvalue())["schema"] == "aft/1"
    return code


@given(json_values | st.builds(lambda v: {"maximal_simplices": v}, json_values))
@settings(max_examples=200, deadline=None)
def test_cli_analyze_fuzz_exits_0_or_2_with_json_errors(payload):
    assert _run_on_payload(["analyze"], payload) in (0, 2)


# Near-valid inputs for the other commands: three times in four a field is
# well formed, otherwise arbitrary JSON.  Well-formed groups have order <= 64
# and complexes at most 8 vertices, so no example outgrows the enumeration
# cap or a desk check.
def _or_junk(valid):
    return st.integers(0, 3).flatmap(lambda i: json_values if i == 3 else valid)


def _order(factors):
    return math.prod(f["p"] ** e for f in factors for e in f["exponents"])


group_factors = st.lists(
    st.fixed_dictionaries(
        {
            "p": st.sampled_from([2, 3, 5, 4]),
            "exponents": st.lists(st.integers(1, 3), min_size=1, max_size=3),
        }
    ),
    max_size=2,
).filter(lambda factors: _order(factors) <= 64)
group_payloads = _or_junk(st.builds(lambda fs: {"primary": fs}, group_factors))


@st.composite
def action_payloads(draw):
    group = draw(group_payloads)
    try:
        rank = sum(len(f["exponents"]) for f in group["primary"])
    except (KeyError, TypeError):
        rank = draw(st.integers(0, 3))
    n = draw(st.integers(1, 8))
    faces = st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=4,
    )
    # Every permutation acts on a full simplex; swaps have order 2.
    swap = list(range(n))
    swap[:2] = swap[:2][::-1]
    image = st.sampled_from([list(range(n)), swap]) | st.permutations(range(n))
    return {
        "group": group,
        "complex": draw(
            _or_junk(
                st.builds(lambda s: {"maximal_simplices": s}, faces)
                | st.just({"maximal_simplices": [list(range(n))]})
            )
        ),
        "generator_images": draw(
            _or_junk(st.lists(_or_junk(image), min_size=rank, max_size=rank))
        ),
    }


summand_payloads = st.fixed_dictionaries(
    {"kind": st.sampled_from(["trivial", "sign", "rotation", "x"])},
    optional={"character": st.lists(st.integers(-2, 8), max_size=4)},
)
model_payloads = st.fixed_dictionaries(
    {
        "group": group_payloads,
        "shape": _or_junk(st.sampled_from(["disk", "sphere", "torus"])),
        "summands": _or_junk(st.lists(_or_junk(summand_payloads), max_size=4)),
    }
)

def _z2_action(maximal_simplices, images):
    return {
        "group": {"primary": [{"p": 2, "exponents": [1]}]},
        "complex": {"maximal_simplices": maximal_simplices},
        "generator_images": images,
    }


def test_cli_action_check_reads_images_as_labels(tmp_path, capsys):
    # Labels 5 and 7 are not the image labels 0 and 1.
    path = _write(tmp_path, "a.json", _z2_action([[5, 7]], [[1, 0]]))
    assert main(["action", "check", path]) == 2
    assert "not a vertex permutation" in json.loads(capsys.readouterr().err)["error"]
    # The reflection of the path 1 - 2 - 0 through 2, byte for byte.
    path = _write(tmp_path, "b.json", _z2_action([[1, 2], [2, 0]], [[1, 0, 2]]))
    out = tmp_path / "check.json"
    assert main(["action", "check", path, "--out", str(out)]) == 0
    assert out.read_text() == (
        '{\n  "goodness": {\n    "is_good": true,\n    "witnesses": []\n  },\n'
        '  "group_order": 2,\n  "schema": "aft/1",\n  "space_simplices": 5\n}\n'
    )


betti_lists = _or_junk(st.lists(st.integers(-1, 2), max_size=4))
prime_keys = st.sampled_from(["2", "3", "4", "x"])
bounds_payloads = st.fixed_dictionaries(
    {
        "dim": _or_junk(st.integers(-1, 4)),
        "betti_Z": betti_lists,
        "betti_mod_p": _or_junk(st.dictionaries(prime_keys, betti_lists, max_size=2)),
        "torsion_primes": _or_junk(st.lists(st.sampled_from([2, 3, 4, 7]), max_size=2)),
        "mu": _or_junk(st.integers(-1, 3)),
    }
)


@given(action_payloads() | json_values)
@settings(max_examples=200, deadline=None)
def test_cli_action_check_fuzz_exits_0_1_or_2_with_json_errors(payload):
    assert _run_on_payload(["action", "check"], payload) in (0, 1, 2)


@given(model_payloads | json_values, st.integers(-1, 8))
@settings(max_examples=200, deadline=None)
def test_cli_descent_fuzz_exits_0_1_or_2_with_json_errors(payload, lam):
    code = _run_on_payload(["descent"], payload, ["--lambda", str(lam)])
    assert code in (0, 1, 2)


@given(bounds_payloads | json_values)
@settings(max_examples=200, deadline=None)
def test_cli_bounds_fuzz_exits_0_or_2_with_json_errors(payload):
    assert _run_on_payload(["bounds"], payload) in (0, 2)


@pytest.mark.parametrize(
    "command, kind",
    [
        (["action", "check"], "invalid action"),
        (["descent", "--lambda", "1"], "invalid model"),
        (["bounds"], "invalid bounds config"),
    ],
    ids=["action-check", "descent", "bounds"],
)
def test_cli_rejects_top_level_json_list(tmp_path, capsys, command, kind):
    path = _write(tmp_path, "input.json", [1, 2])
    assert main(command + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1" and kind in error["error"]


@pytest.mark.parametrize(
    "content",
    [b"\xff", b'{"maximal_simplices": [[' + b"1" * 5000 + b"]]}"],
    ids=["not-utf-8", "5000-digit-integer"],
)
@pytest.mark.parametrize(
    "command",
    [["analyze"], ["action", "check"], ["descent", "--lambda", "1"], ["bounds"]],
    ids=["analyze", "action-check", "descent", "bounds"],
)
def test_cli_unreadable_json_exits_2_with_one_json_line(tmp_path, capsys, command, content):
    # json.load raises UnicodeDecodeError on the byte 0xff and, past the
    # interpreter's limit of 4,300 digits, ValueError on the integer.
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert set(error) == {"schema", "error"} and error["error"].startswith(f"cannot read {path}: ")


def _z2_sign_model(group_exponents, character):
    return {
        "group": {"primary": [{"p": 2, "exponents": group_exponents}]},
        "shape": "disk",
        "summands": [{"kind": "sign", "character": character}],
    }


DESCENT = ["descent", "--lambda", "1"]
ACTION_CHECK = ["action", "check"]


@pytest.mark.parametrize(
    "command, payload, kind, value",
    [
        (DESCENT, _z2_sign_model([True], [1]), "invalid model", "exponent True"),
        (DESCENT, _z2_sign_model([1], [True]), "invalid model", "exponent True"),
        (DESCENT, _z2_sign_model([1], [1.0]), "invalid model", "exponent 1.0"),
        (ACTION_CHECK, _z2_action([[0, 1]], [[True, False]]), "invalid action", "image True"),
        (ACTION_CHECK, _z2_action([[0, 1]], [["1", "0"]]), "invalid action", "image '1'"),
    ],
    ids=["group-exponent", "character", "character-float", "image", "image-string"],
)
def test_cli_rejects_booleans_and_non_integers(
    tmp_path, capsys, command, payload, kind, value
):
    # JSON true is not the integer 1: the group, model and action loaders
    # refuse it where it enters, as complex_from_json refuses a boolean vertex.
    path = _write(tmp_path, "input.json", payload)
    assert main(command + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1" and kind in error["error"]
    assert f"{value} is not an integer" in error["error"]


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


_Z2_SIGN = _z2_sign_model([1], [1])
_Z2_SWAP = _z2_action([[0, 1]], [[1, 0]])
_SPHERE_CONFIG = {"dim": 2, "betti_Z": [1, 0, 1], "betti_mod_p": {}, "mu": 1}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (DESCENT, {**_Z2_SIGN, "summands": [{"character": [1]}]}, "summand has no 'kind' field"),
        (DESCENT, _without(_Z2_SIGN, "shape"), "model has no 'shape' field"),
        (DESCENT, _without(_Z2_SIGN, "summands"), "model has no 'summands' field"),
        (DESCENT, _without(_Z2_SIGN, "group"), "model has no 'group' field"),
        (DESCENT, {**_Z2_SIGN, "group": {}}, "group has no 'primary' field"),
        (DESCENT, {**_Z2_SIGN, "group": {"primary": [{"p": 2}]}}, "group factor has no 'exponents' field"),
        (DESCENT, {**_Z2_SIGN, "summands": [[1]]}, "summand is not a JSON object"),
        (["bounds"], _without(_SPHERE_CONFIG, "betti_mod_p"), "bounds config has no 'betti_mod_p' field"),
        (["bounds"], _without(_SPHERE_CONFIG, "mu"), "bounds config has no 'mu' field"),
        (["bounds"], _without(_SPHERE_CONFIG, "dim"), "bounds config has no 'dim' field"),
        (["bounds"], _without(_SPHERE_CONFIG, "betti_Z"), "bounds config has no 'betti_Z' field"),
        (ACTION_CHECK, _without(_Z2_SWAP, "generator_images"), "action has no 'generator_images' field"),
        (ACTION_CHECK, _without(_Z2_SWAP, "complex"), "action has no 'complex' field"),
        (ACTION_CHECK, {**_Z2_SWAP, "complex": {}}, "complex has no 'maximal_simplices' field"),
        (["analyze"], {}, "complex has no 'maximal_simplices' field"),
        (ACTION_CHECK, {**_Z2_SWAP, "generator_images": [{"0": 1}]}, "generator image {'0': 1} is not a list"),
        (ACTION_CHECK, {**_Z2_SWAP, "generator_images": [7]}, "generator image 7 is not a list"),
        (ACTION_CHECK, {**_Z2_SWAP, "generator_images": ["10"]}, "generator image '10' is not a list"),
    ],
    ids=[
        "summand-kind", "model-shape", "model-summands", "model-group", "group-primary",
        "group-factor-exponents", "summand-list", "bounds-betti-mod-p", "bounds-mu", "bounds-dim",
        "bounds-betti-z", "action-images", "action-complex", "action-complex-simplices",
        "analyze-simplices", "image-object", "image-int", "image-string",
    ],
)
def test_cli_names_the_missing_field_or_the_malformed_image(
    tmp_path, capsys, command, payload, message
):
    # A missing field was reported by its bare repr ("invalid model: 'kind'"),
    # and an image written as a JSON object was read by integer keys
    # ("invalid action: 0").
    path = _write(tmp_path, "input.json", payload)
    assert main(command + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["schema"] == "aft/1" and error["error"].endswith(": " + message)


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match and aft.__version__ == match.group(1)


def test_cli_usage_errors(tmp_path):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    assert main(["bounds"]) == 2


def test_cli_closed_stdout_exits_2_with_nothing_on_stderr():
    # The reader closes its end before the report is written, as
    # `| head -c 1` does to a long one: an I/O error, with no traceback
    # and no "Exception ignored" line from the interpreter's last flush.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "aft.cli", "analyze",
         str(root / "demos" / "data" / "projective_plane.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == b""


def _fail_certificate(*args):
    raise AssertionError("reduced boundaries 1 and 2 do not compose to zero")


@pytest.mark.parametrize(
    "argv",
    [["analyze", "COMPLEX"], ["verify", "--suite", "smith", "--seed", "1"]],
    ids=["analyze", "verify-smith"],
)
def test_cli_failed_certificate_exits_3_with_a_json_error(
    tmp_path, capsys, monkeypatch, argv
):
    path = _write(tmp_path, "cx.json", {"maximal_simplices": [[0, 1], [1, 2]]})
    monkeypatch.setattr(aft.integermat, "_certify_reduction", _fail_certificate)
    assert main([path if a == "COMPLEX" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1"
    assert error["error"] == (
        "internal certification failed: "
        "reduced boundaries 1 and 2 do not compose to zero"
    )


def test_cli_descent_failed_certificate_exits_3_with_a_json_error(capsys, monkeypatch):
    # A kernel that never shrinks the subgroup trips the descent's
    # certificate; that is a failure of aft itself, not a violated property.
    model = Path(__file__).resolve().parents[1] / "demos" / "data" / "z6_rotation_disk.json"
    monkeypatch.setattr(aft.linear, "kernel", lambda character, within=None: within)
    assert main(["descent", str(model), "--lambda", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["schema"] == "aft/1"
    assert error["error"] == (
        "internal certification failed: "
        "fixed subspace did not grow strictly during descent"
    )
