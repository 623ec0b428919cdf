"""Acceptance battery: the eleven exact criteria, one pass line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check is exact (zero tolerance) and the whole battery runs
at desk scale.
"""

import math

from aft.bounds import chain_bound, chain_bound_oracle, f
from aft.corpus import boundary_simplex, projective_plane
from aft.integermat import primes_up_to
from aft.simplicial import homology
from aft.suites import run_suite


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {status}  {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def _suite_ok(name, seed=1):
    report = run_suite(name, seed=seed)
    failures = [c for c in report.cases if not c.passed]
    return report, failures


def test_01_f_table():
    def f_accumulated(k):
        if k < 0:
            return 1
        value = 1
        for _ in range(k):
            value *= 2
        for p in primes_up_to(max(k, 2)):
            if p > 2:
                for _ in range(k // p):
                    value *= p
        return value

    closed = [f(k) for k in range(-1, 31)]
    accumulated = [f_accumulated(k) for k in range(-1, 31)]
    divisibility = all(
        (2 ** (k - k // 2) * math.factorial(k)) % f(k) == 0
        for k in range(31)
    )
    head = closed[:9] == [1, 1, 2, 4, 24, 48, 480, 2880, 40320]
    _report(
        1,
        "f-table: two routes agree, divisibility to k=30",
        closed == accumulated and divisibility and head,
        f"f(-1..7)={closed[:9]}",
    )


def test_02_chain_bound():
    ok = all(
        chain_bound(m, k) == chain_bound_oracle(m, k)
        for m in range(13)
        for k in range(13 - m)
    )
    _report(2, "chain bound equals tuple-enumeration oracle (m+k <= 12)", ok)


def test_03_homology_engine():
    ok = True
    for m in range(4):
        profile = homology(boundary_simplex(2 * m + 1))
        expected = [2] if m == 0 else [1] + [0] * (2 * m - 1) + [1]
        ok = ok and profile.ranks() == expected and profile.euler == 2
    rp2 = homology(projective_plane())
    ok = ok and rp2.betti_Z[1][1] == (2,) and rp2.betti_mod_p[2] == [1, 1, 1]
    _report(3, "homology engine: even spheres and the 6-vertex RP^2", ok)


def test_04_smith_inequality():
    report, failures = _suite_ok("smith")
    _report(
        4,
        "Smith inequality over all corpus subgroups",
        not failures,
        f"{len(report.cases)} cases",
    )


def test_05_lefschetz():
    report, failures = _suite_ok("lefschetz")
    _report(
        5,
        "Lefschetz trace equals chi of the fixed subcomplex",
        not failures,
        f"{len(report.cases)} cases",
    )


def test_06_divisibility():
    report, failures = _suite_ok("divisibility")
    _report(
        6,
        "p^(n+1) divides the chi defect under the verified hypothesis",
        not failures,
        f"{len(report.cases)} cases",
    )


def test_07_stability_descent():
    report, failures = _suite_ok("descent")
    _report(
        7,
        "descent terminates within bounds on 1000 seeded disk models",
        len(report.cases) >= 1000 and not failures,
        f"{len(report.cases)} models",
    )


def test_08_disk_theorem():
    report, failures = _suite_ok("disks")
    _report(
        8,
        "disk indices divide f([(n-3)/2]), chi of the fixed set is 1",
        len(report.cases) >= 1000 and not failures,
        f"{len(report.cases)} models",
    )


def test_09_sphere_theorem():
    report, failures = _suite_ok("spheres")
    _report(
        9,
        "sphere indices divide 2^(m+1) f(m-1) with >= 2 fixed points",
        len(report.cases) >= 1000 and not failures,
        f"{len(report.cases)} models",
    )


def test_10_pipeline_contract():
    report, failures = _suite_ok("pipeline")
    _report(
        10,
        "pipeline subgroup within the composite bound, chi preserved",
        not failures,
        f"{len(report.cases)} entries",
    )


def test_11_minkowski():
    report, failures = _suite_ok("minkowski")
    sizes = [c.details["group_order"] for c in report.cases]
    _report(
        11,
        "mod-3 reduction injective on signed permutation groups n <= 4",
        not failures and sizes == [2, 8, 48, 384],
        f"orders {sizes}",
    )
