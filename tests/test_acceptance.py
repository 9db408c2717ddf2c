"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact (no tolerances in this domain).

Three narrow assertions are provably unattainable: the published table
value D(SG(14,6)) = 4 is contradicted by exhaustive search (three
independent constructions give 5; see tests/test_graph.py and the
repository notes).  Those assertions are kept verbatim under strict xfail
so they stay visible, with companion tests pinning the verified value.
The remaining content of criteria 1, 2 and 11 passes in full.
"""

from math import comb

import pytest

from conftest import brute_force_stable
from schrijver import (
    CycleParams,
    decompose,
    enumerate_stable_sets,
    stable_count,
    verify_certificate,
    witness_dist3,
    witness_lower4,
)
from schrijver.suites import (
    SuiteResult,
    check_class_diameters,
    check_dist3,
    check_distance2,
    check_lift,
    check_model,
    check_reduction,
    graph,
    sweep,
    table_rows,
)

DIVERGENT_CELL = (14, 6)  # published 4, exhaustive search says 5


def report(num: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"acceptance {num:>2}: {state} - {detail}")


def paper_table() -> dict[tuple[int, int], int]:
    """Expected diameters, cell by cell, for 2k+1 <= n <= 4k-2."""
    expected: dict[tuple[int, int], int] = {}

    def put(k, spans):
        for diam, lo, hi in spans:
            for n in range(lo, hi + 1):
                expected[(n, k)] = diam

    put(2, [(2, 5, 6)])
    put(3, [(3, 7, 9), (2, 10, 10)])
    put(4, [(4, 9, 9), (3, 10, 13), (2, 14, 14)])
    put(5, [(5, 11, 11), (4, 12, 12), (3, 13, 17), (2, 18, 18)])
    put(6, [(6, 13, 13), (4, 14, 15), (3, 16, 21), (2, 22, 22)])
    put(7, [(7, 15, 15), (6, 16, 16), (5, 17, 17), (4, 18, 18), (3, 19, 25), (2, 26, 26)])
    return expected


@pytest.fixture(scope="session")
def table7():
    return {(row["n"], row["k"]): row for row in table_rows(7)}


def test_criterion_01_table_reproduction(table7):
    expected = paper_table()
    assert set(table7) == set(expected)
    mismatches = [
        cell
        for cell, want in expected.items()
        if cell != DIVERGENT_CELL and table7[cell]["bfs"] != want
    ]
    assert mismatches == []
    report(1, True, f"table k<=7 matches all {len(expected) - 1} undisputed cells")


@pytest.mark.xfail(
    strict=True,
    reason="published table value D(SG(14,6)) = 4 is wrong: exhaustive BFS, an "
    "independent networkx construction, and the coordinate model all give 5",
)
def test_criterion_01_divergent_cell(table7):
    ok = table7[DIVERGENT_CELL]["bfs"] == paper_table()[DIVERGENT_CELL]
    report(1, ok, "table cell n=14, k=6 equals the published value 4")
    assert ok


def test_criterion_01_divergent_cell_verified_value(table7):
    assert table7[DIVERGENT_CELL]["bfs"] == 5
    report(1, True, "verified replacement: BFS diameter of SG(14,6) is 5")


def test_criterion_02_formula_bfs_agreement(table7):
    for (n, k), row in table7.items():
        if (n, k) == DIVERGENT_CELL:
            continue
        if row["formula_lo"] == row["formula_hi"]:
            assert row["formula_lo"] == row["bfs"], (n, k)
        else:
            assert row["formula_lo"] <= row["bfs"] <= row["formula_hi"], (n, k)
        assert row["agree"] == 1
    report(2, True, "formula exact branches equal BFS; intervals contain it")


@pytest.mark.xfail(
    strict=True,
    reason="the r=2 closed form gives 4 for k=6 but the BFS diameter is 5",
)
def test_criterion_02_divergent_cell(table7):
    row = table7[DIVERGENT_CELL]
    ok = row["formula_lo"] == row["bfs"]
    report(2, ok, "formula agrees with BFS at n=14, k=6")
    assert ok


def passed(res: SuiteResult) -> SuiteResult:
    assert res.ok, res.failures
    return res


def test_criterion_03_distance2_oracle_equivalence():
    res = SuiteResult("criterion 3")
    for a, b, dist in sweep((n, k) for k in range(2, 6) for n in range(2 * k + 1, 18)):
        check_distance2(res, decompose(a, b), dist)
    checked = passed(res).counts["distance2"]
    assert checked > 1_000_000
    report(3, True, f"criterion <=> BFS-distance-2 on {checked} intersecting pairs")


def test_criterion_04_constructive_distance3():
    res = SuiteResult("criterion 4")
    cells = ((n, k) for k in range(3, 6) for n in range(3 * k - 2, 4 * k - 2))
    for a, b, dist in sweep(cells, min_dist=3):
        check_dist3(res, decompose(a, b), dist)
    built = passed(res).counts["dist3"]
    assert built > 10_000
    report(4, True, f"length-3 certificates for all {built} distance>=3 pairs")


def test_criterion_05_intersection_reduction():
    res = SuiteResult("criterion 5")
    cells = ((n, k) for k in range(2, 6) for n in range(2 * k + 1, 18))
    for a, b, _ in sweep(cells, min_dist=3):
        check_reduction(res, decompose(a, b))
    checked = passed(res).counts["reduction"]
    assert checked > 15_000
    report(5, True, f"reduction contract on all {checked} distance>=3 pairs")


def test_criterion_06_lift_pipeline():
    # every distance>=4 pair of each regime m = 3k-2-n in 1..k-4 is checked;
    # the k=7 population (9331) is below the nominal 10^4 sample size
    checked = {}
    for k in (5, 6, 7):
        res = SuiteResult(f"criterion 6, k={k}")
        for a, b, dist in sweep([(3 * k - 2 - m, k) for m in range(1, k - 3)], min_dist=4):
            check_lift(res, a, b, dist)
        checked[k] = passed(res).counts["lift"]
    assert checked == {5: 108, 6: 1125, 7: 9331}
    report(6, True, f"certificates within m+3 on {checked} deep pairs per k")


def test_criterion_07_model_isomorphism():
    res = SuiteResult("criterion 7")
    for k in range(3, 8):
        check_model(res, k)
    # one whole-graph comparison per k, then each pair of its (k+1)^2 vertices
    assert passed(res).counts["model"] == 5 + sum(comb((k + 1) ** 2, 2) for k in range(3, 8))
    report(7, True, "coordinate model isomorphic to SG(2k+2,k) for k=3..7")


def test_criterion_08_subgraph_diameters():
    res = SuiteResult("criterion 8")
    for k in range(3, 8):
        check_class_diameters(res, k)
    assert passed(res).counts["class_diameters"] == 5
    report(8, True, "induced class diameters: B3 = 2, top level = floor((k+1)/2)")


def test_criterion_09_witness_pairs():
    lows = 0
    for k in (5, 6, 7):
        for r in range(2, k - 2):
            n = 2 * k + r
            a, b = witness_lower4(n, k)
            assert graph(n, k).bfs_distance(a, b).distance >= 4
            lows += 1
    d3s = 0
    for k in range(3, 8):
        for r in range(2, 2 * k - 2):
            n = 2 * k + r
            a, b, cert = witness_dist3(n, k)
            verify_certificate(cert, source=a, target=b)
            assert graph(n, k).bfs_distance(a, b).distance == 3
            d3s += 1
    assert lows == 6 and d3s == 2 + 4 + 6 + 8 + 10
    report(9, True, f"{lows} distance>=4 witnesses, {d3s} distance-3 witnesses")


def test_criterion_10_vertex_count_formula():
    checked = 0
    for k in range(1, 8):
        for n in range(2, 27):
            params = CycleParams(n, k)
            vs = enumerate_stable_sets(params)
            assert len(vs) == stable_count(params), (n, k)
            checked += 1
            if n <= 20:
                assert len(brute_force_stable(n, k)) == len(vs), (n, k)
    report(10, True, f"count formula over {checked} (n,k) cells, brute-checked n<=20")


def _diameters_by_r(table7, k):
    return [table7[(2 * k + r, k)]["bfs"] for r in range(1, 2 * k - 1)]


def test_criterion_11_conjecture_evidence(table7):
    for k in range(2, 8):
        diams = _diameters_by_r(table7, k)
        assert diams == sorted(diams, reverse=True), f"k={k} not non-increasing"
        for r in range(2, k - 1):
            gap = table7[(2 * k + r, k)]["bfs"] - table7[(2 * k + r + 1, k)]["bfs"]
            assert gap in (0, 1), f"k={k}, r={r}"
    gap_k7 = table7[(15, 7)]["bfs"] - table7[(16, 7)]["bfs"]
    assert gap_k7 == (7 + 3) // 4 - 7 % 2 == 1
    report(11, True, "diameters non-increasing; gaps in {0,1}; k=7 first gap = 1")


@pytest.mark.xfail(
    strict=True,
    reason="predicted r=1 to r=2 gap for k=6 is 2, but D(SG(14,6)) = 5 makes it 1",
)
def test_criterion_11_divergent_gap(table7):
    gap_k6 = table7[(13, 6)]["bfs"] - table7[(14, 6)]["bfs"]
    ok = gap_k6 == (6 + 3) // 4 - 6 % 2 == 2
    report(11, ok, "k=6 gap D(SG(13,6)) - D(SG(14,6)) equals 2")
    assert ok


def test_criterion_11_divergent_gap_verified_value(table7):
    assert table7[(13, 6)]["bfs"] - table7[(14, 6)]["bfs"] == 1
    report(11, True, "verified replacement: the k=6 first gap is 1")
