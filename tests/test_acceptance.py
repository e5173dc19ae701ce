"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time and asserting the stated tolerance and budget.
"""

import math
import time

import numpy as np
import pytest

from fusionforge import corpus, criteria, rings, search
from fusionforge.bialgebra import (
    Rank3Type1Params,
    canonical_from_fusion_data,
    inequality_suite,
    rank3_dual_data,
    rank3_dual_schur,
    rank3_from_mnq,
    rank3_type1,
)
from fusionforge.rings import are_isomorphic
from fusionforge.search import (
    SearchConstraints,
    enumerate_fusion_rings,
    enumerate_involutions,
    enumerate_types,
    rank5_three_selfadjoint_family,
)
from fusionforge.spectral import character_table

from oracles import naive_enumerate_fusion_rings
from test_spectral import f210_paper_table, match_columns, rank3_closed_form_table

PAPER_FLAGS = dict(
    require_perfect=True,
    require_divisibility=True,
    min_d2=3,
    require_gcd_one=True,
    exclude_prime_power_products=True,
    growth_cap=True,
)


def report(n, label, t0, budget):
    dt = time.time() - t0
    print(f"ACCEPTANCE {n}: PASS  {label}  [{dt:.2f}s, budget {budget:.0f}s]")
    assert dt < budget, f"criterion {n} exceeded its runtime budget ({dt:.1f}s)"


def test_criterion_01_corpus_soundness(paper_entries):
    t0 = time.time()
    for e in paper_entries:
        rep = rings.verify_axioms(e.fd)
        assert e.fd.exact and rep.all_ok, e.id
        if e.expected_type is not None:
            assert str(rings.type_signature(e.fd)) == e.expected_type, e.id
    report(1, f"{len(paper_entries)} embedded rings verify exactly, types match", t0, 5)


def test_criterion_02_schur_census(frobenius34):
    t0 = time.time()
    passing = set()
    for e in frobenius34:
        mu = rings.global_fpdim(e.fd)
        rep = criteria.schur_commutative(character_table(e.fd))
        assert rep.tolerance == pytest.approx(1e-9 * (1 + mu), rel=1e-12), e.id
        if rep.holds:
            passing.add(e.id)
    assert len(passing) == 6, passing
    assert {"si210-2", "si660-15"} <= passing  # F210 and F660
    report(2, "exactly 6 of the 34 pass the Schur criterion (incl. F210, F660)", t0, 10)


def test_criterion_03_minus_65_over_42(ruled210):
    t0 = time.time()
    rep = criteria.schur_commutative(character_table(ruled210))
    assert abs(rep.worst_value - (-65.0 / 42.0)) <= 1e-8
    report(3, "worst triple sum of the ruled-out FPdim-210 ring is -65/42", t0, 1)


def test_criterion_04_character_table_fidelity(f210):
    t0 = time.time()
    ct = character_table(f210)
    assert match_columns(ct.lam, f210_paper_table(), tol=1e-8) < 1e-8

    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        m = float(rng.uniform(0, 3))
        n = float(rng.uniform(0.3, 4))
        q = float(rng.uniform(0, 4))
        if (m * m + n * n - 1 - m * q) / n < 0:
            continue
        expected = rank3_closed_form_table(m, n, q)
        if min(
            abs(expected[1, a] - expected[1, b]) + abs(expected[2, a] - expected[2, b])
            for a in range(3) for b in range(a)
        ) < 1e-3:
            continue  # column matching needs separated characters
        fd = rank3_type1(rank3_from_mnq(m, n, q)).fd
        assert match_columns(character_table(fd).lam, expected) < 1e-8, (m, n, q)
        checked += 1
    report(4, "F210 table matches the printed table; rank-3 closed form on 50 points", t0, 5)


def test_criterion_05_rank3_counterexample():
    t0 = time.time()
    res = rank3_dual_schur(Rank3Type1Params(1000.0, 500.0, 0.750001))
    assert res["min_value"] < 0 and not res["holds"]

    a, b, d2 = 0.75, 0.25, 1.0e4
    d3 = math.sqrt(1 + b * d2 * d2)
    data = rank3_dual_data(Rank3Type1Params(d2, d3, a))
    dims = rank3_type1(Rank3Type1Params(d2, d3, a)).dims
    val = data.nu2**3 * float(np.sum(data.q2.coeffs.real**3 / dims)) / d2**2
    target = b**6 - b**4
    assert abs(val - target) <= 0.05 * abs(target)
    report(5, "dual Schur fails at (1000, 500, 0.750001); scaled limit ~ b^6 - b^4", t0, 1)


def test_criterion_06a_classification_60(psl25):
    t0 = time.time()
    c = SearchConstraints(fpdim=60, rank=5, **PAPER_FLAGS)
    found = []
    for sig in enumerate_types(c):
        for inv in enumerate_involutions(sig):
            found.extend(enumerate_fusion_rings(sig, inv, c))
    assert len(found) == 1
    assert rings.is_simple(found[0])
    assert are_isomorphic(found[0], psl25) is not None
    report("6a", "FPdim 60 rank 5: exactly one simple ring, isomorphic to PSL(2,5)", t0, 10)


def test_criterion_06b_classification_210(f210, ruled210):
    t0 = time.time()
    c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
    found = []
    for sig in enumerate_types(c):
        for inv in enumerate_involutions(sig):
            found.extend(enumerate_fusion_rings(sig, inv, c, node_budget=10**9))
    assert len(found) == 2
    schur = [
        fd for fd in found if criteria.schur_commutative(character_table(fd)).holds
    ]
    assert len(schur) == 1
    assert are_isomorphic(schur[0], f210) is not None
    assert any(are_isomorphic(fd, ruled210) is not None for fd in found)
    report("6b", "FPdim 210 rank 7: exactly 2 rings, one Schur-pass (F210)", t0, 300)


def test_criterion_06c_classification_660(f660):
    t0 = time.time()
    c = SearchConstraints(fpdim=660, rank=8, **PAPER_FLAGS)
    found = []
    for sig in enumerate_types(c):
        for inv in enumerate_involutions(sig):
            found.extend(enumerate_fusion_rings(sig, inv, c, node_budget=10**10))
    simple = [fd for fd in found if rings.is_simple(fd)]
    assert len(simple) == 15
    schur = [
        fd for fd in simple if criteria.schur_commutative(character_table(fd)).holds
    ]
    assert len(schur) == 2
    assert any(are_isomorphic(fd, f660) is not None for fd in schur)
    psl211 = corpus.get("psl211").fd
    assert any(are_isomorphic(fd, psl211) is not None for fd in schur)
    report("6c", "FPdim 660 rank 8: exactly 15 simple rings, 2 Schur-pass", t0, 1800)


def test_criterion_07_rank5_family():
    t0 = time.time()
    fam = rank5_three_selfadjoint_family(4)
    assert len(fam) == 47
    simple = [fd for fd in fam if rings.is_simple(fd)]
    assert len(simple) == 4
    failing = [
        fd for fd in fam if not criteria.schur_commutative(character_table(fd)).holds
    ]
    assert len(failing) == 6
    assert sum(1 for fd in simple if fd in failing) == 2
    report(7, "multiplicity <= 4: 47 rings, 4 simple, Schur fails on 6 and on 2 simple", t0, 3600)

    t1 = time.time()
    # smoke run; 13 independently pinned by an exhaustive 3^16 scan
    assert len(rank5_three_selfadjoint_family(2)) == 13
    assert time.time() - t1 < 60


def test_criterion_08_non_frobenius_fixtures():
    t0 = time.time()
    e143 = corpus.get("nf143")
    assert rings.verify_axioms(e143.fd).all_ok
    assert rings.is_simple(e143.fd)
    assert rings.is_frobenius_type(e143.fd) is False
    for eid in ("nf924", "nf1320", "nf560", "nf798"):
        fd = corpus.get(eid).fd
        assert criteria.schur_commutative(character_table(fd)).holds, eid
    report(8, "FPdim-143 ring is simple non-Frobenius; the four listed rings pass Schur", t0, 5)


def test_criterion_09_property_suites(corpus_entries):
    t0 = time.time()
    total_violations = 0
    for e in corpus_entries:
        bialg = canonical_from_fusion_data(e.fd)
        rep = inequality_suite(bialg, num_samples=1000, seed=2718)
        bad = [c.name for c in rep.checks if c.violations and not c.is_falsifier]
        assert not bad, (e.id, bad)
        total_violations += rep.theorem_violations
    assert total_violations == 0

    # search completeness: the search vs the naive enumerator, which uses no
    # coefficient bounds
    c = SearchConstraints(fpdim=(1, 40), rank=(1, 4))
    for sig in enumerate_types(c):
        for inv in enumerate_involutions(sig):
            fast = enumerate_fusion_rings(sig, inv, c)
            naive = naive_enumerate_fusion_rings(sig, inv)
            assert len(fast) == len(naive), (str(sig), inv)
    report(9, "zero violations across 13 checkers x corpus x grid; counts agree 2 ways", t0, 600)


def test_criterion_10_long_jobs_not_gated():
    t0 = time.time()
    # the full search bounds run as budgeted jobs that must degrade gracefully,
    # flagging incompleteness instead of failing
    c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
    rep = search.classify(c, node_budget=64)
    assert not rep.complete
    assert all(isinstance(tr.stats.nodes, int) for tr in rep.types)
    payload = rep.to_dict()
    assert payload["complete"] is False
    report(10, "budgeted partial reports work; full paper bounds are not gated", t0, 60)
