import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fusionforge import corpus, criteria, rings, search, spectral
from fusionforge.errors import InvalidSearchResult, ParseError, SearchTimeout, UnboundedSearch
from fusionforge.rings import TypeSignature, are_isomorphic
from fusionforge.search import (
    SearchConstraints,
    classify,
    enumerate_fusion_rings,
    enumerate_involutions,
    enumerate_types,
    rank5_three_selfadjoint_family,
)

from oracles import (
    naive_enumerate_fusion_rings,
    reference_build_problem,
    reference_canonical_key,
    reference_dfs_kernel,
    reference_enumerate_types,
    reference_equation_images,
    reference_greedy_assoc_order,
    reference_keeps_instance,
    reference_orbits,
)

PAPER_FLAGS = dict(
    require_perfect=True,
    require_divisibility=True,
    min_d2=3,
    require_gcd_one=True,
    exclude_prime_power_products=True,
    growth_cap=True,
)

# (FPdim, rank) of the census rows the search reproduces, and the
# FPdim-990 rank-8 row of the headline type
CENSUS_ROWS = [(60, 5), (168, 6), (210, 7), (360, 7), (660, 8), (990, 8)]


def units(constraints) -> list:
    """Every (type, involution) unit the constraints admit."""
    return [(sig, inv) for sig in enumerate_types(constraints)
            for inv in enumerate_involutions(sig)]


class TestEnumerateTypes:
    def test_fpdim60_rank5(self):
        types = enumerate_types(SearchConstraints(fpdim=60, rank=5, **PAPER_FLAGS))
        assert [str(t) for t in types] == ["[[1,1],[3,2],[4,1],[5,1]]"]

    def test_fpdim210_rank7(self):
        types = enumerate_types(SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS))
        assert "[[1,1],[5,3],[6,1],[7,2]]" in [str(t) for t in types]

    def test_prime_excluded(self):
        types = enumerate_types(
            SearchConstraints(fpdim=7, exclude_prime_power_products=True)
        )
        assert types == []

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedSearch):
            enumerate_types(SearchConstraints(fpdim=None))
        with pytest.raises(UnboundedSearch, match="upper bound must be finite"):
            SearchConstraints(fpdim=(1, math.inf)).fpdim_range()

    def test_growth_cap_filters(self):
        # the rank-7 FPdim-7224 type [[1,1],[3,2],[6,1],[7,1],[8,1],[84,1]]
        # violates the chain condition (84 >= 8^2) and must disappear
        base = dict(fpdim=7224, rank=7, require_perfect=True, require_divisibility=True,
                    min_d2=3, require_gcd_one=True, exclude_prime_power_products=True)
        with_cap = {str(t) for t in enumerate_types(SearchConstraints(growth_cap=True, **base))}
        without = {str(t) for t in enumerate_types(SearchConstraints(growth_cap=False, **base))}
        bad = "[[1,1],[3,2],[6,1],[7,1],[8,1],[84,1]]"
        assert bad in without and bad not in with_cap

    @pytest.mark.parametrize("constraints", [
        dict(fpdim=(1, 200), rank=(1, 6)),
        dict(fpdim=(1, 100)),
        dict(fpdim=(1, 100), rank=(2, None), growth_cap=True),
        dict(fpdim=(1, 300), rank=(1, 5), growth_cap=True),
        dict(fpdim=(1, 150), rank=4, min_d2=2, require_gcd_one=True),
        dict(fpdim=(50, 250), rank=(3, 7), require_perfect=True, growth_cap=True),
        dict(fpdim=(1, 1200), rank=(1, 8), **PAPER_FLAGS),
        dict(fpdim=7224, rank=7, **PAPER_FLAGS),
    ])
    def test_matches_leaf_filtering(self, constraints):
        """Pruning by rank and growth cap inside the recursion gives the
        types that filtering complete types gives, in the same order."""
        c = SearchConstraints(**constraints)
        got = enumerate_types(c)
        assert got and got == reference_enumerate_types(c)

    def test_lex_deterministic(self):
        c = SearchConstraints(fpdim=(1, 30), rank=(1, 4))
        assert [str(t) for t in enumerate_types(c)] == [
            str(t) for t in enumerate_types(c)
        ]


class TestEnumerateInvolutions:
    def test_f210_type(self):
        sig = TypeSignature(((1, 1), (5, 3), (6, 1), (7, 2)), True)
        invs = enumerate_involutions(sig)
        assert len(invs) == 4
        assert (0, 1, 2, 3, 4, 5, 6) in invs  # identity
        assert (0, 2, 1, 3, 4, 5, 6) in invs  # 2-cycle in the 5-block
        assert (0, 1, 2, 3, 4, 6, 5) in invs  # 2-cycle in the 7-block
        assert (0, 2, 1, 3, 4, 6, 5) in invs

    def test_rank1(self):
        assert enumerate_involutions(TypeSignature(((1, 1),), True)) == [(0,)]

    def test_1dd(self):
        sig = TypeSignature(((1, 1), (3, 2)), True)
        assert enumerate_involutions(sig) == [(0, 1, 2), (0, 2, 1)]

    def test_unit_always_fixed(self):
        sig = TypeSignature(((1, 4), (2, 3)), True)
        for inv in enumerate_involutions(sig):
            assert inv[0] == 0
            perm = np.asarray(inv)
            assert np.array_equal(perm[perm], np.arange(7))


class TestEnumerateFusionRings:
    def test_psl25_reproduced(self, psl25):
        c = SearchConstraints(fpdim=60, rank=5, **PAPER_FLAGS)
        sig = enumerate_types(c)[0]
        found = []
        for inv in enumerate_involutions(sig):
            found.extend(enumerate_fusion_rings(sig, inv, c))
        assert len(found) == 1
        assert are_isomorphic(found[0], psl25) is not None

    def test_soundness(self):
        sig = TypeSignature(((1, 1), (2, 2)), True)
        for inv in enumerate_involutions(sig):
            for fd in enumerate_fusion_rings(sig, inv):
                assert rings.verify_axioms(fd).all_ok

    def test_non_integral_type_rejected(self):
        sig = TypeSignature(((1.0, 1), (1.618034, 1)), False)
        with pytest.raises(ValueError, match="requires an integral type"):
            enumerate_fusion_rings(sig, (0, 1))

    def test_node_budget_timeout(self):
        sig = TypeSignature(((1, 1), (5, 3), (6, 1), (7, 2)), True)
        with pytest.raises(SearchTimeout):
            enumerate_fusion_rings(sig, tuple(range(7)), node_budget=100)

    def test_completeness_against_naive(self):
        c = SearchConstraints(fpdim=(1, 24), rank=(1, 3))
        for sig in enumerate_types(c):
            for inv in enumerate_involutions(sig):
                fast = enumerate_fusion_rings(sig, inv, c)
                naive = naive_enumerate_fusion_rings(sig, inv)
                assert len(fast) == len(naive), (str(sig), inv)

    def test_determinism(self):
        sig = TypeSignature(((1, 1), (3, 2), (4, 1), (5, 1)), True)
        a = enumerate_fusion_rings(sig, tuple(range(5)))
        b = enumerate_fusion_rings(sig, tuple(range(5)))
        assert len(a) == len(b)
        assert all(np.array_equal(x.tensor, y.tensor) for x, y in zip(a, b))

    def test_heavy_unit_within_budget(self):
        """The identity unit of FPdim-3600 type [[1,1],[15,2],[18,1],[20,2],
        [45,1]] took 1.4*10^8 nodes when every value up to an orbit's cap
        was a node; within its dimension intervals it takes about 10^7."""
        if search.KERNEL_BACKEND == "python":
            pytest.skip("about 10^7 nodes; minutes in the Python kernel")
        sig = TypeSignature(((1, 1), (15, 2), (18, 1), (20, 2), (45, 1)), True)
        st = search.SearchStats()
        assert enumerate_fusion_rings(sig, tuple(range(7)), node_budget=2 * 10**7,
                                      stats=st) == []
        assert st.complete and st.nodes <= 2 * 10**7

    def test_invalid_ring_raises(self):
        """The final axiom check on every emitted ring raises a library
        error, which ``python -O`` keeps, rather than an assert, with the
        summary of ``verify_axioms``."""
        sig = TypeSignature(((1, 1), (3, 2), (4, 1), (5, 1)), True)
        (psl25,) = enumerate_fusion_rings(sig, tuple(range(5)))
        bad = psl25.tensor.copy()
        bad[1, 1, 1] += 1  # a one-cell orbit of the self-dual ring: only associativity breaks
        summary = rings.verify_axioms(rings.FusionData(bad, psl25.dual)).summary()
        assert summary.count("FAIL") == 1 and "associativity: FAIL" in summary
        group = [tuple(range(5))]
        with pytest.raises(InvalidSearchResult) as exc:
            search._collect([psl25.tensor.ravel(), bad.ravel()], group, list(range(5)), "x")
        assert str(exc.value) == f"search emitted an invalid ring: {summary}"


class TestBuildProblem:
    """The array-built problem equals the loop build in
    ``oracles.reference_build_problem``: every array with its dtype and
    shape, and every scalar with its type."""

    @staticmethod
    def census_rows_and_small_types() -> list:
        """The units of the census rows and of FPdim 1-60 at rank <= 6."""
        rows = [u for f, r in CENSUS_ROWS for u in
                units(SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS))]
        small = units(SearchConstraints(fpdim=(1, 60), rank=(1, 6)))
        assert (len(rows), len(small)) == (90, 520)
        assert {sig.rank for sig, _ in small} == set(range(1, 7))
        return rows + small

    def assert_same(self, dims, dual, max_mult=None):
        from fusionforge.search import _build_problem

        got = _build_problem(dims, dual, max_mult)
        want = reference_build_problem(dims, dual, max_mult)
        assert got.keys() == want.keys()
        for key, w in want.items():
            g = got[key]
            assert type(g) is type(w), (key, dims, dual)
            if isinstance(w, np.ndarray):
                assert (g.dtype, g.shape) == (w.dtype, w.shape), (key, dims, dual)
                assert g.tobytes() == w.tobytes(), (key, dims, dual, max_mult)
            else:
                assert g == w, (key, dims, dual)

    def test_census_rows_and_small_types(self):
        """The reference caps each orbit by the coefficient bound as well,
        so equal caps also show that the row-sum caps imply it."""
        for sig, inv in self.census_rows_and_small_types():
            for max_mult in (None, 2):
                self.assert_same(list(sig.dims), list(inv), max_mult)

    def test_orbit_caps_imply_coefficient_bounds(self):
        """Every free cell's orbit cap c is at most min(d_j, d_k, d_s), and
        c max(d_j, d_k) <= min(d_j, d_k) d_s.  The second makes every value
        v in row (j, k) obey v^2 <= v d_s min(d_j, d_k) / max(d_j, d_k), so
        the row's square sum is at most min(d_j, d_k)^2 - [k = j*]: the
        search needs neither bound besides its caps."""
        from fusionforge.search import _build_problem

        for sig, inv in self.census_rows_and_small_types():
            d = np.asarray(sig.dims, dtype=np.int64)
            for max_mult in (None, 2):
                prob = _build_problem(list(sig.dims), list(inv), max_mult)
                cap = np.repeat(prob["caps"], np.diff(prob["orb_ptr"]))
                dj, dk, ds = d[np.array(np.unravel_index(prob["cell_idx"], (sig.rank,) * 3))]
                where = (str(sig), inv, max_mult)
                assert (cap <= np.minimum(np.minimum(dj, dk), ds)).all(), where
                assert (cap * np.maximum(dj, dk) <= np.minimum(dj, dk) * ds).all(), where

    def test_without_dimensions(self):
        """The greedy associativity order: the rank-5 template at
        multiplicities 1, 2 and 4, and every involution of ranks 1 to 6
        with one dimension class at multiplicities 2 and 1."""
        for mult in (1, 2, 4):
            self.assert_same(None, list(search.RANK5_TEMPLATE_DUAL), mult)
        for m in range(1, 7):
            sig = TypeSignature(((1, m),), True)
            for inv in enumerate_involutions(sig):
                self.assert_same(None, list(inv), 2)
                self.assert_same(None, list(inv), 1)

    def test_greedy_order_cached_per_involution(self):
        """The greedy order is the reference order for every involution of
        ranks 2 to 6, read-only, and computed once per involution."""
        from fusionforge.search import _build_problem, _greedy_assoc_order

        for m in range(2, 7):
            for inv in enumerate_involutions(TypeSignature(((1, m),), True)):
                order = _greedy_assoc_order(tuple(inv))
                assert order.tolist() == reference_greedy_assoc_order(
                    m, *reference_orbits(list(inv))), inv
                assert not order.flags.writeable
        _build_problem(None, list(search.RANK5_TEMPLATE_DUAL), 4)
        before = _greedy_assoc_order.cache_info()
        _build_problem(None, list(search.RANK5_TEMPLATE_DUAL), 4)
        after = _greedy_assoc_order.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_involution_tables_cached_once_per_involution(self):
        """The 30 units of the census rows FPdim 60-360 share 13 involutions:
        the per-involution tables miss once for each, and every array they
        and the cached groups and group actions hold is read-only."""
        from fusionforge.search import _build_problem, _involution_tables, _unit_group

        rows = [u for f, r in CENSUS_ROWS[:4] for u in
                units(SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS))]
        assert len(rows) == 30
        _involution_tables.cache_clear()
        for sig, inv in rows:
            _build_problem(list(sig.dims), list(inv))
        assert _involution_tables.cache_info().misses == len({inv for _, inv in rows}) == 13
        for sig, inv in rows:
            tab = _involution_tables(tuple(inv))
            arrays = [v for k, v in vars(tab).items() if k != "norb"]
            arrays += _unit_group(tuple(map(sig.dims.index, sig.dims)), tuple(inv))
            assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)

    def test_cached_group_is_the_dedup_group(self):
        """The group cached per dimension-class pattern is ``_dedup_group`` of
        the unit's own dimensions."""
        from fusionforge.search import _build_problem, _dedup_group

        for sig, inv in self.census_rows_and_small_types():
            group = _build_problem(list(sig.dims), list(inv))["group"]
            assert group.tolist() == [list(g) for g in _dedup_group(list(sig.dims), list(inv))]

    def test_build_order_does_not_matter(self):
        """Fresh interpreters that build the same units forward and in
        reverse order give the same bytes: no build alters a cached array."""
        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from fusionforge.search import _build_problem\n"
            "cases, reverse = json.loads(sys.argv[1]), sys.argv[2] == '1'\n"
            "out = {}\n"
            "for i in (reversed if reverse else list)(range(len(cases))):\n"
            "    prob = _build_problem(*cases[i])\n"
            "    h = hashlib.sha256()\n"
            "    for key, v in sorted(prob.items()):\n"
            "        a = np.asarray(v)\n"
            "        h.update(f'{key} {a.dtype} {a.shape} '.encode() + a.tobytes())\n"
            "    out[i] = h.hexdigest()\n"
            "print(json.dumps(out))\n"
        )
        cases = [(list(sig.dims), list(inv), mult)
                 for sig, inv in self.census_rows_and_small_types() for mult in (None, 2)]
        cases += [(None, list(search.RANK5_TEMPLATE_DUAL), mult) for mult in (1, 2, 4)]
        procs = [run_python(script, json.dumps(cases), flag) for flag in ("0", "1")]
        outs = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            outs.append(json.loads(stdout))
        assert len(outs[0]) == len(cases) and outs[0] == outs[1]

    def test_dimensions_or_cap_required(self):
        from fusionforge.search import _build_problem

        with pytest.raises(ValueError, match="max_multiplicity is required"):
            _build_problem(None, [0, 2, 1])
        with pytest.raises(ValueError, match="must be nonnegative"):
            _build_problem([1, 1, 1], [0, 2, 1], max_mult=-1)


def test_is_simple_matches_subring_lattice(corpus_entries, dims112):
    """``is_simple`` (every singleton generates everything) agrees with
    the subring lattice on the corpus, the rank-5 family at multiplicity
    4, every ring of the census rows, and a ring whose only proper
    subring is generated by basis element 1."""
    fds = [e.fd for e in corpus_entries] + rank5_three_selfadjoint_family(4) + [dims112]
    for f, r in CENSUS_ROWS[:-1]:
        c = SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS)
        fds += [fd for sig, inv in units(c) for fd in enumerate_fusion_rings(sig, inv, c)]
    assert len(fds) == 52 + 47 + 1 + 47
    verdicts = [rings.is_simple(fd) for fd in fds]
    assert verdicts == [not rings.proper_subrings(fd) for fd in fds]
    assert 0 < sum(verdicts) < len(fds)


def fresh(fd):
    """A copy of ``fd`` that holds no stored result yet."""
    return rings.FusionData(fd.tensor, fd.dual, label=fd.label)


def assert_same_report(a, b, where):
    """Two Schur reports agree bit for bit."""
    assert (a.worst_triple, a.worst_value, a.tolerance, a.max_imag) == (
        b.worst_triple, b.worst_value, b.tolerance, b.max_imag), where
    assert a.values.tobytes() == b.values.tobytes() and not a.values.flags.writeable, where


def test_stacked_predicates_match_one_ring_at_a_time(corpus_entries):
    """The stacked pass (``search._decide``) gives every ring the simple flag
    and every commutative one the Schur report that the ring alone gets,
    bit for bit: the 52 corpus rings, the 47 rings of the rank-5 family at
    multiplicity 4 and the 47 of the census rows FPdim 60-660, stacked by
    rank, and three float rings of the rank-2 family stacked with the exact
    rank-2 rings; the S3 group ring, which is noncommutative, gets a flag
    and no table."""
    from fusionforge.bialgebra import rank2_family

    perms = list(itertools.permutations(range(3)))
    s3 = rings.group_ring([[perms.index(tuple(g[i] for i in h)) for h in perms] for g in perms])

    fds = [e.fd for e in corpus_entries] + rank5_three_selfadjoint_family(4)
    for f, r in CENSUS_ROWS[:-1]:
        c = SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS)
        fds += [fd for sig, inv in units(c) for fd in enumerate_fusion_rings(sig, inv, c)]
    assert len(fds) == 146
    fds += [rank2_family(mu).fd for mu in (2.5, 3.7, 5.5)] + [s3]
    stacked = [fresh(fd) for fd in fds]
    for m in {fd.rank for fd in fds}:
        search._decide([fd for fd in stacked if fd.rank == m])
    simple = commutative = 0
    for fd, got in zip(fds, stacked):
        alone = fresh(fd)
        assert got._simple is rings.is_simple(alone), fd.label
        simple += got._simple
        if rings.is_commutative(fd):
            want = criteria.schur_commutative(spectral.character_table(alone))
            assert got._char_table.lam.tobytes() == alone._char_table.lam.tobytes(), fd.label
            assert_same_report(got._char_table._schur, want, fd.label)
            commutative += 1
        else:
            assert got._char_table is None, fd.label
    assert 0 < simple < len(fds) and 0 < commutative < len(fds)


def test_search_results_hold_their_predicates():
    """Every ring the rank-5 family and ``classify`` return already holds its
    simple flag, and every commutative one its table and Schur report: the
    stacked pass ran, and ``is_simple`` and ``schur_commutative`` read it."""
    fam = rank5_three_selfadjoint_family(4)
    report = classify(SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS))
    found = fam + report.all_rings
    assert len(fam) == 47 and len(report.all_rings) == 2
    for fd in found:
        assert fd._simple is not None, fd.label
        if rings.is_commutative(fd):
            assert fd._char_table is not None and fd._char_table._schur is not None, fd.label
    assert (sum(fd._simple for fd in fam),
            sum(not fd._char_table._schur.holds for fd in fam)) == (4, 6)


def test_schur_filter_reads_the_kept_tables(monkeypatch):
    """``classify``'s Schur filter takes no commutativity test for a ring that
    holds a table: each ring is tested once, by the stacked pass."""
    calls, real = [], rings.is_commutative
    monkeypatch.setattr(rings, "is_commutative", lambda fd: calls.append(fd) or real(fd))
    report = classify(SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS))
    assert len(report.all_rings) == 2
    assert all(fd._char_table is not None for fd in report.all_rings)
    assert sorted(map(id, calls)) == sorted(map(id, report.all_rings))


def kernel_backends() -> dict:
    """Every kernel backend that loads here, the Python reference first."""
    found = {"python": search._dfs_kernel}
    try:
        found["c"] = search._load_c_kernel()
    except OSError:
        pass
    return found


def run_python(script, *args, **env):
    """Run ``script`` in a fresh interpreter that imports this fusionforge."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
    return subprocess.Popen(
        [sys.executable, "-c", script, *args], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src, **env),
    )


class TestKernelFallback:
    def test_python_kernel_matches_compiled(self):
        """Every backend found agrees exactly with the Python kernel: status,
        nodes, the three prune counts and the solutions in order."""
        from fusionforge.search import _build_problem, _dfs_kernel

        dims_unit = _build_problem([1, 3, 3, 4, 5], list(range(5)))
        rank5 = _build_problem(None, list(search.RANK5_TEMPLATE_DUAL), max_mult=2)
        # the one row of dimensions (1, 2) needs 2 N[1,1,1] = 3: orbit 0
        # completes it and its interval is empty
        empty = _build_problem([1, 2], [0, 1])
        assert _dfs_kernel(empty, 10**9, 1000)[:5] == (0, 0, 3, 0, 0)
        # the three self-dual 5-dimensional elements and the dual pair of
        # 7-dimensional ones give 11 relabelings besides the identity, and
        # the lex-leader test rejects values
        lex = _build_problem([1, 5, 5, 5, 6, 7, 7], [0, 1, 2, 3, 4, 6, 5])
        assert lex["sym"].shape == (11, lex["norb"])
        assert _dfs_kernel(lex, 10**9, 1000)[4] > 0
        cases = [  # (problem, node budget, max results, expected status)
            (dims_unit, 10**9, 1000, 0),
            (empty, 10**9, 1000, 0),
            (lex, 10**9, 1000, 0),
            (lex, 1000, 1000, 1),
            (rank5, 10**9, 1000, 0),
            (rank5, 1000, 1000, 1),
            (rank5, 10**9, 5, 2),
        ]
        backends = kernel_backends()
        assert "c" in backends or shutil.which("cc") is None
        for prob, budget, cap, status in cases:
            ref = _dfs_kernel(prob, budget, cap)
            assert ref[0] == status
            for name, kernel in backends.items():
                got = kernel(prob, budget, cap)
                assert got[:5] == ref[:5], name
                assert np.array_equal(got[5], ref[5]), name

    def test_interval_kernel_matches_per_value_kernel(self):
        """On every unit of the FPdim 60 and 168 rows and of the small types,
        each backend finds the solutions of the per-value kernel in
        ``oracles.reference_dfs_kernel``, in order, with the same prune
        counts, taking as nodes exactly the values that kernel pruned on
        neither a dimension equation nor the lex-leader test.  That kernel
        also checks the square-sum bound, which this one leaves to the
        orbit caps, so equal counts show the caps imply it."""
        from fusionforge.search import _build_problem

        rows = [u for f, r in CENSUS_ROWS[:2] for u in
                units(SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS))]
        small = [u for u in units(SearchConstraints(fpdim=(1, 60), rank=(1, 6)))
                 if u[0].rank > 1]
        backends = kernel_backends()

        symmetric = 0
        for sig, inv in rows + small:
            for max_mult in (None, 2):
                prob = _build_problem(list(sig.dims), list(inv), max_mult)
                where = (str(sig), inv, max_mult)
                old = reference_dfs_kernel(prob, 10**9, 10**6)
                assert old[0] == 0, where
                for name, kernel in backends.items():
                    new = kernel(prob, 10**9, 10**6)
                    assert (new[0], *new[2:5]) == (old[0], *old[2:5]), (name, *where)
                    assert np.array_equal(new[5], old[5]), (name, *where)
                    assert new[1] == old[1] - old[2] - old[4], (name, *where)
                symmetric += old[4] > 0
        assert symmetric > 0

    def test_malformed_rows_rejected(self):
        """The C kernel divides by each orbit row's weight and
        indexes the row state by its row id and the values by the search
        positions in ``sym``, whose rows its lex-leader test takes for
        permutations, and REST by the orbit row; the checks refuse a zero
        weight, a row id past the last row, a position outside 0..norb-1,
        a repeated position, a ``sym`` whose rows are not norb long and a
        REST array one entry short or one entry long."""
        from fusionforge.search import _build_problem, _check_kernel_args

        prob = _build_problem([1, 3, 3, 4, 5], list(range(5)))
        _check_kernel_args(prob)
        assert prob["sym"].shape == (1, prob["norb"])
        for key, value in (("orb_row_wt", 0), ("orb_row", len(prob["row_target"])),
                           ("sym", prob["norb"]),
                           ("sym", -1), ("sym", prob["sym"][0, 0])):
            bad = dict(prob, **{key: prob[key].copy()})
            bad[key].reshape(-1)[-1] = value
            with pytest.raises(ValueError, match="malformed search problem"):
                _check_kernel_args(bad)
        rest = prob["orb_row_rest"]
        for key, value in (("sym", prob["sym"][:, :-1].copy()), ("sym", prob["sym"].reshape(-1)),
                           ("orb_row_rest", rest[:-1].copy()),
                           ("orb_row_rest", np.append(rest, 0))):
            with pytest.raises(ValueError, match="malformed search problem"):
                _check_kernel_args(dict(prob, **{key: value}))

    def test_max_results_is_exact(self):
        """A cap of n returns exactly n solutions, with status 2 only when
        one more exists."""
        from fusionforge.search import _build_problem

        prob = _build_problem(None, list(search.RANK5_TEMPLATE_DUAL), max_mult=2)
        for name, kernel in kernel_backends().items():
            every = kernel(prob, 10**9, 10**9)[-1]
            n = len(every)
            at = kernel(prob, 10**9, n)
            below = kernel(prob, 10**9, n - 1)
            assert at[0] == 0 and np.array_equal(at[-1], every), name
            assert below[0] == 2 and np.array_equal(below[-1], every[: n - 1]), name

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_concurrent_builds_share_one_cache(self, tmp_path):
        """Two processes building into one cache both load the C kernel, and
        the build of an older source planted there is removed."""
        (tmp_path / "_kernel-0000000000000000.so").write_bytes(b"")
        script = ("import sys; from fusionforge import search; "
                  "search._C_CACHE_DIR = sys.argv[1]; print(search.KERNEL_BACKEND)")
        procs = [run_python(script, str(tmp_path)) for _ in range(2)]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        assert [out.strip() for out, _ in outs] == ["c", "c"], outs
        built = [f.name for f in tmp_path.iterdir()]
        assert len(built) == 1 and built[0].endswith(".so"), built
        assert built[0] != "_kernel-0000000000000000.so"

    def test_no_compiler_falls_back_with_one_warning(self, tmp_path):
        script = (
            "import sys; from fusionforge import search; "
            "search._C_CACHE_DIR = sys.argv[1]; "
            "c = search.SearchConstraints(fpdim=6, rank=3); "
            "reps = [search.classify(c) for _ in range(2)]; "
            "print(search.KERNEL_BACKEND, *[len(r.all_rings) for r in reps], "
            "reps[0].to_dict()['kernel_backend'])"
        )
        (tmp_path / "bin").mkdir()
        proc = run_python(script, str(tmp_path / "cache"), PATH=str(tmp_path / "bin"))
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        backend, *rest = out.split()
        assert backend == "python" and rest == ["1", "1", "python"]
        assert err.count("C search kernel unavailable (no C compiler 'cc' on PATH)") == 1, err

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_failed_compile_is_announced(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(search, "_KERNEL", None)
        monkeypatch.setattr(search, "_C_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(search, "_C_COMMAND", ("cc", "--no-such-option"))
        assert search.KERNEL_BACKEND == "python"
        assert "C search kernel unavailable (compiling _kernel.c failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no half-built library left behind

    def test_associativity_triggers_match_loop(self):
        """The vectorized trigger table equals the direct O(m^5) loop: each
        instance (i, j, k, t) with t >= 1 fires at the last search position
        among its free cells, and instances are sorted by (trigger, i, j, k,
        t).  The instances with t = 0 are identities under Frobenius
        reciprocity and are left out, and of the eight images of an
        instance that are one equation only the one
        ``oracles.reference_keeps_instance`` keeps is in."""
        from fusionforge.search import _build_problem

        for dims, dual in [([1, 3, 3, 4, 5], [0, 2, 1, 3, 4]),
                           ([1, 5, 5, 5, 6, 7, 7], [0, 1, 2, 3, 4, 6, 5]),
                           (None, list(search.RANK5_TEMPLATE_DUAL))]:
            prob = _build_problem(dims, dual, max_mult=2)
            m = prob["m"]
            pos = {}
            for o in range(prob["norb"]):
                for t in range(prob["orb_ptr"][o], prob["orb_ptr"][o + 1]):
                    pos[np.unravel_index(prob["cell_idx"][t], (m, m, m))] = o
            eqs = []
            for i in range(1, m):
                for j in range(1, m):
                    for k in range(1, m):
                        for t in range(1, m):
                            trig = 0
                            for s in range(m):
                                for cell in ((i, j, s), (s, k, t), (j, k, s), (i, s, t)):
                                    if min(cell) >= 1:
                                        trig = max(trig, pos[cell])
                            if reference_keeps_instance((i, j, k, t), dual):
                                eqs.append((trig, i, j, k, t))
            eqs.sort()
            assert prob["eq_data"].tolist() == [list(e[1:]) for e in eqs]
            ptr = [sum(e[0] <= o for e in eqs) for o in range(prob["norb"])]
            assert prob["eq_ptr"].tolist() == [0] + ptr


class TestOneCheckPerEquation:
    """``eq_data`` holds one associativity instance per dihedral orbit
    (``search._assoc_instances``).  The oracle is the same problem with the
    unfiltered table, every instance (i, j, k, t >= 1) sorted by (trigger,
    i, j, k, t): the kernels must not tell the two apart."""

    @staticmethod
    def every_instance(prob) -> dict:
        """``prob`` with the unfiltered (trigger, i, j, k, t) table."""
        m, norb = prob["m"], prob["norb"]
        pos = np.zeros(m**3, dtype=np.int64)
        pos[prob["cell_idx"]] = np.repeat(np.arange(norb), np.diff(prob["orb_ptr"]))
        pos = pos.reshape(m, m, m)
        row, col, mid = pos.max(axis=2), pos.max(axis=0), pos.max(axis=1)
        i, j, k, t = (x.ravel() + 1 for x in np.indices((m - 1,) * 4))
        trig = np.maximum(np.maximum(row[i, j], col[k, t]), np.maximum(row[j, k], mid[i, t]))
        order = np.lexsort((t, k, j, i, trig))
        eq_ptr = np.zeros(norb + 1, dtype=np.int64)
        eq_ptr[1:] = np.bincount(trig, minlength=norb).cumsum()
        eq_data = np.ascontiguousarray(np.stack([i, j, k, t], axis=1)[order])
        return dict(prob, eq_data=eq_data, eq_ptr=eq_ptr)

    def test_kernels_match_unfiltered_table(self):
        """Status, nodes, the knapsack, associativity and symmetry prunes and
        the solutions in order are the same on both tables, for every backend
        and for ``oracles.reference_dfs_kernel``, on the census rows FPdim
        60-360, FPdim 1-60 at rank <= 6 (both at ``max_mult`` None and 2) and
        the rank-5 family at multiplicities 1, 2 and 4; and for the compiled
        backends on the FPdim-660 row, which takes the plain-Python kernels
        minutes on the unfiltered table."""
        from fusionforge.search import _build_problem

        kernels = dict(kernel_backends(), reference=reference_dfs_kernel)
        compiled = {name: k for name, k in kernels.items() if name not in ("python", "reference")}
        rows = [u for f, r in CENSUS_ROWS[:4] for u in
                units(SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS))]
        small = [u for u in units(SearchConstraints(fpdim=(1, 60), rank=(1, 6)))
                 if u[0].rank > 1]
        f660 = units(SearchConstraints(fpdim=660, rank=8, **PAPER_FLAGS))
        cases = [(kernels, list(sig.dims), list(inv), max_mult)
                 for sig, inv in rows + small for max_mult in (None, 2)]
        cases += [(kernels, None, list(search.RANK5_TEMPLATE_DUAL), mult) for mult in (1, 2, 4)]
        cases += [(compiled, list(sig.dims), list(inv), None) for sig, inv in f660]
        fewer = pruned = 0
        for backends, dims, dual, max_mult in cases:
            prob = _build_problem(dims, dual, max_mult)
            full = self.every_instance(prob)
            fewer += len(prob["eq_data"]) < len(full["eq_data"])
            for name, kernel in backends.items():
                got, want = kernel(prob, 10**9, 10**6), kernel(full, 10**9, 10**6)
                where = (name, dims, dual, max_mult)
                assert want[0] == 0 and got[:5] == want[:5], where
                assert np.array_equal(got[5], want[5]), where
                pruned += got[3] > 0
        assert fewer == len(cases)
        assert pruned > 0

    def test_kept_instances(self):
        """The kept instances are exactly those ``oracles.reference_keeps_instance``
        keeps, in lex order; 33 of the 256 on the rank-5 template."""
        from fusionforge.search import _assoc_instances

        duals = [tuple(inv) for m in range(1, 8)
                 for inv in enumerate_involutions(TypeSignature(((1, m),), True))]
        for dual in duals + [search.RANK5_TEMPLATE_DUAL]:
            kept = _assoc_instances(tuple(dual))
            want = [x for x in itertools.product(range(1, len(dual)), repeat=4)
                    if reference_keeps_instance(x, dual)]
            assert kept.tolist() == [list(x) for x in want], dual
            assert not kept.flags.writeable
        assert len(_assoc_instances(search.RANK5_TEMPLATE_DUAL)) == 33

    def test_images_are_one_equation(self, corpus_entries):
        """On every corpus ring, which obeys Frobenius reciprocity, each of the
        eight images of an instance (``oracles.reference_equation_images``)
        has the instance's two sides, swapped exactly when the image says so:
        r and f map each equation to itself."""
        for e in corpus_entries:
            fd = e.fd
            m = fd.rank
            if m > 7:
                continue
            N = fd.tensor
            left = np.einsum("ijs,skt->ijkt", N, N)
            right = np.einsum("jks,ist->ijkt", N, N)
            for x in itertools.product(range(1, m), repeat=4):
                for y, swaps in reference_equation_images(x, fd.dual.tolist()):
                    pair = (right[y], left[y]) if swaps else (left[y], right[y])
                    assert pair == (left[x], right[x]), (e.id, x, y)


class TestRank5Family:
    def test_multiplicity_one_against_brute_force(self):
        from fusionforge.search import RANK5_TEMPLATE_DUAL, _build_problem

        fam = rank5_three_selfadjoint_family(1)
        # exhaustive oracle over all 2^16 orbit assignments
        dual = list(RANK5_TEMPLATE_DUAL)
        prob = _build_problem(None, dual, max_mult=1)
        norb = prob["norb"]
        assert norb == 16
        sols = []
        for bits in range(1 << norb):
            N = prob["init_tensor"].copy()
            for oi in range(norb):
                v = (bits >> oi) & 1
                for t in range(prob["orb_ptr"][oi], prob["orb_ptr"][oi + 1]):
                    N[prob["cell_idx"][t]] = v
            T = N.reshape(5, 5, 5)
            if (np.einsum("ijs,skt->ijkt", T, T) == np.einsum("jks,ist->ijkt", T, T)).all():
                sols.append(T.copy())
        group = [(0, 1, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 4, 3)]
        keys = {reference_canonical_key(s.reshape(-1), 5, group) for s in sols}
        assert len(fam) == len(keys) == 5

    def test_multiplicity_two_pinned(self):
        # 13 was independently confirmed by a vectorized exhaustive scan of
        # all 3^16 orbit assignments (26 raw associative tensors, 13 classes)
        fam = rank5_three_selfadjoint_family(2)
        assert len(fam) == 13

    def test_duality_pattern(self):
        for fd in rank5_three_selfadjoint_family(1):
            assert list(fd.dual) == [0, 2, 1, 3, 4]
            assert rings.verify_axioms(fd).all_ok


class TestDedup:
    """Canonical keys over the dedup group separate exactly the
    isomorphism classes; the pairwise isomorphism test is the oracle."""

    def assert_pairwise_distinct(self, found):
        for i, fd in enumerate(found):
            for other in found[i + 1:]:
                assert are_isomorphic(fd, other) is None, (fd.label, other.label)

    @pytest.mark.parametrize("fpdim,rank,n_rings", [(60, 5, 1), (168, 6, 1), (210, 7, 2), (360, 7, 2)])
    def test_census_rows(self, fpdim, rank, n_rings):
        c = SearchConstraints(fpdim=fpdim, rank=rank, **PAPER_FLAGS)
        found = []
        for sig in enumerate_types(c):
            for inv in enumerate_involutions(sig):
                found.extend(enumerate_fusion_rings(sig, inv, c))
        assert len(found) == n_rings
        self.assert_pairwise_distinct(found)

    @pytest.mark.parametrize("mult,n_rings", [(2, 13), (4, 47)])
    def test_rank5_family(self, mult, n_rings):
        fam = rank5_three_selfadjoint_family(mult)
        assert [fd.label for fd in fam] == [f"r5sa-{i + 1}" for i in range(n_rings)]
        self.assert_pairwise_distinct(fam)

    def test_rank5_group_is_the_duality_pattern(self):
        from fusionforge.search import RANK5_TEMPLATE_DUAL, _dedup_group

        former = [(0, 1, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 4, 3)]
        assert sorted(_dedup_group([1] * 5, RANK5_TEMPLATE_DUAL)) == sorted(former)

    def test_rank5_timeout_carries_partial(self):
        with pytest.raises(SearchTimeout, match="node budget 1000 exhausted") as exc:
            rank5_three_selfadjoint_family(2, node_budget=1000)
        assert all(fd.label.startswith("r5sa-") for fd in exc.value.partial)


class TestLexLeader:
    """The lex-leader test keeps exactly one tensor per isomorphism class.
    The oracle is the same problem with ``sym`` emptied, so that nothing
    is broken, deduplicated by canonical key: the ring keys must be the
    same, and the raw solutions must already be distinct rings."""

    @staticmethod
    def assert_one_per_class(prob, where):
        """The prunes the lex-leader test made on ``prob``, after checking it
        against the oracle."""
        from fusionforge.search import _canonical_keys, _run_kernel

        m, group = prob["m"], prob["group"]
        status, found, st = _run_kernel(prob, 10**9, 10**6)
        every_status, every, _ = _run_kernel(dict(prob, sym=prob["sym"][:0]), 10**9, 10**6)
        assert status == every_status == 0, where
        keys = _canonical_keys(found, m, group)
        assert keys == [reference_canonical_key(t, m, group) for t in found], where
        assert len(set(keys)) == len(keys) == st.raw_solutions, where
        assert set(keys) == set(_canonical_keys(every, m, group)), where
        return st.prune_symmetry

    def test_census_rows_and_small_types(self):
        from fusionforge.search import _build_problem

        rows = [u for f, r in CENSUS_ROWS[:-1] for u in
                units(SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS))]
        small = units(SearchConstraints(fpdim=(1, 60), rank=(2, 6)))
        pruned = 0
        for sig, inv in rows + small:
            for max_mult in (None, 2):
                prob = _build_problem(list(sig.dims), list(inv), max_mult)
                pruned += self.assert_one_per_class(prob, (str(sig), inv, max_mult)) > 0
        assert pruned > 0

    @pytest.mark.parametrize("mult", [2, 4])
    def test_rank5_family(self, mult):
        from fusionforge.search import _build_problem

        prob = _build_problem(None, list(search.RANK5_TEMPLATE_DUAL), max_mult=mult)
        assert self.assert_one_per_class(prob, mult) > 0

    def test_collect_rejects_isomorphic_tensors(self):
        """Two raw solutions with one canonical key mean the symmetry
        breaking let a class through twice."""
        from fusionforge.search import _build_problem, _collect

        dual = list(search.RANK5_TEMPLATE_DUAL)
        group = _build_problem(None, dual, max_mult=1)["group"]
        pairs = [(fd.tensor, fd.tensor[np.ix_(g, g, g)])
                 for fd in rank5_three_selfadjoint_family(2) for g in group[1:]]
        tensor, image = next((a, b) for a, b in pairs if not np.array_equal(a, b))
        assert len(_collect([tensor.ravel()], group, dual, "x")) == 1
        with pytest.raises(InvalidSearchResult, match="two isomorphic tensors"):
            _collect([tensor.ravel(), image.ravel()], group, dual, "x")

    def test_fpdim990_identity_unit_completes(self):
        """The identity unit of [[1,1],[9,5],[10,1],[22,1]] stopped at the
        10^9-node budget under the precedence chain; the lex-leader test
        over its 120 relabelings finishes it in about 10^7 nodes."""
        if search.KERNEL_BACKEND == "python":
            pytest.skip("about 10^7 nodes; minutes in the Python kernel")
        sig = TypeSignature(((1, 1), (9, 5), (10, 1), (22, 1)), True)
        st = search.SearchStats()
        assert enumerate_fusion_rings(sig, tuple(range(8)), node_budget=2 * 10**7,
                                      stats=st) == []
        assert st.complete and st.nodes <= 2 * 10**7


def test_c_kernel_parameters_match_kernel_arrays():
    """ctypes passes each problem array to ``ff_dfs_kernel`` as a bare
    address, so a parameter reordered or dropped in ``_kernel.c`` would
    bind the wrong array without any error: the parameter names must be
    the scalars, ``_KERNEL_ARRAYS`` in order, then the limits and outputs."""
    with open(search._C_SOURCE) as f:
        params = re.search(r"\bi64 ff_dfs_kernel\(([^)]*)\)", f.read()).group(1)
    names = [re.search(r"(\w+)\s*$", p).group(1) for p in params.split(",")]
    assert names == ["m", "norb", "nrows", "nsym", *search._KERNEL_ARRAYS,
                     "node_budget", "max_results", "counts", "results"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_source_compiles_without_warnings():
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", search._C_SOURCE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_c_kernel_clean_under_sanitizers(tmp_path):
    """The C kernel built with AddressSanitizer and UBSan, in a child that
    preloads the ASan runtime, runs every unit of the census rows up to
    FPdim 660 and the rank-5 family at multiplicities 1, 2 and 4 with no
    report, and gives the status, counts and solutions of the normal build."""
    try:
        libasan = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                                 text=True).stdout.strip()
    except OSError:
        libasan = ""
    if not os.path.isfile(libasan):
        pytest.skip("cc has no AddressSanitizer runtime")
    problems = [(list(sig.dims), list(inv), None) for f, r in CENSUS_ROWS[:-1]
                for sig, inv in units(SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS))]
    problems += [(None, list(search.RANK5_TEMPLATE_DUAL), mult) for mult in (1, 2, 4)]
    script = (
        "import json, sys; from fusionforge import search; "
        "search._C_CACHE_DIR = sys.argv[1]; "
        "search._C_COMMAND += ('-fsanitize=address,undefined', '-fno-sanitize-recover=all'); "
        "kernel = search._load_c_kernel(); "
        "runs = [kernel(search._build_problem(*p), 10**9, 10**6) "
        "        for p in json.loads(sys.argv[2])]; "
        "print(json.dumps([[*r[:5], r[5].tolist()] for r in runs]))"
    )
    proc = run_python(script, str(tmp_path), json.dumps(problems), LD_PRELOAD=libasan,
                      ASAN_OPTIONS="detect_leaks=0")
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    kernel = search._load_c_kernel()
    want = [[*r[:5], r[5].tolist()] for r in
            (kernel(search._build_problem(*p), 10**9, 10**6) for p in problems)]
    assert len(want) == 66 and json.loads(out) == want


class TestCensusRows:
    """The remaining desk-scale rows of the simple-integral census."""

    def run_row(self, fpdim, rank, n_simple, n_schur):
        c = SearchConstraints(fpdim=fpdim, rank=rank, **PAPER_FLAGS)
        found = []
        for sig in enumerate_types(c):
            for inv in enumerate_involutions(sig):
                found.extend(enumerate_fusion_rings(sig, inv, c, node_budget=10**9))
        simple = [fd for fd in found if rings.is_simple(fd)]
        assert len(simple) == n_simple
        from fusionforge.criteria import schur_commutative
        from fusionforge.spectral import character_table

        schur = [fd for fd in simple if schur_commutative(character_table(fd)).holds]
        assert len(schur) == n_schur

    def test_fpdim_168_rank6(self):
        self.run_row(168, 6, 1, 1)  # PSL(2,7)

    def test_fpdim_360_rank7(self):
        self.run_row(360, 7, 2, 1)  # PSL(2,9) survives


class TestClassify:
    def test_report_on_60(self, psl25):
        c = SearchConstraints(fpdim=60, rank=5, **PAPER_FLAGS)
        report = classify(c)
        assert report.complete
        assert len(report.all_rings) == 1
        assert len(report.simple_rings) == 1
        assert len(report.schur_rings) == 1
        d = report.to_dict()
        assert d["types"][0]["rings_found"] == 1
        assert d["types"][0]["nodes"] > 0
        assert d["kernel_backend"] == search.KERNEL_BACKEND

    def test_resumed_report_names_no_backend(self, tmp_path, monkeypatch):
        """A report names the backend that ran its searches; writing a report
        whose units all came from a checkpoint runs and loads no kernel."""
        c = SearchConstraints(fpdim=6, rank=3)
        path = str(tmp_path / "ck.jsonl")
        first = classify(c, checkpoint=path)
        assert first.to_dict()["kernel_backend"] == search.KERNEL_BACKEND

        def no_kernel():
            raise AssertionError("kernel loaded")

        monkeypatch.setattr(search, "_kernel", no_kernel)
        resumed = classify(c, checkpoint=path)
        assert len(resumed.all_rings) == len(first.all_rings)
        assert resumed.to_dict()["kernel_backend"] is None

    def test_result_buffer_stop(self, monkeypatch):
        """A unit with more rings than ``UNIT_MAX_RESULTS`` stops with the
        first ones: the family search raises with them, and classify
        reports the unit incomplete."""
        monkeypatch.setattr(search, "UNIT_MAX_RESULTS", 2)
        with pytest.raises(SearchTimeout, match="result buffer 2 exhausted") as exc:
            rank5_three_selfadjoint_family(2)
        assert len(exc.value.partial) == 2
        report = classify(SearchConstraints(fpdim=78, rank=5))  # one unit has 3 rings
        assert not report.complete
        assert [(len(tr.rings), tr.stats.complete) for tr in report.types
                if not tr.stats.complete] == [(2, False)]

    def test_partial_report_on_budget(self):
        c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
        report = classify(c, node_budget=50)
        assert not report.complete
        assert any(not tr.stats.complete for tr in report.types)

    def test_range_sweep_rank5_to_200(self, psl25):
        # perfect + divisibility over all FPdim <= 200, rank <= 5: the only
        # nontrivial simple ring is PSL(2,5) (the rank-1 ring is vacuously
        # simple and excluded from the count)
        c = SearchConstraints(
            fpdim=(1, 200), rank=(1, 5), require_perfect=True, require_divisibility=True
        )
        rep = classify(c)
        assert rep.complete
        nontrivial = [fd for fd in rep.simple_rings if fd.rank > 1]
        assert len(nontrivial) == 1
        assert are_isomorphic(nontrivial[0], psl25) is not None

    def test_report_determinism(self):
        c = SearchConstraints(fpdim=60, rank=5, **PAPER_FLAGS)

        def strip(d):
            d = dict(d)
            d.pop("wall_time")
            for t in d["types"]:
                pass
            return d

        a, b = classify(c), classify(c)
        assert strip(a.to_dict()) == strip(b.to_dict())

    def test_threads_match_sequential(self):
        c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
        seq = classify(c)
        par = classify(c, threads=2)
        assert len(par.all_rings) == len(seq.all_rings) == 2
        assert [str(tr.signature) for tr in par.types] == [
            str(tr.signature) for tr in seq.types
        ]

    def test_threads_keep_stored_tables(self):
        """A pooled run returns the rings with the character tables, Schur
        reports and simple flags the search stored on them, pickled along,
        equal to a serial run's and read-only as they are."""
        c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
        seq, par = classify(c).all_rings, classify(c, threads=2).all_rings
        assert [fd.label for fd in par] == [fd.label for fd in seq]
        for a, b in zip(seq, par):
            assert a == b and a._char_table is not None and b._char_table is not None
            assert a._simple is not None and b._simple is a._simple
            assert not any(x.flags.writeable for x in (b.tensor, b.dual, b._char_table.lam,
                                                        b._char_table.vectors,
                                                        b._char_table._schur.values))
            assert_same_report(b._char_table._schur, a._char_table._schur, a.label)
            assert a._char_table.lam.tobytes() == b._char_table.lam.tobytes()
            assert a._char_table.vectors.tobytes() == b._char_table.vectors.tobytes()
            assert (a._char_table.residual, a._char_table.column_order) == (
                b._char_table.residual, b._char_table.column_order)

    def test_resume_checkpoint(self, tmp_path):
        c = SearchConstraints(fpdim=60, rank=5, **PAPER_FLAGS)
        ckpt = tmp_path / "run.jsonl"
        first = classify(c, checkpoint=str(ckpt))
        assert ckpt.exists() and len(ckpt.read_text().splitlines()) == 2
        resumed = classify(c, checkpoint=str(ckpt))
        assert len(resumed.all_rings) == len(first.all_rings) == 1
        # resumed run reused the stored results and their counts: no kernel ran
        assert resumed.kernel_backend is None
        assert type_counts(resumed) == type_counts(first)
        assert [tr.stats.raw_solutions for tr in resumed.types] == [
            tr.stats.raw_solutions for tr in first.types]
        # a run killed mid-write leaves its last line cut short: that
        # unit reruns and the rest is reused
        lines = ckpt.read_text().splitlines(keepends=True)
        ckpt.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        torn = classify(c, checkpoint=str(ckpt))
        assert ring_texts(torn) == ring_texts(first)
        assert ckpt.read_text().splitlines(keepends=True) == lines
        # a last record without its newline is cut short too
        ckpt.write_text("".join(lines)[:-1])
        assert ring_texts(classify(c, checkpoint=str(ckpt))) == ring_texts(first)
        assert ckpt.read_text().splitlines(keepends=True) == lines
        # a bad record before the last line is an error naming its line
        ckpt.write_text(lines[0][:10] + "\n" + lines[1])
        with pytest.raises(ParseError, match="^line 1: ") as exc:
            classify(c, checkpoint=str(ckpt))
        assert exc.value.line == 1

    @pytest.mark.parametrize("text", [
        "{}\n",
        "[]\n",
        "not json\n",
        '{"key": "k", "rings": ["not a ring"]}\n',
        '{"key": "k", "rings": ["frt 1\\nrank 1\\ndual 1\\nmatrix 1\\ninf\\n"]}\n',
        '{"key": "k", "rings": [5]}\n',
        '{"key": "k", "rings": [null]}\n',
        '{"key": 5, "rings": []}\n',
        '{"key": "k", "rings": [], "stats": null}\n',
        '{"key": "k", "rings": [], "stats": {"nodes": 1}}\n',
        '{"key": "k", "rings": [], "stats": {"nodes": -1, "prune_knapsack": 0, '
        '"prune_associativity": 0, "prune_symmetry": 0, "raw_solutions": 0}}\n',
        '{"key": "k", "rings": [], "stats": {"nodes": 1.5, "prune_knapsack": 0, '
        '"prune_associativity": 0, "prune_symmetry": 0, "raw_solutions": 0}}\n',
    ])
    def test_bad_complete_record_is_an_error(self, tmp_path, text):
        """Only a last line without its newline counts as torn: a complete
        bad record, even the only one, raises and the file is untouched."""
        c = SearchConstraints(fpdim=60, rank=5, **PAPER_FLAGS)
        ckpt = tmp_path / "run.jsonl"
        ckpt.write_text(text)
        with pytest.raises(ParseError, match="^line 1: ") as exc:
            classify(c, checkpoint=str(ckpt))
        assert exc.value.line == 1
        assert ckpt.read_text() == text
        # the same record after a good one names line 2
        classify(c, checkpoint=str(tmp_path / "good.jsonl"))
        first = (tmp_path / "good.jsonl").read_text().splitlines(keepends=True)[0]
        ckpt.write_text(first + text)
        with pytest.raises(ParseError, match="^line 2: "):
            classify(c, checkpoint=str(ckpt))
        assert ckpt.read_text() == first + text

    def test_killed_run_resumes(self, tmp_path, monkeypatch):
        """A run killed in the 3rd of its 7 units keeps the 2 finished ones
        on disk, and resuming it gives the uninterrupted report, with the
        same node and prune counts per type."""
        c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
        units = [(sig, inv) for sig in enumerate_types(c) for inv in enumerate_involutions(sig)]
        assert len(units) == 7
        whole = classify(c)
        ckpt = tmp_path / "run.jsonl"
        real, calls = search.enumerate_fusion_rings, []

        def killed_in_third_unit(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "enumerate_fusion_rings", killed_in_third_unit)
        with pytest.raises(KeyboardInterrupt):
            classify(c, checkpoint=str(ckpt))
        monkeypatch.undo()
        stored = [json.loads(line)["key"] for line in ckpt.read_text().splitlines()]
        assert stored == [search._checkpoint_key(sig, inv, None) for sig, inv in units[:2]]
        resumed = classify(c, checkpoint=str(ckpt))
        assert ring_texts(resumed) == ring_texts(whole)
        assert type_counts(resumed) == type_counts(whole)

    def test_record_without_counts_reports_none(self, tmp_path):
        """A record written before records kept their counts still resumes:
        its type's counts read None, in the report and in ``to_dict`` as
        JSON null, never 0, and the other types keep theirs."""
        c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
        ckpt = tmp_path / "run.jsonl"
        whole = classify(c, checkpoint=str(ckpt))
        lines = ckpt.read_text().splitlines(keepends=True)
        old = json.loads(lines[0])
        del old["stats"]
        ckpt.write_text(json.dumps(old) + "\n" + "".join(lines[1:]))
        resumed = classify(c, checkpoint=str(ckpt))
        assert ring_texts(resumed) == ring_texts(whole)
        got, want = resumed.to_dict()["types"], whole.to_dict()["types"]
        unknown = [str(sig) for sig, _ in units(c)][0]
        counts = ("nodes", "prune_knapsack", "prune_associativity", "prune_symmetry")
        for g, w in zip(got, want):
            assert g["rings_found"] == w["rings_found"] and g["complete"] == w["complete"]
            if g["type"] == unknown:
                assert [g[k] for k in counts] == [None] * 4
                assert '"nodes": null' in json.dumps(g)
            else:
                assert [g[k] for k in counts] == [w[k] for k in counts]
        assert resumed.kernel_backend is None

    def test_report_constraints(self):
        """The report lists every constraint, in field order, as given."""
        c = SearchConstraints(fpdim=(50, 60), rank=5, max_multiplicity=2, **PAPER_FLAGS)
        got = classify(c).to_dict()["constraints"]
        assert list(got.items()) == [
            ("fpdim", (50, 60)), ("rank", 5),
            ("require_divisibility", True), ("require_perfect", True), ("min_d2", 3),
            ("require_gcd_one", True), ("exclude_prime_power_products", True),
            ("growth_cap", True), ("max_multiplicity", 2),
        ]

    def test_wall_budget_ignores_clock_steps(self, monkeypatch):
        """The wall budget runs on a monotonic clock: a system clock that
        steps an hour back after the start does not let a spent budget
        take more units."""
        c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
        want = classify(c, wall_budget=0.0).to_dict()
        real, calls = search.time.time, itertools.count()
        monkeypatch.setattr(search.time, "time", lambda: real() - 3600 * (next(calls) > 0))
        got = classify(c, wall_budget=0.0).to_dict()
        assert not got["complete"] and got["types"][0]["nodes"] == 0
        got.pop("wall_time")
        want.pop("wall_time")
        assert got == want

    def test_wall_budget_in_pool(self, tmp_path):
        """A spent wall budget stops the pool like the serial loop: no unit
        is taken, none is stored, and the reports agree."""
        c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
        ckpt = tmp_path / "run.jsonl"
        par = classify(c, wall_budget=0.0, threads=2, checkpoint=str(ckpt))
        seq = classify(c, wall_budget=0.0, threads=1)
        assert not par.complete and par.all_rings == []
        assert ckpt.read_text() == ""
        a, b = par.to_dict(), seq.to_dict()
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b

    def test_checkpoint_is_per_multiplicity_cap(self, tmp_path):
        """Units stored without a multiplicity cap are not reused under one,
        and the other way round; each run reuses its own."""
        ckpt = str(tmp_path / "run.jsonl")
        uncapped = SearchConstraints(fpdim=60, rank=5, **PAPER_FLAGS)
        capped = SearchConstraints(fpdim=60, rank=5, max_multiplicity=1, **PAPER_FLAGS)
        assert len(classify(uncapped, checkpoint=ckpt).all_rings) == 1
        assert len(classify(capped).all_rings) == 0
        assert len(classify(capped, checkpoint=ckpt).all_rings) == 0
        again = classify(uncapped, checkpoint=ckpt)
        assert len(again.all_rings) == 1
        assert again.kernel_backend is None
        assert type_counts(again) == type_counts(classify(uncapped))

    def test_checkpoint_same_in_both_modes(self, tmp_path):
        c = SearchConstraints(fpdim=210, rank=7, **PAPER_FLAGS)
        texts = []
        for threads in (1, 2):
            path = tmp_path / f"threads-{threads}.jsonl"
            classify(c, threads=threads, checkpoint=str(path))
            texts.append(path.read_text())
        assert len(texts[0].splitlines()) == 7
        assert texts[0] == texts[1]


def ring_texts(report) -> list:
    """Every ring of a report as FRT text, with its label, in report order."""
    return [corpus.serialize_fusion_ring(fd) for fd in report.all_rings]


def type_counts(report) -> list:
    keep = ("type", "rings_found", "simple", "schur_pass", "complete", "nodes",
            "prune_knapsack", "prune_associativity", "prune_symmetry")
    return [{k: t[k] for k in keep} for t in report.to_dict()["types"]]
