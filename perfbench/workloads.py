"""The three workloads: what one pass does and how its outputs are checked.

Every workload runs in one process, single-threaded, closed loop: the
next op starts when the previous one has finished.  An op is one public
call chain; its latency excludes the reference checks that follow it.
A pass is the workload's fixed work.  ``census`` and ``rank5`` have no
randomness; ``ineq`` takes its suite seeds from the workload seed.

Each pass fills a :class:`PassRecord`: op latencies, failed ops, exact
counts (which must repeat on every pass and every run of the same code)
and the kernel time read from the library's own ``SearchStats``.
"""

from __future__ import annotations

import sys
import traceback
from collections import Counter
from time import perf_counter

from fusionforge import bialgebra, corpus, criteria, rings, search
from fusionforge.search import SearchConstraints, SearchStats
from fusionforge.spectral import character_table

PAPER_FLAGS = dict(
    require_perfect=True,
    require_divisibility=True,
    min_d2=3,
    require_gcd_one=True,
    exclude_prime_power_products=True,
    growth_cap=True,
)

# census rows: (fpdim, rank) -> (rings, Schur-pass rings or None, corpus id
# that must appear among the rings, corpus id the Schur-pass rings must be)
CENSUS_ROWS = {
    (60, 5): (1, None, "psl25", None),
    (168, 6): (1, None, "psl27", None),
    (210, 7): (2, 1, "r7-210-ruledout", "f210"),
    (360, 7): (2, None, "psl29", None),
}

# the corpus entries whose stored Schur verdict is "holds"
SCHUR_PASS_IDS = frozenset(
    ["si60-1", "si168-1", "si210-2", "si360-2", "si660-14", "si660-15",
     "nf924", "nf1320", "nf560", "nf798", "r5sa-a"]
    + [f"z{n}" for n in range(2, 13)]
)
CORPUS_SIZE = 52

SIZES = {
    "full": {"census_rows": list(CENSUS_ROWS), "rank5_mult": 4, "ineq_samples": 10},
    "smoke": {"census_rows": [(60, 5)], "rank5_mult": 2, "ineq_samples": 2},
}
# rank-5 family at each multiplicity cap: (rings, simple, Schur fails,
# simple Schur fails); None where only the ring count is pinned
RANK5_REFERENCE = {4: (47, 4, 6, 2), 2: (13, None, None, None)}


def warm_up():
    """One call on a tiny input through types, kernel and predicates; this
    is where a compiled kernel would compile or load its cache."""
    rep = search.classify(SearchConstraints(fpdim=6, rank=3), threads=1)
    if len(rep.all_rings) != 1:
        raise RuntimeError("warm-up classification of FPdim 6 rank 3 went wrong")


class PassRecord:
    """Outcome of one pass of a workload."""

    def __init__(self, tracer):
        self.tr = tracer
        self.latencies = []
        self.failed = set()
        self.counts = Counter()
        self.kernel_s = 0.0  # sum of SearchStats.wall_time

    def op(self, fn, *args, **kwargs):
        """Run one op, timed; returns its output, or None if it raised."""
        i = len(self.latencies)
        out = None
        with self.tr.op(i):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:  # an op that raises is a failed op, not a crash
                self.fail(i, traceback.format_exc())
            dt = perf_counter() - t0
        self.latencies.append(dt)
        return out

    def check(self, ok: bool, what: str):
        """Mark the last op failed unless ``ok``."""
        if not ok:
            self.fail(len(self.latencies) - 1, what)

    def fail(self, i, what):
        self.failed.add(i)
        print(f"FAILED op {i}: {what}", file=sys.stderr)

    def add_search(self, st: SearchStats):
        self.counts["search.nodes"] += st.nodes
        self.counts["search.prune_knapsack"] += st.prune_knapsack
        self.counts["search.prune_associativity"] += st.prune_associativity
        self.counts["search.raw_solutions"] += st.raw_solutions
        self.kernel_s += st.wall_time


class Workload:
    """Set-up hooks; ``prepare`` builds the inputs (timed as set-up),
    ``load_references`` loads what the checks compare against."""

    def prepare(self):
        pass

    def load_references(self):
        pass


class Census(Workload):
    """``classify`` with the paper flags on FPdim rows 60, 168, 210, 360."""

    def __init__(self, size, seed):
        self.rows = size["census_rows"]

    def prepare(self):
        self.constraints = [SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS)
                            for f, r in self.rows]

    def load_references(self):
        ids = {ref for row in self.rows for ref in CENSUS_ROWS[row][2:] if ref}
        self.refs = {i: corpus.get(i).fd for i in ids}

    def run_pass(self, rec: PassRecord):
        run = self._traced if rec.tr.enabled else self._classify
        for row, c in zip(self.rows, self.constraints):
            out = rec.op(run, c, rec.tr)
            if out is None:
                continue
            found, schur, stats, units = out
            rec.add_search(stats)
            rec.counts["search.units"] += units
            rec.counts["search.rings"] += len(found)
            rec.counts["criteria.schur_pass"] += len(schur)
            n_rings, n_schur, member, schur_ref = CENSUS_ROWS[row]
            rec.check(stats.complete, f"row {row} incomplete")
            rec.check(len(found) == n_rings, f"row {row}: {len(found)} rings, want {n_rings}")
            rec.check(any(rings.are_isomorphic(fd, self.refs[member]) is not None
                          for fd in found), f"row {row}: no ring isomorphic to {member}")
            if n_schur is not None:
                rec.check(len(schur) == n_schur
                          and all(rings.are_isomorphic(fd, self.refs[schur_ref]) is not None
                                  for fd in schur),
                          f"row {row}: Schur-pass rings are not exactly {schur_ref}")

    @staticmethod
    def _classify(c, tr):
        rep = search.classify(c, threads=1)
        stats = SearchStats()
        for t in rep.types:
            stats.merge(t.stats)
        units = sum(t.involutions_tried for t in rep.types)
        return rep.all_rings, rep.schur_rings, stats, units

    @staticmethod
    def _traced(c, tr):
        """The public steps ``classify`` runs, in its order, one span each."""
        sigs = tr.call("search.enumerate_types", search.enumerate_types, c)
        invs = [tr.call("search.enumerate_involutions", search.enumerate_involutions, sig)
                for sig in sigs]
        stats = SearchStats()
        per_type = [[fd for inv in sig_invs
                     for fd in tr.call("search.enumerate_fusion_rings",
                                       search.enumerate_fusion_rings, sig, inv, c, stats=stats)]
                    for sig, sig_invs in zip(sigs, invs)]
        schur = []
        for found in per_type:
            for fd in found:
                tr.call("rings.is_simple", rings.is_simple, fd)
            for fd in found:
                if tr.call("rings.is_commutative", rings.is_commutative, fd):
                    ct = tr.call("spectral.character_table", character_table, fd)
                    if tr.call("criteria.schur_commutative",
                               criteria.schur_commutative, ct).holds:
                        schur.append(fd)
        found = [fd for rings_of_type in per_type for fd in rings_of_type]
        return found, schur, stats, sum(map(len, invs))


class Rank5(Workload):
    """One op: the rank-5 three-self-adjoint family, then predicates on
    each member."""

    def __init__(self, size, seed):
        self.mult = size["rank5_mult"]

    def run_pass(self, rec: PassRecord):
        out = rec.op(self._family, rec.tr)
        if out is None:
            return
        stats, verdicts = out
        rec.add_search(stats)
        rec.counts["search.units"] += 1
        rec.counts["search.rings"] += len(verdicts)
        rec.counts["criteria.schur_pass"] += sum(holds for _, holds in verdicts)
        want = RANK5_REFERENCE[self.mult]
        got = (len(verdicts), sum(s for s, _ in verdicts), sum(not h for _, h in verdicts),
               sum(s and not h for s, h in verdicts))
        rec.check(all(w is None or w == g for w, g in zip(want, got)),
                  f"rank-5 family (rings, simple, Schur fails, simple fails) = {got}, want {want}")

    def _family(self, tr):
        stats = SearchStats()
        family = tr.call("search.rank5_three_selfadjoint_family",
                         search.rank5_three_selfadjoint_family, self.mult, stats=stats)
        verdicts = []
        for fd in family:
            simple = tr.call("rings.is_simple", rings.is_simple, fd)
            ct = tr.call("spectral.character_table", character_table, fd)
            sr = tr.call("criteria.schur_commutative", criteria.schur_commutative, ct)
            verdicts.append((simple, sr.holds))
        return stats, verdicts


class Ineq(Workload):
    """Load the corpus (one op), then the inequality suite on every entry
    (one op each)."""

    def __init__(self, size, seed):
        self.samples = size["ineq_samples"]
        self.seed = seed

    def run_pass(self, rec: PassRecord):
        entries = rec.op(rec.tr.call, "corpus.corpus", corpus.corpus)
        if entries is None:
            return
        rec.counts["corpus.loads"] += 1
        schur_ids = {e.id for e in entries if e.expected_schur}
        rec.check(len(entries) == CORPUS_SIZE and schur_ids == SCHUR_PASS_IDS,
                  f"corpus has {len(entries)} entries and Schur-pass ids {sorted(schur_ids)}")
        for i, e in enumerate(entries):
            # one suite seed per entry, derived from the workload seed
            rep = rec.op(self._suite, e.fd, self.seed * 1000 + i, rec.tr)
            if rep is None:
                continue
            rec.counts["bialgebra.samples"] += rep.num_samples
            rec.counts["bialgebra.evals"] += sum(c.n_evals for c in rep.checks)
            rec.counts["bialgebra.theorem_violations"] += rep.theorem_violations
            rec.check(rep.theorem_violations == 0,
                      f"{e.id}: {rep.theorem_violations} theorem violations")
            falsified = rep["dual_young_falsify"].violations > 0
            rec.check(falsified == (e.id not in SCHUR_PASS_IDS),
                      f"{e.id}: dual Young falsifier {'fired' if falsified else 'silent'}")

    def _suite(self, fd, seed, tr):
        b = tr.call("bialgebra.canonical_from_fusion_data",
                    bialgebra.canonical_from_fusion_data, fd)
        return tr.call("bialgebra.inequality_suite", bialgebra.inequality_suite,
                       b, num_samples=self.samples, seed=seed)


WORKLOADS = {"census": Census, "rank5": Rank5, "ineq": Ineq}
