import numpy as np
import pytest

from fusionforge import corpus, criteria, rings
from fusionforge.criteria import (
    decision_tol,
    obstruction_report,
    schur_commutative,
    schur_noncommutative_falsify,
    schur_triple_sum,
)
from fusionforge.rings import cyclic_group_ring, fp_dimensions, global_fpdim
from fusionforge.spectral import CharacterTable, character_table, dual_fusion_coefficients


def brute_triple_sum(lam, j1, j2, j3):
    """Independent evaluation straight off the table."""
    return sum(
        lam[i, j1] * lam[i, j2] * lam[i, j3] / lam[i, 0] for i in range(lam.shape[0])
    )


def reference_schur_scan(lam):
    """The earlier scalar scan of schur_commutative (its ``decide_only``
    loop, run to the end): (worst value, worst 1-based triple, the value of
    every triple a <= b <= c)."""
    m = lam.shape[0]
    worst, arg, values = np.inf, None, {}
    for a in range(m):
        for b in range(a, m):
            for c in range(b, m):
                v = complex(np.sum(lam[:, a] * lam[:, b] * lam[:, c] / lam[:, 0].real)).real
                values[(a + 1, b + 1, c + 1)] = v
                if v < worst:
                    worst, arg = v, (a + 1, b + 1, c + 1)
    return worst, arg, values


def assert_same_worst(value, triple, ref_value, ref_triple, ref_values, mu, label):
    """The worst value agrees to rounding; the worst triple is the
    reference's wherever its minimum is apart from every other triple by
    more than rounding, and otherwise one the reference ranks as tied."""
    eps = 1e-12 * (1 + mu)
    assert abs(value - ref_value) <= eps, label
    rest = [v for t, v in ref_values.items() if t != ref_triple]
    if not rest or min(rest) - ref_value > eps:
        assert triple == ref_triple, label
    else:
        assert ref_values[triple] - ref_value <= eps, label


class TestTripleSum:
    def test_z3_brute_force_values(self):
        # oracle: the 3x3 DFT table gives sum_i w^{3i} = 3 for the triple
        # (2,2,2) and sum_i w^{4i} = 0 for (2,2,3)
        ct = character_table(cyclic_group_ring(3))
        v222 = schur_triple_sum(ct, 1, 1, 1)
        v223 = schur_triple_sum(ct, 1, 1, 2)
        assert v222 == pytest.approx(brute_triple_sum(ct.lam, 1, 1, 1), abs=1e-10)
        assert abs(v222 - 3.0) < 1e-9
        assert abs(v223) < 1e-9

    def test_unit_triple_is_fpdim(self, corpus_entries):
        for e in corpus_entries:
            if not rings.is_commutative(e.fd):
                continue
            ct = character_table(e.fd)
            v = schur_triple_sum(ct, 0, 0, 0)
            assert v.real == pytest.approx(global_fpdim(e.fd), rel=1e-9), e.id

    def test_ruled_out_210_value(self, ruled210):
        ct = character_table(ruled210)
        rep = schur_commutative(ct)
        assert rep.worst_value == pytest.approx(-65.0 / 42.0, abs=1e-8)

    def test_symmetry_under_permutations(self, f210):
        ct = character_table(f210)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = rng.integers(0, ct.rank, size=3)
            vals = {
                schur_triple_sum(ct, *perm)
                for perm in [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
            }
            base = schur_triple_sum(ct, a, b, c)
            assert all(abs(v - base) < 1e-10 for v in vals)

    def test_conjugate_pair_triple_nonnegative(self, corpus_entries):
        # sum_i lam_{i,j} conj(lam_{i,j}) / d_i = sum |lam|^2/d_i >= 0
        for e in corpus_entries:
            if not rings.is_commutative(e.fd):
                continue
            ct = character_table(e.fd)
            for j in range(ct.rank):
                jc = ct.conjugate_column(j)
                v = schur_triple_sum(ct, j, jc, 0)
                assert v.real >= -1e-9, (e.id, j)

    def test_imaginary_parts_small(self, corpus_entries):
        for e in corpus_entries:
            if not rings.is_commutative(e.fd):
                continue
            ct = character_table(e.fd)
            rep = schur_commutative(ct)
            mu = global_fpdim(e.fd)
            assert rep.max_imag <= 1e-8 * mu, e.id


class TestSchurCommutative:
    def test_census_on_34(self, frobenius34):
        passing = [
            e.id
            for e in frobenius34
            if schur_commutative(character_table(e.fd)).holds
        ]
        assert len(passing) == 6
        assert {"si210-2", "si660-15"} <= set(passing)  # f210, f660

    def test_single_path_matches_loop(self, frobenius34):
        for e in frobenius34:
            ct = character_table(e.fd)
            rep = schur_commutative(ct)
            worst, triple, values = reference_schur_scan(ct.lam)
            assert_same_worst(rep.worst_value, rep.worst_triple, worst, triple, values,
                              global_fpdim(e.fd), e.id)
            assert rep.holds == (worst >= -rep.tolerance), e.id
            assert len(rep.values) == len(values), e.id
            eps = 1e-12 * (1 + global_fpdim(e.fd))
            assert np.max(np.abs(rep.values - list(values.values()))) <= eps, e.id

    def test_tie_goes_to_the_first_triple(self):
        # Z/2: the sums at (1,1,2) and (2,2,2) are both exactly 0
        lam = np.array([[1.0, 1.0], [1.0, -1.0]])
        rep = schur_commutative(CharacterTable(lam, np.eye(2), 0.0))
        assert rep.worst_value == 0.0 and rep.worst_triple == (1, 1, 2)

    def test_dual_coefficients_negative_beyond_rounding_exactly_when_schur_fails(
            self, corpus_entries):
        """The dual structure constants of a ring that passes may still dip
        to rounding level below 0 (psl25: about -6e-18), so the README's
        reading is "negative beyond rounding", not "negative"."""
        for e in corpus_entries:
            ct = character_table(e.fd)
            low = float(dual_fusion_coefficients(e.fd, ct).min())
            holds = schur_commutative(ct).holds
            assert (low < -decision_tol(global_fpdim(e.fd))) == (not holds), e.id
            assert holds or low <= -1e-3, e.id  # failures are far from rounding

    def test_nf924_passes(self):
        fd = corpus.get("nf924").fd
        assert schur_commutative(character_table(fd)).holds


def reference_falsifier_prelude(fd, ct, tol):
    """The earlier commutative prelude of schur_noncommutative_falsify:
    every eigenvector triple a <= b <= c evaluated in loop order, up to the
    first one below -tol.  Returns (0-based triple, value) or None."""
    d = fp_dimensions(fd)
    N = np.asarray(fd.tensor, dtype=complex)
    V = ct.vectors
    m = fd.rank
    for a in range(m):
        for b in range(a, m):
            for c in range(b, m):
                q = [np.einsum("k,ikl,l->i", np.conj(V[:, j]), N, V[:, j]) for j in (a, b, c)]
                val = float(np.sum(q[0] * q[1] * q[2] / d).real)
                if val < -tol:
                    return (a, b, c), val
    return None


class TestFalsifier:
    def test_prelude_matches_loop(self, corpus_entries, ruled210):
        failing = []
        cases = [("r7-210-ruledout", ruled210)] + [(e.id, e.fd) for e in corpus_entries]
        for label, fd in cases:
            if not rings.is_commutative(fd):
                continue
            ct = character_table(fd)
            mu = global_fpdim(fd)
            ref = reference_falsifier_prelude(fd, ct, decision_tol(mu))
            w = schur_noncommutative_falsify(fd, num_samples=0)
            if schur_commutative(ct).holds:
                assert ref is None and w is None, label
                continue
            triple, value = ref
            assert w.sample_index == -1, label
            for u, j in zip(w.vectors, triple):
                assert np.array_equal(u, ct.vectors[:, j]), label
            assert abs(w.value - value) <= 1e-9 * (1 + mu), label
            failing.append(label)
        assert failing[0] == "r7-210-ruledout" and len(failing) == 31

    def test_commutative_rings_draw_no_sample(self, corpus_entries, ruled210, monkeypatch):
        """The character table decides a commutative ring: a witness exactly
        where schur_commutative fails, and no random draw either way."""
        cases = [(e.id, e.fd) for e in corpus_entries] + [("r7-210-ruledout", ruled210)]
        verdicts = [(label, fd, schur_commutative(character_table(fd)).holds)
                    for label, fd in cases if rings.is_commutative(fd)]

        def no_draw(*args, **kwargs):
            raise AssertionError("the falsifier drew a random sample")

        monkeypatch.setattr(criteria.np.random, "default_rng", no_draw)
        witnesses = {}
        for label, fd, holds in verdicts:
            w = schur_noncommutative_falsify(fd)
            assert (w is None) == holds, label
            if w is not None:
                witnesses[label] = w
        assert len(witnesses) == 31
        tol = decision_tol(global_fpdim(ruled210))
        assert abs(witnesses["r7-210-ruledout"].value + 65 / 42) <= tol

    def test_ruled_out_ring_yields_witness(self, ruled210):
        w = schur_noncommutative_falsify(ruled210, num_samples=0, seed=0)
        assert w is not None
        assert w.value < -1.0  # the -65/42 transfers through the eigenvectors

    def test_z3_no_witness(self):
        assert schur_noncommutative_falsify(cyclic_group_ring(3), 2000, seed=3) is None

    def test_trivial_ring(self):
        fd = rings.new_fusion_data([np.eye(1, dtype=int)])
        assert schur_noncommutative_falsify(fd, 500, seed=0) is None

    def test_deterministic(self, ruled210):
        w1 = schur_noncommutative_falsify(ruled210, 50, seed=9)
        w2 = schur_noncommutative_falsify(ruled210, 50, seed=9)
        assert w1.value == w2.value


class TestObstructionReport:
    def test_f660(self, f660):
        rep = obstruction_report(f660)
        assert rep.simple and rep.perfect and rep.frobenius_type
        assert rep.schur.holds
        assert rep.coefficient_bounds_hold
        d = rep.to_dict()
        assert d["schur_holds"] is True and d["fpdim"] == pytest.approx(660.0)

    def test_z4(self):
        rep = obstruction_report(cyclic_group_ring(4))
        assert not rep.simple

    def test_nf143(self):
        rep = obstruction_report(corpus.get("nf143").fd)
        assert rep.simple and rep.frobenius_type is False
        assert not rep.schur.holds
