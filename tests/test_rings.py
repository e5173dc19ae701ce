import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionforge import corpus, rings, search
from fusionforge.errors import (
    BadInvolution,
    NoDuality,
    NonSquare,
    NotIntegral,
    NoUnit,
    RankTooLarge,
)
from fusionforge.rings import (
    are_isomorphic,
    coefficient_bounds_report,
    cyclic_group_ring,
    fp_dimensions,
    global_fpdim,
    is_commutative,
    is_frobenius_type,
    is_integral,
    is_perfect,
    is_simple,
    new_fusion_data,
    permuted,
    proper_subrings,
    subring_closure,
    type_signature,
    verify_axioms,
)
from oracles import reference_pair_sum_slack


class TestConstruction:
    def test_trivial_ring(self):
        fd = new_fusion_data([np.eye(1, dtype=int)])
        assert fd.rank == 1
        assert verify_axioms(fd).all_ok
        assert global_fpdim(fd) == 1.0

    def test_psl25_from_matrices(self, psl25):
        assert psl25.rank == 5
        assert list(psl25.dual) == [0, 1, 2, 3, 4]

    def test_z3_duality(self):
        z3 = cyclic_group_ring(3)
        assert list(z3.dual) == [0, 2, 1]

    def test_nonsquare(self):
        with pytest.raises(NonSquare):
            new_fusion_data([np.eye(2), np.zeros((2, 3))])
        with pytest.raises(NonSquare, match="at least one matrix"):
            new_fusion_data([])

    def test_no_unit(self):
        with pytest.raises(NoUnit):
            new_fusion_data([np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)])
        # x_2 * 1 = x_1: row 1 of matrix 2 is not the second basis vector
        with pytest.raises(NoUnit, match="x_j \\* 1 != x_j"):
            new_fusion_data([np.eye(2, dtype=int), [[1, 0], [0, 1]]])

    def test_no_duality(self):
        m2 = [[0, 1], [0, 1]]  # unit column of matrix 2 is all zero
        with pytest.raises(NoDuality):
            new_fusion_data([np.eye(2, dtype=int), m2])

    def test_bad_involution(self):
        # dual would need 2 -> 3 -> 4 -> 2, not an involution
        eye = np.eye(4, dtype=int)
        m2 = np.zeros((4, 4), dtype=int)
        m2[0, 1] = 1
        m2[2, 0] = 1  # N[2,3,1]=1 says dual(2)=3
        m2[1, 3] = m2[3, 2] = 1
        m3 = np.zeros((4, 4), dtype=int)
        m3[0, 2] = 1
        m3[3, 0] = 1  # dual(3)=4
        m3[1, 1] = m3[2, 3] = 1
        m4 = np.zeros((4, 4), dtype=int)
        m4[0, 3] = 1
        m4[1, 0] = 1  # dual(4)=2
        m4[2, 2] = m4[3, 1] = 1
        with pytest.raises(BadInvolution):
            new_fusion_data([eye, m2, m3, m4])

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, mode, bad):
        """Checked first: a NaN would fail the unit check and an inf the
        duality check, each with a message about something else."""
        with pytest.raises(ValueError, match="must be finite"):
            new_fusion_data([np.eye(2), [[0, 1], [1, bad]]], mode=mode)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode must be 'exact' or 'float'"):
            new_fusion_data([np.eye(1)], mode="fuzzy")

    def test_exact_mode_needs_integers(self):
        with pytest.raises(ValueError, match="integer structure constants"):
            new_fusion_data([np.eye(2), [[0, 1], [1, 0.5]]])
        assert new_fusion_data([np.eye(2), [[0, 1], [1, 0.5]]], mode="float").mode == "float"

    def test_negative_entry(self):
        m2 = [[0, 1], [1, -1]]
        with pytest.raises(rings.NegativeEntry):
            new_fusion_data([np.eye(2, dtype=int), m2])

    def test_equal_rings_hash_equal(self, psl25):
        """Equality compares values, so the hash does too: an integer ring
        and its float copy, and float rings apart only by a -0.0 entry."""
        text = "frt 1\nrank 2\ndual 1 2\nmatrix 1\n1 {}\n0 1\nmatrix 2\n0 1\n1 0.5\n"
        pairs = [
            (psl25, rings.FusionData(psl25.tensor.astype(float), psl25.dual)),
            (corpus.parse_fusion_ring(text.format("0")),
             corpus.parse_fusion_ring(text.format("-0.0"))),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1


class TestVerifyAxioms:
    def test_all_paper_rings_pass_exactly(self, paper_entries):
        for e in paper_entries:
            rep = verify_axioms(e.fd)
            assert rep.all_ok, f"{e.id}: {rep.summary()}"

    def test_broken_associativity_is_witnessed(self, psl25):
        N = np.array(psl25.tensor)
        N[1, 1, 1] += 1
        fd = rings.FusionData(N, psl25.dual)
        rep = verify_axioms(fd)
        assert not rep["associativity"].ok
        assert rep["associativity"].witness is not None
        # the perturbed cell breaks reciprocity symmetry too? not necessarily;
        # associativity alone must flag it
        assert rep["associativity"].residual >= 1

    def test_float_mode_tolerance(self):
        m2 = [[0.0, 1.0], [1.0, (3.0 - 1.0) / np.sqrt(3.0)]]
        fd = new_fusion_data([np.eye(2), m2], mode="float")
        assert verify_axioms(fd).all_ok


class TestExactness:
    def test_float_tensor_is_not_exact(self, psl25):
        """A float tensor is compared with tolerances and written with its
        decimals, so it reads back as the same ring."""
        N = psl25.tensor.astype(float)
        N[1, 1, 1] = 1.5
        fd = rings.FusionData(N, psl25.dual)
        assert not fd.exact and fd.mode == "float"
        text = corpus.serialize_fusion_ring(fd)
        assert text.split("matrix 2\n", 1)[1].splitlines()[1].split()[1] == "1.5"
        assert corpus.parse_fusion_ring(text) == fd
        assert rings.FusionData(psl25.tensor, psl25.dual).exact

    def test_mode_is_not_an_argument(self, psl25):
        with pytest.raises(TypeError):
            rings.FusionData(psl25.tensor, psl25.dual, "exact")


class TestFPDimensions:
    def test_psl25_dims(self, psl25):
        d = fp_dimensions(psl25)
        assert np.allclose(d, [1, 3, 3, 4, 5], atol=1e-9)
        assert global_fpdim(psl25) == pytest.approx(60.0, abs=1e-8)

    def test_f210_dims(self, f210):
        assert np.allclose(sorted(fp_dimensions(f210)), [1, 5, 5, 5, 6, 7, 7], atol=1e-9)

    def test_rank5_nonintegral_dims(self):
        fd = corpus.get("r5sa-a").fd
        d = np.sort(fp_dimensions(fd))
        alpha = 1 + 2 * np.cos(2 * np.pi / 7)
        beta = 1 - 2 * np.cos(6 * np.pi / 7)
        assert np.allclose(d, [1, alpha, alpha, beta, alpha + beta - 1], atol=1e-9)

    def test_homomorphism_identity_on_corpus(self, corpus_entries):
        for e in corpus_entries:
            d = fp_dimensions(e.fd)
            N = np.asarray(e.fd.tensor, dtype=float)
            lhs = np.multiply.outer(d, d)
            rhs = np.einsum("jks,s->jk", N, d)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(lhs), e.id

    def test_broken_reciprocity_falls_back_to_spectral_radii(self):
        """A tensor that breaks Frobenius reciprocity has a nonsymmetric
        total matrix, so its ``eigh`` vector is no common eigenvector; the
        result is then the spectral radius of each M_i."""
        m2 = [[0, 1, 0], [1, 1, 2], [0, 0, 1]]
        m3 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        fd = new_fusion_data([np.eye(3, dtype=int), m2, m3], label="no-reciprocity")
        assert not verify_axioms(fd)["frobenius_reciprocity"].ok
        N = fd.tensor.astype(float)
        total = N.sum(axis=0)
        assert not np.array_equal(total, total.T)
        radii = [max(abs(np.linalg.eigvals(M))) for M in N]
        assert np.allclose(fp_dimensions(fd), radii, rtol=1e-12, atol=0)
        v = np.abs(np.linalg.eigh(total)[1][:, -1])
        assert not np.allclose(N @ v @ v / (v @ v), radii, atol=1e-3)

    def test_dims_respect_duality(self, corpus_entries):
        for e in corpus_entries:
            d = fp_dimensions(e.fd)
            assert np.allclose(d, d[e.fd.dual], atol=1e-9)
            assert np.array_equal(e.fd.dual[e.fd.dual], np.arange(e.fd.rank))


class TestTypeSignature:
    def test_psl27_type(self):
        sig = type_signature(corpus.get("psl27").fd)
        assert str(sig) == "[[1,1],[3,2],[6,1],[7,1],[8,1]]"
        assert sig.fpdim == 168 and sig.rank == 6

    def test_trivial(self):
        sig = type_signature(new_fusion_data([np.eye(1, dtype=int)]))
        assert str(sig) == "[[1,1]]" and sig.integral

    def test_nonintegral_flag(self):
        sig = type_signature(corpus.get("r5sa-b").fd)
        assert not sig.integral


class TestSubrings:
    def test_z4_generated_by_square(self):
        z4 = cyclic_group_ring(4)
        assert subring_closure(z4, [2]) == frozenset({0, 2})

    def test_dims112_subring(self, dims112):
        assert subring_closure(dims112, [1]) == frozenset({0, 1})
        assert proper_subrings(dims112) == [frozenset({0, 1})]

    def test_psl25_generates_everything(self, psl25):
        assert subring_closure(psl25, [1]) == frozenset(range(5))
        assert proper_subrings(psl25) == []

    def test_z4_proper_subrings(self):
        assert proper_subrings(cyclic_group_ring(4)) == [frozenset({0, 2})]

    def test_monotone_and_idempotent(self, f660):
        rng = np.random.default_rng(0)
        m = f660.rank
        for _ in range(20):
            small = set(rng.choice(m, size=2, replace=False).tolist())
            big = small | set(rng.choice(m, size=2, replace=False).tolist())
            cs, cb = subring_closure(f660, small), subring_closure(f660, big)
            assert cs <= cb
            assert subring_closure(f660, cs) == cs

    def test_rank_cap(self):
        with pytest.raises(RankTooLarge):
            proper_subrings(cyclic_group_ring(rings.SUBRING_RANK_CAP + 1))
        big = cyclic_group_ring(rings.ISO_RANK_CAP + 1)
        with pytest.raises(RankTooLarge):
            are_isomorphic(big, big)


class TestPredicates:
    def test_f210_flags(self, f210):
        assert is_simple(f210) and is_perfect(f210)
        assert is_integral(f210) and is_frobenius_type(f210)
        assert is_commutative(f210)

    def test_nf143_not_frobenius(self):
        fd = corpus.get("nf143").fd
        assert is_simple(fd)
        assert not is_frobenius_type(fd)

    def test_z4_not_simple(self):
        z4 = cyclic_group_ring(4)
        assert not is_simple(z4)
        assert not is_perfect(z4)

    def test_simple_above_subring_rank_cap(self):
        """``is_simple`` closes singletons only, so it has no rank cap:
        Z/17 has no proper subgroup, and Z/18 has five."""
        assert is_simple(cyclic_group_ring(17))
        assert not is_simple(cyclic_group_ring(18))

    def test_frobenius_requires_integral(self):
        fd = corpus.get("r5sa-a").fd
        with pytest.raises(NotIntegral):
            is_frobenius_type(fd)


class TestIsomorphism:
    def test_reflexive_on_corpus(self, corpus_entries):
        for e in corpus_entries:
            if e.fd.rank <= 8:
                assert are_isomorphic(e.fd, e.fd) is not None, e.id

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_is_detected(self, seed):
        fd = corpus.get("f210").fd
        rng = np.random.default_rng(seed)
        perm = np.concatenate([[0], 1 + rng.permutation(fd.rank - 1)])
        other = permuted(fd, perm)
        sigma = are_isomorphic(fd, other)
        assert sigma is not None
        # symmetry
        assert are_isomorphic(other, fd) is not None

    def test_distinct_210_rings(self, f210, ruled210):
        assert are_isomorphic(f210, ruled210) is None

    def test_dimension_swap(self, psl25):
        other = permuted(psl25, [0, 2, 1, 3, 4])  # swap the two dim-3 elements
        assert are_isomorphic(psl25, other) is not None


class TestCoefficientBounds:
    def test_hold_on_all_corpus(self, corpus_entries):
        for e in corpus_entries:
            rep = coefficient_bounds_report(e.fd)
            assert rep.all_hold, (e.id, rep)

    def test_pair_sum_matches_reference(self, corpus_entries):
        """Bound (4) from the two smallest dimensions equals the minimum
        over the six index pairs, slack and witness bitwise."""
        fds = [e.fd for e in corpus_entries] + search.rank5_three_selfadjoint_family(4)
        for fd in fds:
            assert coefficient_bounds_report(fd).pair_sum == reference_pair_sum_slack(fd), fd

    def test_trivial_slack(self):
        rep = coefficient_bounds_report(new_fusion_data([np.eye(1, dtype=int)]))
        assert rep.min_dim[0] == pytest.approx(0.0)

    def test_violation_detected(self, psl25):
        N = np.array(psl25.tensor)
        N[1, 1, 1] = 4  # exceeds d_2 = 3
        fd = rings.FusionData(N, psl25.dual)
        fd._fp_dims = fp_dimensions(psl25)  # keep the true dims
        rep = coefficient_bounds_report(fd)
        assert rep.min_dim[0] < 0
