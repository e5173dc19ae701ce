import itertools
import math

import numpy as np
import pytest

from fusionforge import bialgebra, corpus, rings, spectral
from fusionforge.bialgebra import (
    INV_P_GRID,
    SUITE_CHUNK,
    CheckResult,
    Element,
    Rank3Type1Params,
    _fold,
    _k_table,
    biprojections,
    canonical_from_fusion_data,
    inequality_suite,
    k_constant,
    rank2_family,
    rank3_dual_data,
    rank3_dual_schur,
    rank3_from_mnq,
    rank3_type1,
    rank3_type2,
)
from fusionforge.errors import (
    BadExponent,
    DegenerateSpectrum,
    InfeasibleParams,
    NotCommutative,
    SideMismatch,
)
from fusionforge.rings import cyclic_group_ring

from test_criteria import assert_same_worst


@pytest.fixture(scope="module")
def B60(psl25):
    return canonical_from_fusion_data(psl25)


@pytest.fixture(scope="module")
def Bz6():
    return canonical_from_fusion_data(cyclic_group_ring(6))


def rand_elem(B, rng, side):
    return B.element(rng.standard_normal(B.rank) + 1j * rng.standard_normal(B.rank), side)


class TestFourierLayer:
    def test_basis_maps_to_basis(self, B60):
        x = B60.basis(2, "A")
        y = B60.fourier(x)
        assert y.side == "B" and np.array_equal(y.coeffs, x.coeffs)
        back = B60.fourier_inv(y)
        assert back.side == "A" and np.array_equal(back.coeffs, x.coeffs)

    def test_element_wrong_length(self, B60):
        with pytest.raises(ValueError, match="expected 5 coefficients"):
            B60.element([1.0, 2.0], "A")

    def test_plancherel(self, B60):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rand_elem(B60, rng, "A")
            lhs = B60.norm(B60.fourier(x), 2)
            rhs = B60.norm(x, 2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    def test_fourier_tilde_on_basis(self, Bz6):
        # F~(x_j) = x_{j*}
        for j in range(6):
            y = Bz6.fourier_tilde(Bz6.basis(j, "B"))
            assert y.side == "A"
            expect = np.zeros(6)
            expect[Bz6.fd.dual[j]] = 1
            assert np.array_equal(y.coeffs, expect)
            back = Bz6.fourier_tilde_inv(y)
            assert back.side == "B" and np.array_equal(back.coeffs, Bz6.basis(j, "B").coeffs)

    def test_modular_conjugations_on_basis(self, Bz6):
        for j in range(6):
            jx = Bz6.modular_conj(Bz6.basis(j, "A"))
            assert np.argmax(np.abs(jx.coeffs)) == Bz6.fd.dual[j]
            jb = Bz6.modular_conj(Bz6.basis(j, "B"))
            assert np.argmax(np.abs(jb.coeffs)) == j

    def test_element_arithmetic(self):
        x, y = Element([1, 2], "A"), Element([3, -1], "A")
        for z, want in ((x + y, [4, 1]), (x - y, [-2, 3]), (2 * x, [2, 4])):
            assert z.side == "A" and np.array_equal(z.coeffs, want)
        with pytest.raises(SideMismatch):
            x + y.retag("B")
        with pytest.raises(SideMismatch):
            x - y.retag("B")
        with pytest.raises(SideMismatch, match="unknown side 'C'"):
            Element([1], "C")

    def test_side_mismatch(self, B60):
        x = B60.basis(1, "A")
        y = B60.basis(1, "B")
        with pytest.raises(SideMismatch):
            B60.mult(x, y)
        with pytest.raises(SideMismatch):
            B60.fourier(y)


class TestProducts:
    def test_minimal_projections_diagonal(self, B60):
        # e_j = d_j x_j are orthogonal idempotents of A
        d = B60.dims
        for j in range(5):
            e = B60.element(np.eye(5)[j] * d[j], "A")
            sq = B60.mult(e, e)
            assert np.allclose(sq.coeffs, e.coeffs, atol=1e-12)

    def test_conv_is_fusion_product(self, B60):
        # x_j * x_k on A = sum_s N[j,k,s] x_s
        for j in range(5):
            for k in range(5):
                z = B60.conv(B60.basis(j, "A"), B60.basis(k, "A"))
                assert np.allclose(z.coeffs, B60.fd.tensor[j, k], atol=1e-12)

    def test_conv_b_on_dft_idempotents(self, Bz6):
        # direct expansion: P_a *_B P_b has coefficients
        # (1/n^2) w^{-(a+b)i}, i.e. (1/n) P_c for the character c = a + b --
        # the dual convolution reproduces the dual group, scaled by 1/n
        from fusionforge.spectral import character_table, dual_projections

        ct = character_table(Bz6.fd)
        projs = dual_projections(Bz6.fd, ct)
        n = 6
        for j in range(n):
            for k in range(n):
                pj = Bz6.element(projs[j], "B")
                pk = Bz6.element(projs[k], "B")
                z = Bz6.conv_b(pj, pk)
                matches = [
                    c
                    for c in range(n)
                    if np.allclose(z.coeffs, projs[c] / n, atol=1e-10)
                ]
                assert len(matches) == 1, (j, k)

    def test_trace(self, B60):
        assert B60.trace(B60.unit("A")) == pytest.approx(60.0)
        assert B60.trace(B60.unit("B")) == pytest.approx(1.0)


class TestNormsSupportsEntropy:
    def test_basis_infinity_norm_is_dim(self, B60):
        for j in range(5):
            assert B60.norm(B60.basis(j, "B"), np.inf) == pytest.approx(B60.dims[j])

    def test_two_norm_two_routes(self, B60):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rand_elem(B60, rng, "B")
            spectral = B60.norm(x, 2)
            coeff = float(np.linalg.norm(x.coeffs))
            assert abs(spectral - coeff) <= 1e-10 * max(1.0, coeff)

    def test_unit_one_norm(self, B60):
        assert B60.norm(B60.unit("A"), 1) == pytest.approx(60.0)

    def test_bad_exponent(self, B60):
        with pytest.raises(BadExponent):
            B60.norm(B60.unit("A"), 0.5)
        for t in (1, 0, -2):
            with pytest.raises(BadExponent):
                B60.renyi_entropy(B60.unit("A"), t)

    def test_nan_exponent(self, B60):
        """A NaN p is no exponent, not the sup norm that p = inf gives."""
        x = B60.element([1, 2j, 0, 0, 1], "A")
        assert B60.norm(x, np.inf) == pytest.approx(1.0)
        for side in ("A", "B"):
            with pytest.raises(BadExponent, match="outside"):
                B60.norm(x.retag(side), math.nan)

    def test_supports(self, B60):
        assert B60.support(B60.unit("A")) == pytest.approx(60.0)
        e2 = B60.element([0, 3, 0, 0, 0], "A")
        assert B60.support(e2) == pytest.approx(9.0)

    def test_group_element_support_product(self, Bz6):
        # group elements are unitaries of B: full range projection, but
        # tau is normalized so S_B = tau(1) = 1; together with S_A = 1 the
        # Donoho-Stark product is exactly 1 (group elements are extremizers)
        xg = Bz6.basis(1, "A")
        assert Bz6.support(xg) == pytest.approx(1.0)
        assert Bz6.support(Bz6.fourier(xg)) == pytest.approx(1.0)

    def test_uniform_entropy(self, Bz6):
        u = Bz6.element(np.ones(6) / math.sqrt(6), "A")
        assert Bz6.entropy(u) == pytest.approx(math.log(6), abs=1e-10)

    def test_minimal_projection_entropy_zero(self, Bz6):
        # a 2-normalized minimal projection of A with d_j = 1 is pure
        e = Bz6.basis(2, "A")
        assert Bz6.norm(e, 2) == pytest.approx(1.0)
        assert Bz6.entropy(e) == pytest.approx(0.0, abs=1e-12)
        for t in (0.5, 2, 3):
            assert Bz6.renyi_entropy(e, t) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_nonnegative_on_A_normalized(self, B60):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rand_elem(B60, rng, "A")
            xn = B60.element(x.coeffs / B60.norm(x, 2), "A")
            assert B60.entropy(xn) >= -1e-10

    def test_holder_monotone_after_normalization(self, B60):
        # mu^{-1/p} ||x||_{p,A} is nondecreasing in p (power-mean inequality)
        rng = np.random.default_rng(11)
        ps = [1, 1.5, 2, 3, 6, 10]
        for _ in range(30):
            x = rand_elem(B60, rng, "A")
            vals = [B60.mu ** (-1.0 / p) * B60.norm(x, p) for p in ps]
            assert all(a <= b + 1e-9 * max(1, b) for a, b in zip(vals, vals[1:]))


class TestKConstant:
    def test_regions(self):
        mu = 60.0
        assert k_constant(0.0, 0.0, mu) == 1.0
        assert k_constant(1.0, 0.0, mu) == 1.0  # on the critical line
        assert k_constant(0.5, 0.5, mu) == 1.0
        assert k_constant(0.0, 1.0, mu) == pytest.approx(mu**0.5)
        assert k_constant(1.0, 1.0, mu) == pytest.approx(mu)
        assert k_constant(0.25, 0.75, mu) == pytest.approx(mu**0.25)
        assert k_constant(0.75, 0.75, mu) == pytest.approx(mu**0.5)

    @pytest.mark.parametrize("ip,iq", [(math.nan, 0.5), (0.5, math.nan), (-0.1, 0.5),
                                       (0.5, 1.5)])
    def test_exponent_outside_unit_square_raises(self, ip, iq):
        with pytest.raises(BadExponent):
            k_constant(ip, iq, 60.0)

    def test_continuity_at_boundaries(self):
        mu = 17.0
        eps = 1e-9
        for ip, iq in [(0.5, 0.7), (0.3, 0.5), (0.7, 0.3)]:
            base = k_constant(ip, iq, mu)
            for dip, diq in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
                assert k_constant(ip + dip, iq + diq, mu) == pytest.approx(base, rel=1e-6)

    @staticmethod
    def assert_table_matches_k_constant(mu):
        # the grid holds the region boundaries, where k_constant takes a minimum
        K = _k_table(mu)
        assert K.shape == (11, 11) and not K.flags.writeable and _k_table(mu) is K
        for i, ip in enumerate(INV_P_GRID):
            for j, iq in enumerate(INV_P_GRID):
                assert K[i, j] == k_constant(ip, iq, mu), (mu, ip, iq)

    @pytest.mark.parametrize("mu", [1.0, 2.0, 3.5, 60.0, 7980.0, 1e6])
    def test_table_matches_k_constant(self, mu):
        self.assert_table_matches_k_constant(mu)

    def test_table_matches_k_constant_on_corpus(self, corpus_entries):
        # numpy's vectorised power differs from Python's in the last place on
        # some of these entries
        for e in corpus_entries:
            self.assert_table_matches_k_constant(canonical_from_fusion_data(e.fd).mu)


class TestFamilies:
    def test_rank2(self):
        B = rank2_family(4.0)
        assert rings.verify_axioms(B.fd).all_ok
        d2 = math.sqrt(3.0)
        assert B.fd.tensor[1, 1, 1] == pytest.approx((d2 * d2 - 1) / d2)
        with pytest.raises(InfeasibleParams):
            rank2_family(1.5)

    @pytest.mark.parametrize("family", [rank2_family, rank3_type2])
    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu(self, family, mu):
        with pytest.raises(InfeasibleParams, match="needs finite mu"):
            family(mu)

    @pytest.mark.parametrize("mnq", [(math.nan, 1, 0), (0, math.nan, 0), (0, 1, math.inf)])
    def test_non_finite_mnq(self, mnq):
        with pytest.raises(InfeasibleParams, match="must be finite"):
            rank3_from_mnq(*mnq)

    def test_rank3_from_mnq_needs_positive_n(self):
        with pytest.raises(InfeasibleParams, match="n must be positive"):
            rank3_from_mnq(0, 0, 1)

    def test_rank3_type2_at_mu9(self):
        B = rank3_type2(9.0)
        assert np.allclose(B.dims, [1, 2, 2], atol=1e-9)
        assert B.fd.tensor[1, 1, 1] == pytest.approx(0.75)
        assert B.fd.tensor[1, 1, 2] == pytest.approx(1.25)
        assert rings.verify_axioms(B.fd).all_ok
        with pytest.raises(InfeasibleParams):
            rank3_type2(2.5)

    def test_rank3_type2_mu3_is_z3(self):
        B = rank3_type2(3.0)
        z3 = cyclic_group_ring(3)
        assert np.allclose(B.fd.tensor, np.asarray(z3.tensor, float), atol=1e-9)

    def test_rank3_type1_integer_points(self):
        for mnq in [(0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 1, 1)]:
            params = rank3_from_mnq(*mnq)
            B = rank3_type1(params)
            assert rings.verify_axioms(B.fd).all_ok, mnq

    def test_rank3_type1_hits_rep_s3_ring(self, dims112):
        # (d2, d3, a) = (1, 2, 0) is the representation ring of S3
        B = rank3_type1(Rank3Type1Params(1.0, 2.0, 0.0))
        assert np.allclose(B.fd.tensor, np.asarray(dims112.tensor, float), atol=1e-12)

    def test_rank3_infeasible(self):
        with pytest.raises(InfeasibleParams):
            Rank3Type1Params(1.2, 5.0, 0.5).validate()  # d2^2 - 1 - a d3^2 < 0
        with pytest.raises(InfeasibleParams):
            Rank3Type1Params(5.0, 1.2, 0.5).validate()  # d3^2 - 1 - b d2^2 < 0
        with pytest.raises(InfeasibleParams):
            Rank3Type1Params(2.0, 2.0, 1.5).validate()
        # NaN fails every bound comparison and infinity meets the bounds
        for bad in (math.nan, math.inf, -math.inf):
            for params in (Rank3Type1Params(bad, 500.0, 0.5),
                           Rank3Type1Params(1000.0, bad, 0.5),
                           Rank3Type1Params(1000.0, 500.0, bad)):
                with pytest.raises(InfeasibleParams, match="must be finite"):
                    params.validate()


def sign_agreement_points():
    """15 random admissible rank-3 points, each with the results of
    rank3_dual_schur and of the character-table criterion."""
    from fusionforge.criteria import schur_commutative
    from fusionforge.spectral import character_table

    rng = np.random.default_rng(20)
    out = []
    while len(out) < 15:
        d2 = float(rng.uniform(1, 6))
        d3 = float(rng.uniform(1, 6))
        a = float(rng.uniform(0, 1))
        p = Rank3Type1Params(d2, d3, a)
        try:
            p.validate()
        except InfeasibleParams:
            continue
        r2 = schur_commutative(character_table(rank3_type1(p).fd))
        out.append((p, rank3_dual_schur(p), r2))
    return out


def reference_rank3_dual_schur(p):
    """The earlier scalar loop of rank3_dual_schur over the scaled dual
    projections: (worst value, worst 1-based triple, every triple's value,
    tolerance, mu)."""
    data = rank3_dual_data(p)
    bialg = rank3_type1(p)
    d = bialg.dims
    qs = [
        bialg.mu * data.q1.coeffs.real,
        data.nu2 * data.q2.coeffs.real,
        data.nu3 * data.q3.coeffs.real,
    ]
    worst, arg, values = math.inf, None, {}
    for i in range(3):
        for j in range(i, 3):
            for k in range(j, 3):
                val = float(np.sum(qs[i] * qs[j] * qs[k] / d))
                values[(i + 1, j + 1, k + 1)] = val
                if val < worst:
                    worst, arg = val, (i + 1, j + 1, k + 1)
    return worst, arg, values, 1e-9 * (1 + bialg.mu), bialg.mu


class TestRank3Dual:
    def test_degenerate_branch_a1(self):
        d = rank3_dual_data(Rank3Type1Params(3.0, 2.0, 1.0))
        assert d.lambda2 == pytest.approx(0.0, abs=1e-12)
        assert d.lambda3 == pytest.approx(1.0 * 2.0**2 + 1.0)

    def test_vieta(self):
        p = Rank3Type1Params(4.0, 3.0, 0.6)
        d = rank3_dual_data(p)
        assert d.lambda2 + d.lambda3 == pytest.approx(p.a * 9 - p.b * 16 + 1)
        assert d.lambda2 * d.lambda3 == pytest.approx(-p.b * 16)
        for lam, nu in [(d.lambda2, d.nu2), (d.lambda3, d.nu3)]:
            assert nu == pytest.approx(1 + lam**2 / 16 + (1 - lam) ** 2 / 9)

    def test_counterexample_point(self):
        res = rank3_dual_schur(Rank3Type1Params(1000.0, 500.0, 0.750001))
        assert res["min_value"] < 0
        assert not res["holds"]

    def test_asymptotic_regime(self):
        a, b = 0.75, 0.25
        d2 = 1.0e4
        d3 = math.sqrt(1 + b * d2 * d2)
        data = rank3_dual_data(Rank3Type1Params(d2, d3, a))
        B = rank3_type1(Rank3Type1Params(d2, d3, a))
        val = data.nu2**3 * float(np.sum(data.q2.coeffs.real**3 / B.dims))
        target = b**6 - b**4
        assert abs(val / d2**2 - target) <= 0.05 * abs(target)

    def test_categorifiable_point_holds(self):
        assert rank3_dual_schur(rank3_from_mnq(0, 1, 1))["holds"]

    def test_sign_agreement_with_character_criterion(self):
        for p, r1, r2 in sign_agreement_points():
            assert r1["holds"] == r2.holds, (p, r1["min_value"], r2.worst_value)

    def test_shared_triple_sums_match_loop(self):
        points = [Rank3Type1Params(1000.0, 500.0, 0.750001), rank3_from_mnq(0, 1, 1)]
        points += [p for p, _, _ in sign_agreement_points()]
        for p in points:
            res = rank3_dual_schur(p)
            worst, triple, values, tol, mu = reference_rank3_dual_schur(p)
            assert_same_worst(res["min_value"], res["worst_triple"], worst, triple, values, mu, p)
            assert res["holds"] == (worst >= -tol), p


class TestRank3Table:
    """The closed-form character table that rank3_dual_data keeps."""

    POINTS = [Rank3Type1Params(1000.0, 500.0, 0.750001), Rank3Type1Params(3.0, 3.0, 0.5),
              Rank3Type1Params(3.0, 2.0, 1.0), rank3_from_mnq(0, 1, 1)]

    def test_columns_vectors_and_residual(self):
        for p in self.POINTS:
            data = rank3_dual_data(p)
            ct, fd = data.table, rank3_type1(p).fd
            lams = np.array([data.lambda2, data.lambda3])
            assert np.array_equal(ct.lam[:, 0], [1.0, p.d2, p.d3])
            assert np.array_equal(ct.lam[:, 1:], [[1.0, 1.0], -lams / p.d2, -(1 - lams) / p.d3])
            assert ct.column_order == ()
            assert not ct.lam.flags.writeable and not ct.vectors.flags.writeable
            assert np.allclose(np.linalg.norm(ct.vectors, axis=0), 1.0, rtol=1e-15)
            top = ct.vectors[np.abs(ct.vectors).argmax(axis=0), np.arange(3)]
            assert (top > 0).all()
            assert ct.residual == spectral.verify_character_table(fd, ct)
            scale = np.abs(fd.tensor).max() * 3 + 1.0
            assert ct.residual <= 1e-6 * spectral.RESIDUAL_TOL * scale, p

    def test_projections_and_norms_come_from_the_table(self):
        for p in self.POINTS:
            data = rank3_dual_data(p)
            P = spectral.dual_projections(rank3_type1(p).fd, data.table)
            for q, row in zip((data.q1, data.q2, data.q3), P):
                assert q.side == "B" and np.array_equal(q.coeffs, row)
            assert [data.nu2, data.nu3] == data.table.norms[1:].tolist()


class TestBiprojections:
    def test_z4(self):
        B = canonical_from_fusion_data(cyclic_group_ring(4))
        assert len(biprojections(B)) == 3

    def test_simple_ring_has_two(self, B60):
        assert len(biprojections(B60)) == 2

    def test_dims112_has_three(self, dims112):
        B = canonical_from_fusion_data(dims112)
        assert len(biprojections(B)) == 3


class TestInequalitySuite:
    def test_clean_on_psl25(self, B60):
        rep = inequality_suite(B60, num_samples=120, seed=42)
        assert rep.theorem_violations == 0
        names = {c.name for c in rep.checks}
        assert {
            "plancherel", "hausdorff_young_A", "hausdorff_young_B", "norm_bounds_K",
            "donoho_stark_A", "donoho_stark_B", "hirschman_beckner", "renyi",
            "young_A", "conv_norm_identity", "sumset", "dual_young_positive",
            "dual_young_falsify",
        } <= names

    def test_falsifier_finds_dual_young_violation(self):
        B = rank3_type1(Rank3Type1Params(1000.0, 500.0, 0.750001))
        rep = inequality_suite(B, num_samples=50, seed=7)
        assert rep.theorem_violations == 0
        assert rep["dual_young_falsify"].violations > 0

    def test_no_false_positive_on_schur_passing_ring(self, Bz6):
        rep = inequality_suite(Bz6, num_samples=100, seed=0)
        assert rep.theorem_violations == 0
        assert rep["dual_young_falsify"].violations == 0

    def test_json_roundtrip(self, B60):
        import json

        rep = inequality_suite(B60, num_samples=5, seed=1)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["num_samples"] == 5
        assert len(payload["checks"]) == 13

    def test_probes_skipped_names_the_reason(self, psl25, monkeypatch):
        # fresh rings: a ring keeps its probe outcome from its first suite on
        from fusionforge import spectral

        def fresh():
            return canonical_from_fusion_data(rings.FusionData(psl25.tensor, psl25.dual))

        assert inequality_suite(fresh(), num_samples=3, seed=1).probes_skipped is None

        def degenerate(fd, *args, **kwargs):
            raise DegenerateSpectrum("forced collapse")

        monkeypatch.setattr(spectral, "character_table", degenerate)
        rep = inequality_suite(fresh(), num_samples=3, seed=1)
        assert rep.probes_skipped == "DegenerateSpectrum: forced collapse"
        assert rep.to_dict()["probes_skipped"] == rep.probes_skipped
        assert rep["dual_young_falsify"].n_evals == 3 + 5  # samples + basis/Perron pairs

        def broken(fd, *args, **kwargs):
            raise TypeError("a bug, not a spectral failure")

        monkeypatch.setattr(spectral, "character_table", broken)
        with pytest.raises(TypeError):
            inequality_suite(fresh(), num_samples=3, seed=1)

    def test_dual_projections_built_once(self, psl25, monkeypatch):
        """The targeted probes build the dual projections once per ring and
        take the dual structure constants from them; a later suite on the
        ring reads the kept outcome."""
        from fusionforge import spectral

        calls, real = [], spectral.dual_projections
        monkeypatch.setattr(spectral, "dual_projections",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        B = canonical_from_fusion_data(rings.FusionData(psl25.tensor, psl25.dual))
        assert inequality_suite(B, num_samples=3, seed=1).probes_skipped is None
        assert len(calls) == 1
        assert inequality_suite(B, num_samples=3, seed=1).probes_skipped is None
        assert len(calls) == 1

    def test_suites_on_one_ring_build_one_table(self, psl25, monkeypatch):
        from fusionforge import spectral

        fd, calls, real = rings.FusionData(psl25.tensor, psl25.dual), [], spectral._character_tables
        monkeypatch.setattr(spectral, "_character_tables",
                            lambda fds: calls.append(len(fds)) or real(fds))
        assert fd._char_table is None
        first = inequality_suite(canonical_from_fusion_data(fd), num_samples=20, seed=3)
        second = inequality_suite(canonical_from_fusion_data(fd), num_samples=20, seed=3)
        assert calls == [1] and fd._char_table is not None
        assert second.to_dict() == first.to_dict()  # the kept table answers as the new one did

    def test_memory_bounded_by_the_chunk(self):
        import tracemalloc

        peaks = []
        for n in (SUITE_CHUNK, 8 * SUITE_CHUNK):
            B = canonical_from_fusion_data(cyclic_group_ring(12))  # both take the probes
            tracemalloc.start()
            inequality_suite(B, num_samples=n, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    def test_conv_b_one_norm_factorizes_on_schur_rings(self, B60, Bz6, f210):
        # on a Schur-passing ring, ||x *_B y||_1 = ||x||_1 ||y||_1 for x, y >= 0
        from fusionforge.bialgebra import canonical_from_fusion_data

        rng = np.random.default_rng(4)
        for B in (B60, Bz6, canonical_from_fusion_data(f210)):
            for _ in range(20):
                w = rand_elem(B, rng, "B")
                v = rand_elem(B, rng, "B")
                x = B.mult(B.star(w), w)  # w* w >= 0
                y = B.mult(B.star(v), v)
                lhs = B.norm(B.conv_b(x, y), 1)
                rhs = B.norm(x, 1) * B.norm(y, 1)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# reference: the per-sample inequality loop the batched suite replaced, with
# its own per-element norms, supports and entropies (side B from the characters
# term by term on a commutative ring, from an SVD of each element otherwise)


def _p_of(ip):
    return np.inf if ip == 0 else 1.0 / ip


def _ref_spectrum_b(B, x, lam):
    """Squared singular values and tau-weights of the side-B element x: with
    the character table ``lam`` of a commutative ring, |chi_t(x)|^2 and
    1 / sum_j |lambda_jt|^2 summed term by term; without one, the squared
    singular values of X and the tau-weights of its right singular vectors."""
    if lam is None:
        _, s, vh = np.linalg.svd(B.rep(x))
        return s * s, np.abs(vh[:, 0]) ** 2
    m = B.rank
    chi = [sum(x.coeffs[j] * lam[j, t] for j in range(m)) for t in range(m)]
    omega = [1.0 / sum(abs(lam[j, t]) ** 2 for j in range(m)) for t in range(m)]
    return np.abs(chi) ** 2, np.array(omega)


def _ref_norm(B, x, p, lam):
    if x.side == "A":
        t = np.abs(x.coeffs / B.dims)
        if p == np.inf:
            return float(t.max())
        return float(np.sum((t**p) * B.dims**2) ** (1.0 / p))
    w, omega = _ref_spectrum_b(B, x, lam)
    if p == np.inf:
        return float(np.sqrt(w.max()))
    return float(np.sum(omega * w ** (p / 2.0)) ** (1.0 / p))


def _ref_support(B, x, lam, rank_tol=1e-8):
    if x.side == "A":
        t = np.abs(x.coeffs / B.dims)
        if t.max() == 0.0:
            return 0.0
        return float(np.sum((B.dims**2)[t > rank_tol * t.max()]))
    w, omega = _ref_spectrum_b(B, x, lam)
    s = np.sqrt(w)
    if s.max() == 0.0:
        return 0.0
    return float(np.sum(omega[s > rank_tol * s.max()]))


def _ref_entropy(B, x, lam):
    if x.side == "A":
        t = np.abs(x.coeffs / B.dims) ** 2
        w = B.dims**2
        mask = t > 0
        return float(-np.sum(w[mask] * t[mask] * np.log(t[mask])))
    w, omega = _ref_spectrum_b(B, x, lam)
    mask = w > 0
    return float(-np.sum(omega[mask] * w[mask] * np.log(w[mask])))


class _RefTracker:
    """One check of the reference loop; also keeps the second-best slack."""

    def __init__(self, name, is_falsifier=False):
        self.name, self.is_falsifier = name, is_falsifier
        self.worst_slack = self.second = math.inf
        self.n_evals = self.violations = 0
        self.worst_detail = {}

    def add(self, slack, tol, **detail):
        self.n_evals += 1
        if slack < self.worst_slack:
            self.second = self.worst_slack
            self.worst_slack, self.worst_detail = slack, detail
        elif slack < self.second:
            self.second = slack
        if slack < -tol:
            self.violations += 1


def reference_inequality_suite(B, num_samples, seed, tol=1e-8):
    from fusionforge import spectral
    from fusionforge.bialgebra import INV_P_GRID, Element

    rng = np.random.default_rng(seed)
    m, mu, grid = B.rank, B.mu, INV_P_GRID
    names = ["plancherel", "hausdorff_young_A", "hausdorff_young_B", "norm_bounds_K",
             "donoho_stark_A", "donoho_stark_B", "hirschman_beckner", "renyi", "young_A",
             "conv_norm_identity", "sumset", "dual_young_positive", "dual_young_falsify"]
    (plancherel, hy_a, hy_b, kb, ds_a, ds_b, hb, ren, yg, cni, ss, dyp, dyf) = trackers = [
        _RefTracker(n, n == "dual_young_falsify") for n in names]
    hy_grid = [ip for ip in grid if 0.5 <= ip <= 1.0]
    young_pairs = [(ip, iq) for ip in grid for iq in grid if ip + iq >= 1.0]

    def rand_elem(side):
        return Element(rng.standard_normal(m) + 1j * rng.standard_normal(m), side)

    targeted = [(B.basis(j, "B"), Element(B.dims.astype(complex), "B")) for j in range(m)]
    lam = None
    try:
        ct = spectral.character_table(B.fd)
        lam = ct.lam
        projs = [Element(p, "B") for p in spectral.dual_projections(B.fd, ct)]
        nhat = spectral.dual_fusion_coefficients(B.fd, ct)
        for a in range(m):
            for b in range(a, m):
                targeted.append((projs[a], projs[b]))
        a, b, _ = np.unravel_index(int(np.argmin(nhat)), nhat.shape)
        sgn = np.sign(nhat[a, b])
        sgn[sgn == 0] = 1.0
        u = Element(sum(s * p.coeffs for s, p in zip(sgn, projs)), "B")
        targeted += [(u, p) for p in projs]
    except NotCommutative:
        pass
    norm, support, entropy = (lambda x, p: _ref_norm(B, x, p, lam),
                              lambda x: _ref_support(B, x, lam), lambda x: _ref_entropy(B, x, lam))

    for it in range(num_samples):
        x_a, y_a, x_b, y_b = rand_elem("A"), rand_elem("A"), rand_elem("B"), rand_elem("B")
        norms_a_x = {ip: norm(x_a, _p_of(ip)) for ip in grid}
        norms_a_y = {ip: norm(y_a, _p_of(ip)) for ip in grid}
        fx = B.fourier(x_a)
        norms_b_fx = {ip: norm(fx, _p_of(ip)) for ip in grid}
        dev = abs(norms_b_fx[0.5] - norms_a_x[0.5])
        plancherel.add(-dev, 1e-10 * max(1.0, norms_a_x[0.5]), sample=it)
        for ip in hy_grid:
            hy_a.add(norms_a_x[ip] - norms_b_fx[round(1.0 - ip, 1)], tol, ip=ip, sample=it)
        ftx = B.fourier_tilde(x_b)
        norms_b_x = {ip: norm(x_b, _p_of(ip)) for ip in grid}
        norms_a_ftx = {ip: norm(ftx, _p_of(ip)) for ip in grid}
        for ip in hy_grid:
            hy_b.add(norms_b_x[ip] - norms_a_ftx[round(1.0 - ip, 1)], tol, ip=ip, sample=it)
        for ip in grid:
            np_b = norms_b_x[ip]
            for iq in grid:
                K_up = k_constant(ip, iq, mu)
                K_lo = k_constant(round(1.0 - ip, 1), round(1.0 - iq, 1), mu)
                nq_a = norms_a_ftx[iq]
                kb.add(K_up * np_b - nq_a, tol * max(1.0, K_up * np_b),
                       ip=ip, iq=iq, side="ub", sample=it)
                kb.add(nq_a - np_b / K_lo, tol * max(1.0, nq_a),
                       ip=ip, iq=iq, side="lb", sample=it)
        ds_a.add(support(x_a) * support(fx) - 1.0, tol, sample=it)
        ds_b.add(support(x_b) * support(ftx) - 1.0, tol, sample=it)
        n2 = norms_a_x[0.5]
        hb.add(entropy(x_a) + entropy(fx) + 4.0 * n2 * n2 * math.log(n2),
               tol * max(1.0, n2 * n2), sample=it)
        xn = Element(x_a.coeffs / n2, "A")
        fxn = Element(xn.coeffs, "B")
        log_b = {ip: math.log(norm(fxn, _p_of(ip))) for ip in grid}
        log_a = {ip: math.log(norm(xn, _p_of(ip))) for ip in grid}
        for it_ in grid:
            for is_ in grid:
                ren.add(log_b[it_] - log_a[is_] + math.log(k_constant(it_, is_, mu)), tol,
                        inv_t=it_, inv_s=is_, sample=it)
        xy = B.conv(x_a, y_a)
        for ip, iq in young_pairs:
            lhs = norm(xy, _p_of(round(ip + iq - 1.0, 10)))
            rhs = norms_a_x[ip] * norms_a_y[iq]
            yg.add(rhs - lhs, tol * max(1.0, rhs), ip=ip, iq=iq, sample=it)
        xp, yp = Element(np.abs(x_a.coeffs), "A"), Element(np.abs(y_a.coeffs), "A")
        lhs = norm(B.conv(xp, yp), 1)
        rhs = norm(xp, 1) * norm(yp, 1)
        cni.add(-abs(lhs - rhs), tol * max(1.0, rhs), sample=it)
        s_conv = support(B.conv(B.range_projection(x_a), B.range_projection(y_a)))
        ss.add(s_conv - max(support(x_a), support(y_a)), tol * max(1.0, s_conv), sample=it)
        xbp = Element(np.abs(x_b.coeffs), "B")
        rhs = norm(xbp, np.inf) * norm(y_b, 1)
        dyp.add(rhs - norm(B.conv_b(xbp, y_b), np.inf), tol * max(1.0, rhs), sample=it)
        rhs = norm(x_b, np.inf) * norm(y_b, 1)
        dyf.add(rhs - norm(B.conv_b(x_b, y_b), np.inf), tol * max(1.0, rhs), sample=it)

    for x_b, y_b in targeted:
        rhs = norm(x_b, np.inf) * norm(y_b, 1)
        dyf.add(rhs - norm(B.conv_b(x_b, y_b), np.inf), tol * max(1.0, rhs), sample=-1)
    return trackers


def _s3_group_ring():
    perms = sorted(itertools.permutations(range(3)))  # identity first
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(g[h[k]] for k in range(3))] for h in perms] for g in perms]
    return rings.group_ring(np.array(table), label="S3")


# the two identity checks: their slack is rounding noise, not a bound
_NOISE_CHECKS = ("plancherel", "conv_norm_identity")


def assert_matches_reference(B, num_samples, seed):
    tol = bialgebra.SLACK_TOL
    rep = inequality_suite(B, num_samples=num_samples, seed=seed)
    ref = reference_inequality_suite(B, num_samples, seed, tol)
    assert [c.name for c in rep.checks] == [r.name for r in ref]
    for c, r in zip(rep.checks, ref):
        where = (B.fd.label, seed, c.name)
        assert (c.n_evals, c.violations, c.is_falsifier) == (
            r.n_evals, r.violations, r.is_falsifier), where
        if tol < 0:
            continue
        if c.name in _NOISE_CHECKS:
            assert c.violations == 0, where
            continue
        s = r.worst_slack
        assert c.worst_slack == s or abs(c.worst_slack - s) <= 1e-12 * (1 + abs(s)), where
        if r.second - s > 1e-12:
            assert c.worst_detail == r.worst_detail, where
    return rep


class TestSideBModuli:
    """Side-B norms, supports and entropies: the characters of a commutative
    ring against an SVD of each element's matrix, which a noncommutative
    ring takes itself."""

    def test_against_svd(self, corpus_entries):
        rng = np.random.default_rng(5)
        for fd in [e.fd for e in corpus_entries] + [_s3_group_ring()]:
            B = canonical_from_fusion_data(fd)
            (elements, x, y), _ = bialgebra._dual_young_probes(B)
            probes = [B.element(c, "B") for c in elements]
            xs = probes + [B.conv_b(probes[i], probes[j]) for i, j in zip(x, y)]
            xs += [rand_elem(B, rng, "B") for _ in range(20)]
            for k, x_b in enumerate(xs):
                _, s, vh = np.linalg.svd(B.rep(x_b))
                w, u = np.abs(vh[:, 0]) ** 2, s * s  # tau-weights of the singular vectors
                ref = [s[0] if ip == 0 else np.sum(w * s ** (1.0 / ip)) ** ip
                       for ip in INV_P_GRID]
                ref += [np.sum(w[s > bialgebra.SUPPORT_RTOL * s[0]]),
                        -np.sum(w * u * np.log(u, out=np.zeros_like(u), where=u > 0))]
                got = [B.norm(x_b, np.inf if ip == 0 else 1.0 / ip) for ip in INV_P_GRID]
                got += [B.support(x_b), B.entropy(x_b)]
                err = np.abs(np.subtract(got, ref))
                assert err.max() <= 1e-12 * (1 + s[0]), (fd.label, k, int(err.argmax()),
                                                         err.max())

    def test_trivial_projection_of_a_noncommutative_ring(self):
        # (1/|G|) sum_g g is a rank-one projection of trace 1/|G|; the
        # square roots of the eigenvalues of X*X read its support as 0.82
        B = canonical_from_fusion_data(_s3_group_ring())
        P = B.element(np.full(6, 1 / 6), "B")
        assert abs(B.support(P) - 1 / 6) <= 1e-12
        assert abs(B.norm(P, 1) - 1 / 6) <= 1e-12 and abs(B.norm(P, np.inf) - 1) <= 1e-12

    def test_tight_probes_exact_to_rounding(self, corpus_entries):
        # the basis/Perron pairs meet the dual Young bound with equality, and
        # on a Schur-passing ring no pair goes below it
        for e in corpus_entries:
            if e.expected_schur:
                rep = inequality_suite(canonical_from_fusion_data(e.fd), num_samples=0)
                assert abs(rep["dual_young_falsify"].worst_slack) <= 1e-12, e.id

    def test_no_eigh_on_commutative_rings(self, monkeypatch):
        from fusionforge import spectral

        # a fresh ring, so that its suite takes the targeted probes too
        fd = corpus.get("si660-14").fd
        B = canonical_from_fusion_data(rings.FusionData(fd.tensor, fd.dual))
        assert spectral.character_table(B.fd) is B.fd._char_table  # its eigh runs once, here
        assert B.fd._dual_young is None
        S3, svd, calls = canonical_from_fusion_data(_s3_group_ring()), np.linalg.svd, []

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on side B")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        rep = inequality_suite(B, num_samples=300)
        assert rep.num_samples == 300 and rep.probes_skipped is None
        assert B.fd._dual_young is not None

        # a noncommutative ring has no table and takes a stacked SVD
        monkeypatch.setattr(np.linalg, "svd", lambda *a: calls.append(1) or svd(*a))
        rep = inequality_suite(S3, num_samples=300)
        assert rep.probes_skipped.startswith("NotCommutative") and calls


class TestBatchedSuiteMatchesLoop:
    """The batched suite against the per-sample reference loop: equal counts,
    worst slacks to 1e-12 relative, and the same worst evaluation wherever
    the reference's best two slacks are apart."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corpus(self, corpus_entries, seed):
        for e in corpus_entries:
            assert_matches_reference(canonical_from_fusion_data(e.fd), 10, seed)

    def test_noncommutative_group_ring(self):
        rep = assert_matches_reference(canonical_from_fusion_data(_s3_group_ring()), 20, 3)
        assert rep.probes_skipped.startswith("NotCommutative")
        assert rep["dual_young_falsify"].n_evals == 20 + 6  # samples + basis/Perron pairs

    def test_rank3_falsifier(self):
        B = rank3_type1(Rank3Type1Params(1000.0, 500.0, 0.750001))
        rep = assert_matches_reference(B, 50, 7)
        assert rep["dual_young_falsify"].violations > 0

    def test_no_samples(self, B60):
        rep = assert_matches_reference(B60, 0, 5)
        assert all(c.n_evals == 0 and c.worst_slack == math.inf and c.worst_detail == {}
                   for c in rep.checks if not c.is_falsifier)
        assert rep["dual_young_falsify"].n_evals == 5 + 15 + 5  # targeted probes only

    @pytest.mark.parametrize("tol", [-0.03, -0.4])
    def test_slack_distribution(self, B60, Bz6, f210, tol, monkeypatch):
        # a negative tolerance counts the slacks below |tol| (times each
        # check's scale), so equal counts compare more than the minimum
        monkeypatch.setattr(bialgebra, "SLACK_TOL", tol)
        for B in (B60, Bz6, canonical_from_fusion_data(f210)):
            assert_matches_reference(B, 15, 9)

    def test_fold_keeps_the_first_worst(self):
        res = CheckResult("c", math.inf, 0, 0, {})
        detail = lambda s, k: {"k": k, "sample": s}  # noqa: E731
        _fold(res, np.array([[2.0, -1.0], [-1.0, 0.5]]), 0.5, detail)
        _fold(res, np.array([[-1.0, 3.0]]), 0.5, lambda s, k: {"later": True})
        assert (res.worst_slack, res.worst_detail) == (-1.0, {"k": 1, "sample": 0})
        assert (res.n_evals, res.violations) == (6, 3)
        _fold(res, np.array([[-1.5]]), 0.5, lambda s, k: {"later": True})
        assert res.worst_detail == {"later": True}

    def test_one_past_a_chunk(self, Bz6):
        rep = assert_matches_reference(Bz6, SUITE_CHUNK + 1, 11)
        assert rep.num_samples == SUITE_CHUNK + 1


class TestKeptDualYoungProbes:
    """Each ring keeps the outcome of its targeted dual-Young probes from its
    first suite (``FusionData._dual_young``): a ring that holds it reports
    what a fresh copy of the ring reports."""

    @staticmethod
    def fresh(fd):
        return rings.FusionData(fd.tensor, fd.dual, label=fd.label)

    def test_kept_outcome_matches_a_fresh_ring(self, corpus_entries):
        witness = rank3_type1(Rank3Type1Params(1000.0, 500.0, 0.750001))
        fds = [e.fd for e in corpus_entries] + [
            _s3_group_ring(), rank2_family(5.0).fd, rank3_type2(7.0).fd, witness.fd]
        for fd in fds:
            B = canonical_from_fusion_data(fd)
            inequality_suite(B, num_samples=0)
            assert fd._dual_young is not None, fd.label
            for n, seed in ((0, 4), (10, 2)):
                copy = self.fresh(fd)
                assert copy._dual_young is None
                got = inequality_suite(B, num_samples=n, seed=seed).to_dict()
                want = inequality_suite(canonical_from_fusion_data(copy), n, seed).to_dict()
                assert got == want, (fd.label, n)

    def test_probes_built_once_per_ring(self, monkeypatch):
        # a noncommutative ring, whose table raises, keeps the skip reason too
        calls, real = [], bialgebra._dual_young_probes
        monkeypatch.setattr(bialgebra, "_dual_young_probes",
                            lambda B: calls.append(B.fd) or real(B))
        B = canonical_from_fusion_data(_s3_group_ring())
        reps = [inequality_suite(B, num_samples=4, seed=s) for s in (1, 2)]
        assert calls == [B.fd]
        assert all(r.probes_skipped.startswith("NotCommutative") for r in reps)
        assert B.fd._dual_young.skipped == reps[0].probes_skipped

    def test_read_only_and_after_a_pickle(self, psl25):
        import pickle

        fd = self.fresh(psl25)
        inequality_suite(canonical_from_fusion_data(fd), num_samples=0)
        kept = fd._dual_young
        back = pickle.loads(pickle.dumps(fd))._dual_young
        for a, b in ((kept.slack, back.slack), (kept.scale, back.scale)):
            assert not a.flags.writeable and not b.flags.writeable
            assert a.tobytes() == b.tobytes()
        assert back.skipped is kept.skipped is None

    def test_tolerance_read_at_each_call(self, monkeypatch):
        # on the witness two probe pairs have slacks about 1e-12 at scales
        # 500 and 1000, so the count below -3e-13 times each scale, which
        # the kept slacks are folded against, depends on the scales
        W = rank3_type1(Rank3Type1Params(1000.0, 500.0, 0.750001))
        B = canonical_from_fusion_data(self.fresh(W.fd))
        assert_matches_reference(B, 5, 3)
        assert B.fd._dual_young is not None
        monkeypatch.setattr(bialgebra, "SLACK_TOL", -3e-13)
        rep = assert_matches_reference(B, 0, 3)
        assert rep.tol == -3e-13 and rep["dual_young_falsify"].violations == 10
