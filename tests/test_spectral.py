import math
import pickle

import numpy as np
import pytest

from fusionforge import corpus, rings, search, spectral
from fusionforge.bialgebra import (
    Rank3Type1Params,
    rank2_family,
    rank3_from_mnq,
    rank3_type1,
    rank3_type2,
)
from fusionforge.errors import (
    DegenerateSpectrum,
    InfeasibleParams,
    NormalizationFailure,
    NotCommutative,
)
from fusionforge.rings import FusionData, cyclic_group_ring, fp_dimensions
from fusionforge.spectral import (
    CharacterTable,
    character_table,
    dual_fusion_coefficients,
    dual_projections,
    verify_character_table,
)
from oracles import (
    reference_column_order,
    reference_fp_dimensions,
    reference_one_ring_character_table,
)
from test_search import CENSUS_ROWS, PAPER_FLAGS, units


def fresh_copy(fd):
    """A copy of ``fd`` that keeps no character table yet."""
    copy = FusionData(fd.tensor, fd.dual)
    assert copy._char_table is None
    return copy


def match_columns(computed, expected, tol=1e-8):
    """Greedy column matching; returns the max abs deviation."""
    m = expected.shape[1]
    used = set()
    worst = 0.0
    for j in range(m):
        best, best_err = None, np.inf
        for k in range(m):
            if k in used:
                continue
            err = float(np.max(np.abs(computed[:, k] - expected[:, j])))
            if err < best_err:
                best, best_err = k, err
        used.add(best)
        worst = max(worst, best_err)
    return worst


def zeta_sum(n, powers):
    return sum(np.exp(2j * np.pi * k / n) for k in powers)


def f210_paper_table():
    """The displayed character table of the FPdim-210 surviving ring."""
    c = [-zeta_sum(7, (1, 6)), -zeta_sum(7, (5, 2)), -zeta_sum(7, (4, 3))]
    g1, g2 = zeta_sum(5, (1, 4)), zeta_sum(5, (2, 3))
    rows = [
        [1, 1, 1, 1, 1, 1, 1],
        [5, -1, c[0], c[1], c[2], 0, 0],
        [5, -1, c[1], c[2], c[0], 0, 0],
        [5, -1, c[2], c[0], c[1], 0, 0],
        [6, 0, -1, -1, -1, 1, 1],
        [7, 1, 0, 0, 0, g1, g2],
        [7, 1, 0, 0, 0, g2, g1],
    ]
    return np.array(rows, dtype=complex)


def ruled210_paper_table():
    c = [-zeta_sum(7, (1, 6)), -zeta_sum(7, (5, 2)), -zeta_sum(7, (4, 3))]
    rows = [
        [1, 1, 1, 1, 1, 1, 1],
        [5, -1, c[0], c[1], c[2], 0, 0],
        [5, -1, c[1], c[2], c[0], 0, 0],
        [5, -1, c[2], c[0], c[1], 0, 0],
        [6, 0, -1, -1, -1, 1, 1],
        [7, 1, 0, 0, 0, 0, -3],
        [7, 1, 0, 0, 0, -1, 2],
    ]
    return np.array(rows, dtype=complex)


def rank3_closed_form_table(m, n, q):
    """Trigonometric closed form for the rank-3 family's character table.

    Fusion rules: x2 x2 = 1 + p x2 + m x3, x2 x3 = m x2 + n x3,
    x3 x3 = 1 + n x2 + q x3 with p = (m^2 + n^2 - 1 - mq)/n.  Rows 2 and 3
    are the roots of the characteristic cubics of the two fusion matrices,
    paired so that columns are simultaneous eigenvalue vectors.
    """
    p = (m * m + n * n - 1 - m * q) / n

    def root_data(a, b, dd):
        pp = b * b / 3.0 - a
        qq = 2.0 * b**3 / 27.0 - b * a / 3.0 - dd
        r = math.sqrt(pp / 3.0)
        phi = math.acos(max(-1.0, min(1.0, qq / 2.0 / (pp / 3.0) ** 1.5)))
        c, s = math.cos(phi / 3.0), math.sin(phi / 3.0)
        return b / 3.0, r, c, s

    b2, r2, c2, s2 = root_data(p * n - 1 - m * m, p + n, n)
    b3, r3, c3, s3 = root_data(q * m - 1 - n * n, q + m, m)
    row1 = [1.0, 1.0, 1.0]
    row2 = [b2 + 2 * r2 * c2, b2 - r2 * (c2 - math.sqrt(3) * s2), b2 - r2 * (c2 + math.sqrt(3) * s2)]
    row3 = [b3 + 2 * r3 * c3, b3 - r3 * (c3 + math.sqrt(3) * s3), b3 - r3 * (c3 - math.sqrt(3) * s3)]
    return np.array([row1, row2, row3], dtype=complex)


def reference_character_table(fd, tol=spectral.RESIDUAL_TOL, seed=spectral._SEED):
    """The earlier character_table, which validated every eigenvector
    against every fusion matrix in a double loop and ordered the columns
    by a per-column sort key; the reference for the stacked residual and
    the lexsorted column order."""
    m = fd.rank
    N = np.asarray(fd.tensor, dtype=float)
    d = fp_dimensions(fd)
    scale = float(np.max(np.abs(N))) * m + 1.0
    rng = np.random.default_rng(seed)
    for _ in range(spectral.REDRAWS):
        c = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        c = c + np.conj(c[fd.dual])
        _, V = np.linalg.eigh(np.einsum("i,ikl->kl", c, N.astype(complex)))
        lam = np.empty((m, m), dtype=complex)
        worst = 0.0
        for j in range(m):
            v = V[:, j]
            for i in range(m):
                Mv = N[i] @ v
                lam[i, j] = np.vdot(v, Mv)
                worst = max(worst, float(np.linalg.norm(Mv - lam[i, j] * v)))
        if worst > tol * scale:
            continue
        for j in range(m):
            v = V[:, j]
            k = int(np.argmax(np.abs(v)))
            V[:, j] = v / (v[k] / abs(v[k]))
        order = reference_column_order(lam, d)
        lam, V = lam[:, order], V[:, order]
        lam[:, 0] = lam[:, 0].real
        return lam, V, worst, tuple(order)
    raise DegenerateSpectrum("reference validation failed")


def reference_residual(fd, ct):
    N = np.asarray(fd.tensor, dtype=float)
    return max(
        float(np.linalg.norm(N[i] @ ct.vectors[:, j] - ct.lam[i, j] * ct.vectors[:, j]))
        for i in range(ct.rank) for j in range(ct.rank)
    )


class TestCharacterTable:
    def test_zn_is_dft(self):
        for n in (2, 3, 5, 8):
            ct = character_table(cyclic_group_ring(n))
            omega = np.exp(2j * np.pi / n)
            dft = np.array([[omega ** (j * k) for k in range(n)] for j in range(n)])
            assert match_columns(ct.lam, dft) < 1e-8

    def test_f210_matches_paper(self, f210):
        ct = character_table(f210)
        assert match_columns(ct.lam, f210_paper_table()) < 1e-8

    def test_ruled210_matches_paper(self, ruled210):
        ct = character_table(ruled210)
        assert match_columns(ct.lam, ruled210_paper_table()) < 1e-8

    def test_perron_column_first(self, corpus_entries):
        for e in corpus_entries:
            if not rings.is_commutative(e.fd):
                continue
            ct = character_table(e.fd)
            assert np.allclose(ct.lam[:, 0].real, fp_dimensions(e.fd), atol=1e-8)
            assert np.allclose(ct.lam[0, :], 1.0, atol=1e-8), e.id

    def test_rank3_closed_form(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            m = float(rng.uniform(0, 3))
            n = float(rng.uniform(0.3, 4))
            q = float(rng.uniform(0, 4))
            if (m * m + n * n - 1 - m * q) / n < 0:
                continue
            expected = rank3_closed_form_table(m, n, q)
            if min(abs(expected[1, a] - expected[1, b])
                   for a in range(3) for b in range(a)) < 1e-3:
                continue  # nearly degenerate: column matching is ill-posed
            bialg = rank3_from_mnq(m, n, q)
            fd = rank3_type1(bialg).fd
            ct = character_table(fd)
            assert match_columns(ct.lam, expected) < 1e-8, (m, n, q)
            checked += 1

    def test_stacked_residual_matches_loop(self, corpus_entries):
        for e in corpus_entries:
            if not rings.is_commutative(e.fd):
                continue
            ct = character_table(e.fd)
            lam, V, residual, order = reference_character_table(e.fd)
            assert ct.column_order == order, e.id
            assert np.all(np.abs(ct.lam - lam) <= 1e-12 * (1 + np.abs(lam))), e.id
            assert np.max(np.abs(ct.vectors - V)) <= 1e-12, e.id
            assert abs(ct.residual - residual) <= 1e-12, e.id
            ref = reference_residual(e.fd, ct)
            assert abs(verify_character_table(e.fd, ct) - ref) <= 1e-12, e.id
            # a perturbed table has residuals of order one, not rounding noise
            bad = CharacterTable(lam + np.random.default_rng(0).standard_normal(lam.shape),
                                 ct.vectors, ct.residual)
            ref = reference_residual(e.fd, bad)
            assert abs(verify_character_table(e.fd, bad) - ref) <= 1e-12 * ref, e.id

    def test_bad_draw_is_redrawn(self, f210, monkeypatch):
        base = character_table(f210)
        fd = fresh_copy(f210)
        calls = []
        eigh = np.linalg.eigh

        def first_draw_bad(T):
            calls.append(1)
            w, V = eigh(T)
            return (w, np.broadcast_to(np.eye(T.shape[-1], dtype=V.dtype), V.shape)
                    if len(calls) == 1 else V)

        monkeypatch.setattr(np.linalg, "eigh", first_draw_bad)
        ct = character_table(fd)
        assert len(calls) == 2
        assert np.max(np.abs(ct.lam - base.lam)) < 1e-8

    def test_redraws_then_fails(self, psl25, monkeypatch):
        fd = fresh_copy(psl25)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda T: calls.append(1) or eigh(T))
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
        with pytest.raises(DegenerateSpectrum, match=f"after {spectral.REDRAWS} draws"):
            character_table(fd)
        assert len(calls) == spectral.REDRAWS

    def test_ring_keeps_its_table(self, psl25):
        """The table, its Schur report and the ring's simple flag are kept,
        and survive pickling (as from a worker process) frozen and equal."""
        from fusionforge.criteria import schur_commutative
        from fusionforge.rings import is_simple

        ct = character_table(psl25)
        assert character_table(psl25) is ct is psl25._char_table
        assert ct.norms is ct.norms
        rep = schur_commutative(ct)
        assert schur_commutative(ct) is rep is ct._schur
        assert is_simple(psl25) is psl25._simple is True
        ring = pickle.loads(pickle.dumps(psl25))
        unpickled = ring._char_table
        assert ring._simple is True
        got = unpickled._schur
        assert (got.worst_triple, got.worst_value, got.tolerance, got.max_imag) == (
            rep.worst_triple, rep.worst_value, rep.tolerance, rep.max_imag)
        assert got.values.tobytes() == rep.values.tobytes()
        for t in (ct, unpickled):
            for a in (t.lam, t.vectors, t.norms, t._schur.values):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_ring_whose_table_raises_keeps_none(self, psl25, monkeypatch):
        fd = fresh_copy(psl25)
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
        for _ in range(2):  # no failure is kept either: the second call draws again
            with pytest.raises(DegenerateSpectrum):
                character_table(fd)
            assert fd._char_table is None
        monkeypatch.undo()
        assert character_table(fd) is fd._char_table is not None

    def test_residual_and_verify(self, f660):
        ct = character_table(f660)
        assert ct.residual <= 1e-8
        assert verify_character_table(f660, ct) == pytest.approx(ct.residual)

    def test_verify_detects_corruption(self, psl25):
        ct = character_table(psl25)
        bad = ct.lam.copy()
        bad[2, 1] = 0.0
        corrupted = CharacterTable(bad, ct.vectors, ct.residual)
        assert verify_character_table(psl25, corrupted) > 0.1

    def test_seed_independence(self, f210, monkeypatch):
        base = character_table(f210)
        for seed in range(1, 10):
            monkeypatch.setattr(spectral, "_SEED", seed)
            ct = character_table(fresh_copy(f210))
            assert np.max(np.abs(ct.lam - base.lam)) < 1e-8
            assert verify_character_table(f210, ct) <= spectral.RESIDUAL_TOL * 10

    def test_hundred_reseeds_on_every_corpus_ring(self, corpus_entries, monkeypatch):
        # validated tables are reproducible across re-seeds: the residual
        # stays below tolerance and the table itself does not move
        for e in corpus_entries:
            if not rings.is_commutative(e.fd):
                continue
            base = character_table(e.fd)
            scale = 1 + float(np.max(np.abs(e.fd.tensor))) * e.fd.rank
            for seed in range(100):
                fd = fresh_copy(e.fd)
                with monkeypatch.context() as mp:  # the next ring's base keeps _SEED
                    mp.setattr(spectral, "_SEED", seed)
                    ct = character_table(fd)
                residual = verify_character_table(e.fd, ct)
                assert residual <= spectral.RESIDUAL_TOL * scale, (e.id, seed)
                assert np.max(np.abs(ct.lam - base.lam)) < 1e-7, (e.id, seed)

    def test_noncommutative_rejected(self):
        # smallest noncommutative example: group ring of S3
        table = np.array(
            [
                [0, 1, 2, 3, 4, 5],
                [1, 0, 4, 5, 2, 3],
                [2, 5, 0, 4, 3, 1],
                [3, 4, 5, 0, 1, 2],
                [4, 3, 1, 2, 5, 0],
                [5, 2, 3, 1, 0, 4],
            ]
        )
        s3 = rings.group_ring(table)
        assert not rings.is_commutative(s3)
        with pytest.raises(NotCommutative):
            character_table(s3)


def searched_rings() -> list:
    """The rank-5 family at multiplicity 4, the census rows up to the 660
    row and FPdim 1-60 at rank <= 6 without flags, as the search returns
    them."""
    fds = search.rank5_three_selfadjoint_family(4)
    rows = [search.SearchConstraints(fpdim=f, rank=r, **PAPER_FLAGS) for f, r in CENSUS_ROWS[:-1]]
    for c in rows + [search.SearchConstraints(fpdim=(1, 60), rank=(1, 6))]:
        fds += [fd for sig, inv in units(c) for fd in search.enumerate_fusion_rings(sig, inv, c)]
    return fds


def spectral_test_rings() -> list:
    """The corpus, the ``searched_rings``, points of the rank-2 and rank-3
    type II families and 200 random rank-3 (m, n, q) points: integral and
    float rings, ranks 1-12."""
    fds = [e.fd for e in corpus.corpus()] + searched_rings()
    fds += [rank2_family(mu).fd for mu in (2.0, 2.5, 3.0, 5.0, 10.0, 100.0)]
    fds += [rank3_type2(mu).fd for mu in (3.0, 4.0, 7.0, 20.0, 100.0)]
    rng = np.random.default_rng(0)
    points = 0
    while points < 200:
        m, n, q = rng.uniform(0, 3), rng.uniform(0.3, 4), rng.uniform(0, 4)
        try:
            fds.append(rank3_type1(rank3_from_mnq(m, n, q)).fd)
        except InfeasibleParams:
            continue
        points += 1
    return fds


class TestAgainstReference:
    """The single ``eigh`` of ``fp_dimensions`` and the lexsort of
    ``_column_order`` against the power iteration and the per-column sort
    key they replaced.  ``_column_order`` finds the Perron column by its
    signs alone; the reference also checks it against the FP dimensions."""

    def test_fp_dimensions_and_column_order(self, monkeypatch):
        fds = spectral_test_rings()
        assert len(fds) == 52 + 47 + 47 + 55 + 6 + 5 + 200
        for fd in fds:
            d, ref = fp_dimensions(fd), reference_fp_dimensions(fd)
            assert np.all(np.abs(d - ref) <= 1e-12 * ref), fd.label
        calls = []
        column_order = spectral._column_order
        monkeypatch.setattr(spectral, "_column_order",
                            lambda lam: calls.append((lam, fd)) or column_order(lam))
        for fd in fds:
            if rings.is_commutative(fd):
                character_table(FusionData(fd.tensor, fd.dual))  # a fresh copy has no table
        assert len(calls) == len(fds) - 1  # all but the group ring of S3 (FPdim 6)
        for lam, fd in calls:  # each a stack of one table
            d = fp_dimensions(fd)
            assert column_order(lam) == [reference_column_order(lam[0], d)], fd.label
            assert column_order(lam[0]) == reference_column_order(lam[0], d), fd.label

    def test_no_perron_column_raises(self, psl25):
        lam = character_table(psl25).lam.copy()
        d = fp_dimensions(psl25)
        assert spectral._column_order(lam) == reference_column_order(lam, d) == list(range(5))
        lam[1, 0] = -lam[1, 0]
        with pytest.raises(DegenerateSpectrum, match="no Frobenius-Perron column"):
            spectral._column_order(lam)

    def test_table_computes_no_fp_dimensions(self, psl25, monkeypatch):
        ref = character_table(psl25)

        def no_fp_dimensions(fd):
            raise AssertionError("character_table computed FP dimensions")

        monkeypatch.setattr(rings, "fp_dimensions", no_fp_dimensions)
        # and the name a ``from .rings import fp_dimensions`` would bind in spectral
        monkeypatch.setattr(spectral, "fp_dimensions", no_fp_dimensions, raising=False)
        assert_same_table(character_table(fresh_copy(psl25)), ref, "psl25")

    @pytest.mark.parametrize("name, cells, residual", [
        ("Z/4", [(1, 1, 2)], "0.433"),
        ("psl25", [(1, 3, 4), (3, 1, 4)], "0.595"),
    ])
    def test_reciprocity_breaking_tensor_raises(self, psl25, name, cells, residual):
        """A commutative tensor that ``new_fusion_data`` accepts but whose
        fusion matrices break Frobenius reciprocity has no validated table."""
        N = np.array((cyclic_group_ring(4) if name == "Z/4" else psl25).tensor)
        for cell in cells:
            N[cell] += 1
        fd = rings.new_fusion_data(list(N))
        assert rings.is_commutative(fd)
        with pytest.raises(DegenerateSpectrum, match=(
                rf"^joint eigenvector validation failed after {spectral.REDRAWS} draws "
                rf"\(residual {residual}\)$")):
            character_table(fd)
        assert fd._char_table is None


def assert_same_table(ct, ref, where):
    assert ct.lam.tobytes() == ref.lam.tobytes(), where
    assert ct.vectors.tobytes() == ref.vectors.tobytes(), where
    assert (ct.residual, ct.column_order) == (ref.residual, ref.column_order), where


class TestStackedTables:
    """The tables computed as stacks, and the ones the search stores on
    its rings, against one-ring tables."""

    def test_tables_match_one_ring_reference(self):
        for fd in spectral_test_rings():
            if rings.is_commutative(fd):
                assert_same_table(character_table(fd), reference_one_ring_character_table(fd),
                                  fd.label)

    def test_stored_tables_equal_fresh_ones(self):
        fds = searched_rings()
        assert len(fds) == 47 + 47 + 55
        for fd in fds:
            if not rings.is_commutative(fd) or fd.rank == 1:  # rank 1 skips the kernel
                assert fd._char_table is None
                continue
            assert fd._char_table is not None, fd.label
            assert_same_table(fd._char_table, character_table(FusionData(fd.tensor, fd.dual)),
                              fd.label)

    def test_stored_arrays_are_read_only(self):
        for fd in search.rank5_three_selfadjoint_family(2):
            ct = character_table(fd)
            assert ct is fd._char_table
            for a in (ct.lam, ct.vectors):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 0

    def test_search_stores_every_table(self, monkeypatch):
        """The rank-5 family's consumers read the stored tables: no
        ``eigh`` runs after the search."""
        fam = search.rank5_three_selfadjoint_family(4)

        def no_eigh(T):
            raise AssertionError("character_table diagonalized a ring the search tabulated")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert all(character_table(fd) is fd._char_table is not None for fd in fam)

    def test_failed_tables_are_left_to_character_table(self, monkeypatch):
        """When the stack of tables fails, the search still returns its
        rings, stores no table, and each ring's table raises as it would
        alone."""
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
        fam = search.rank5_three_selfadjoint_family(1)
        assert len(fam) == 5 and all(fd._char_table is None for fd in fam)
        with pytest.raises(DegenerateSpectrum, match=f"after {spectral.REDRAWS} draws"):
            character_table(fam[0])

    def test_redraw_inside_a_stack(self, monkeypatch):
        """A ring whose draw fails takes the next draw while the others
        keep theirs: each table equals the one-ring table under the same
        failure."""
        family = search.rank5_three_selfadjoint_family(2)
        base = [character_table(fd) for fd in family]
        eigh, sizes, bad = np.linalg.eigh, [], 3
        fds, alone = [fresh_copy(fd) for fd in family], fresh_copy(family[bad])

        def first_draw_of_one_ring_bad(T):
            sizes.append(len(T))
            w, V = eigh(T)
            if len(sizes) == 1:
                V = V.copy()
                V[bad if len(T) > 1 else 0] = np.eye(T.shape[-1])
            return w, V

        monkeypatch.setattr(np.linalg, "eigh", first_draw_of_one_ring_bad)
        tables = spectral._character_tables(fds)
        assert sizes == [len(fds), 1]
        for i, (ct, ref) in enumerate(zip(tables, base)):
            if i != bad:
                assert_same_table(ct, ref, i)
        assert all(fd._char_table is ct for fd, ct in zip(fds, tables))
        sizes.clear()
        assert_same_table(tables[bad], character_table(alone), bad)  # bad draw 1, then draw 2
        assert sizes == [1, 1]


class TestDualProjections:
    def test_zn_dft_idempotents(self):
        n = 6
        zn = cyclic_group_ring(n)
        ct = character_table(zn)
        projs = dual_projections(zn, ct)
        assert projs.shape == (n, n)
        for p in projs:
            assert p[0].real == pytest.approx(1.0 / n, abs=1e-9)
            assert np.allclose(np.abs(p), 1.0 / n, atol=1e-9)

    def test_trace_partition(self, corpus_entries):
        for e in corpus_entries:
            if not rings.is_commutative(e.fd):
                continue
            ct = character_table(e.fd)
            projs = dual_projections(e.fd, ct)
            total = sum(p[0].real for p in projs)
            assert total == pytest.approx(1.0, abs=1e-9), e.id
            mu = rings.global_fpdim(e.fd)
            # the Perron projection is the central support with trace 1/mu
            assert projs[0, 0].real == pytest.approx(1.0 / mu, abs=1e-9)

    def test_f210_perron_projection(self, f210):
        ct = character_table(f210)
        q1 = dual_projections(f210, ct)[0]
        d = fp_dimensions(f210)
        assert np.allclose(q1.real, d / 210.0, atol=1e-9)
        assert np.max(np.abs(q1.imag)) < 1e-9

    def test_rank3_matches_closed_form(self):
        params = Rank3Type1Params(3.0, 3.0, 0.5)
        from fusionforge.bialgebra import rank3_dual_data

        data = rank3_dual_data(params)
        fd = rank3_type1(params).fd
        ct = character_table(fd)
        projs = dual_projections(fd, ct)
        got = sorted(np.round(p.real, 8).tolist() for p in projs)
        want = sorted(
            np.round(q.coeffs.real, 8).tolist() for q in (data.q1, data.q2, data.q3)
        )
        assert np.allclose(got, want, atol=1e-7)


def scaled_column(ct, j, factor):
    """``ct`` with column j of its values multiplied by ``factor``."""
    lam = np.array(ct.lam)
    lam[:, j] *= factor
    return CharacterTable(lam, ct.vectors, ct.residual)


class TestCorruptedTables:
    """``dual_projections`` checks at RESIDUAL_TOL * (1 + max|P|), and a
    NaN fails it instead of slipping past a comparison."""

    def test_any_scaled_column_rejected(self, psl25):
        ct = character_table(psl25)
        for j in range(ct.rank):
            with pytest.raises(NormalizationFailure, match=f"P_{j + 1} \\* P_{j + 1}"):
                dual_projections(psl25, scaled_column(ct, j, 1 + 1e-6))

    def test_scaled_rank3_column_rejected(self):
        """At RESIDUAL_TOL * (1 + max|lam|) the lambda_3 column scaled by
        1 + 1e-6 would pass (error 1.0e-6 against 1.0e-5); at
        RESIDUAL_TOL * (1 + max|P|) it fails."""
        from fusionforge.bialgebra import rank3_dual_data

        params = Rank3Type1Params(1000.0, 500.0, 0.750001)
        ct = rank3_dual_data(params).table
        with pytest.raises(NormalizationFailure, match="P_3 \\* P_3"):
            dual_projections(rank3_type1(params).fd, scaled_column(ct, 2, 1 + 1e-6))

    @pytest.mark.parametrize("factor, message", [
        (np.nan, "non-finite value"), (0.0, "projection 4 has vanishing norm")])
    def test_degenerate_column_rejected(self, psl25, factor, message):
        with pytest.raises(NormalizationFailure, match=message):
            dual_projections(psl25, scaled_column(character_table(psl25), 3, factor))

    def test_nan_residual_is_not_validated(self, monkeypatch):
        real = spectral._eigen_residual
        monkeypatch.setattr(spectral, "_eigen_residual",
                            lambda N, V: (real(N, V)[0], np.full(len(N), np.nan)))
        z3 = cyclic_group_ring(3)
        with pytest.raises(DegenerateSpectrum, match="residual nan"):
            character_table(z3)
        assert z3._char_table is None

    def test_imaginary_mass_raises(self):
        z3 = cyclic_group_ring(3)
        ct = character_table(z3)
        P = dual_projections(z3, ct) * np.exp(0.25j * np.pi)  # conv picks up a factor i
        with pytest.raises(NormalizationFailure, match="imaginary mass"):
            spectral._dual_coefficients(P, ct)


class TestDualFusionCoefficients:
    def test_zn_nonnegative_group_pattern(self):
        n = 5
        zn = cyclic_group_ring(n)
        nhat = dual_fusion_coefficients(zn, character_table(zn))
        assert nhat.min() >= -1e-10
        # dual of Z/n is Z/n: each product hits exactly one projection,
        # with weight 1/n coming from tau
        assert np.isclose(nhat.max(), 1.0 / n, atol=1e-9)
        assert np.isclose(nhat.sum(), n * n / n, atol=1e-8)

    def test_sign_agreement_with_triple_sums(self, corpus_entries):
        from fusionforge.criteria import schur_commutative

        for e in corpus_entries:
            if not rings.is_commutative(e.fd) or e.fd.rank > 8:
                continue
            ct = character_table(e.fd)
            nhat = dual_fusion_coefficients(e.fd, ct)
            rep = schur_commutative(ct)
            tol = 1e-9 * (1 + rings.global_fpdim(e.fd))
            assert (nhat.min() < -tol) == (not rep.holds), e.id

    def test_ruled_out_ring_has_negative(self, ruled210):
        nhat = dual_fusion_coefficients(ruled210, character_table(ruled210))
        assert nhat.min() < -1e-6

    def test_f660_nonnegative(self, f660):
        nhat = dual_fusion_coefficients(f660, character_table(f660))
        assert nhat.min() >= -1e-9 * (1 + 660)
