import numpy as np
import pytest

from fusionforge import corpus, criteria, rings
from fusionforge.corpus import (
    get,
    parse_fusion_ring,
    serialize_fusion_ring,
    verify_checksums,
)
from fusionforge.errors import ParseError, ValidationError
from fusionforge.rings import new_fusion_data
from fusionforge.spectral import character_table


class TestFormat:
    def test_round_trip_all_entries(self, corpus_entries):
        for e in corpus_entries:
            text = serialize_fusion_ring(e.fd, label=e.id)
            fd2 = parse_fusion_ring(text)
            assert fd2 == e.fd, e.id
            assert serialize_fusion_ring(fd2, label=e.id) == text, e.id

    def test_float_round_trip(self):
        from fusionforge.bialgebra import rank2_family

        fd = rank2_family(5.5).fd
        fd2 = parse_fusion_ring(serialize_fusion_ring(fd))
        assert fd2.mode == "float"
        assert fd2 == fd

    def test_integral_float_round_trip(self):
        fd = new_fusion_data([np.eye(2), [[0, 1], [1, 0]]], mode="float")
        fd2 = parse_fusion_ring(serialize_fusion_ring(fd))
        assert fd2.mode == "float" and fd2 == fd

    def test_truncated_file(self):
        text = "frt 1\nrank 2\ndual 1 2\nmatrix 1\n1 0\n0 1\nmatrix 2\n0 1\n"
        with pytest.raises(ParseError):
            parse_fusion_ring(text)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_fusion_ring("frt 2\nrank 1\ndual 1\nmatrix 1\n1\n")

    def test_bad_entry_has_position(self):
        text = "frt 1\nrank 1\ndual 1\nmatrix 1\nx\n"
        with pytest.raises(ParseError) as exc:
            parse_fusion_ring(text)
        assert exc.value.line == 5

    @pytest.mark.parametrize("tok", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_entry_has_position(self, tok):
        text = f"frt 1\nrank 2\ndual 1 2\nmatrix 1\n1 0\n0 1\nmatrix 2\n0 1\n1 {tok}\n"
        with pytest.raises(ParseError, match="not finite") as exc:
            parse_fusion_ring(text)
        assert (exc.value.line, exc.value.column) == (9, 2)

    @pytest.mark.parametrize("text,message,line", [
        ("frt 1\nrnk 1\n", "expected 'rank m'", 2),
        ("frt 1\nrank x\n", "bad rank 'x'", 2),
        ("frt 1\nrank 0\n", "rank must be positive", 2),
        ("frt 1\nrank 2\n\ndual 1\n", "expected 'dual' with 2 entries", 4),
        ("frt 1\nrank 1\ndual a\n", "duality entries must be integers", 3),
        ("frt 1\nrank 1\ndual 1\nmatrix 2\n1\n", "expected 'matrix 1'", 4),
        ("frt 1\nrank 2\ndual 1 2\nmatrix 1\n1 0 0\n", "expected 2 entries, got 3", 5),
        ("frt 1\nrank 1\ndual 1\nmatrix 1\n1\n# end\n1\n", "trailing content", 7),
    ])
    def test_malformed_line_has_position(self, text, message, line):
        with pytest.raises(ParseError, match=message) as exc:
            parse_fusion_ring(text)
        assert exc.value.line == line

    def test_declared_dual_checked(self):
        text = "frt 1\nrank 2\ndual 2 1\nmatrix 1\n1 0\n0 1\nmatrix 2\n0 1\n1 1\n"
        with pytest.raises(ValidationError):
            parse_fusion_ring(text)

    def test_invalid_ring_rejected(self):
        # matrix 2 unit column empty: no duality partner
        text = "frt 1\nrank 2\ndual 1 2\nmatrix 1\n1 0\n0 1\nmatrix 2\n0 1\n0 1\n"
        with pytest.raises(ValidationError):
            parse_fusion_ring(text)

    def test_unexpected_error_propagates(self, monkeypatch):
        """Only the validation errors of ``new_fusion_data`` become a
        ValidationError; a programming error keeps its own type."""
        def broken(*args, **kwargs):
            raise TypeError("broken constructor")

        monkeypatch.setattr(corpus, "new_fusion_data", broken)
        with pytest.raises(TypeError, match="broken constructor"):
            parse_fusion_ring("frt 1\nrank 1\ndual 1\nmatrix 1\n1\n")

    def test_comments_and_blank_lines(self):
        text = "# hello\n\nfrt 1\n# rank next\nrank 1\ndual 1\nmatrix 1\n1\n"
        assert parse_fusion_ring(text).rank == 1


class TestCorpus:
    def test_checksums(self):
        assert verify_checksums()

    def test_counts(self, corpus_entries, frobenius34):
        assert len(frobenius34) == 34
        ids = [e.id for e in corpus_entries]
        assert len(ids) == len(set(ids))
        assert {"nf143", "nf924", "nf1320", "nf560", "nf798"} <= set(ids)
        assert {"r5sa-a", "r5sa-b"} <= set(ids)
        assert {f"z{n}" for n in range(2, 13)} <= set(ids)

    def test_one_isomorphic_pair_among_frobenius34(self, frobenius34):
        """The 34 entries hold 33 isomorphism classes: si1320-2 is si1320-1
        with basis elements 6 and 7 (1-based) swapped, and no other pair is
        isomorphic."""
        found = {}
        for i, a in enumerate(frobenius34):
            for b in frobenius34[i + 1:]:
                sigma = rings.are_isomorphic(a.fd, b.fd)
                if sigma is not None:
                    found[a.id, b.id] = sigma
        assert found == {("si1320-1", "si1320-2"): (0, 1, 2, 3, 4, 6, 5, 7)}

    def test_aliases(self):
        assert get("psl25").id == "si60-1"
        assert get("f210").id == "si210-2"
        assert get("f660").id == "si660-15"
        assert get("r7-210-ruledout").id == "si210-1"
        assert get("r6-143-nonfrobenius").id == "nf143"
        with pytest.raises(KeyError):
            get("nope")

    def test_f660_type(self, f660):
        assert str(rings.type_signature(f660)) == "[[1,1],[5,2],[10,2],[11,1],[12,2]]"

    def test_group_labels(self, frobenius34):
        groups = {e.group for e in frobenius34 if e.group}
        assert groups == {"PSL(2,5)", "PSL(2,7)", "PSL(2,9)", "PSL(2,11)"}

    def test_z5_simple(self):
        e = get("z5")
        assert rings.is_simple(e.fd) == e.expected_simple is True

    def test_expected_flags_match_computed(self, corpus_entries):
        """The fixture test: every stored flag equals the recomputed value."""
        for e in corpus_entries:
            assert rings.verify_axioms(e.fd).all_ok, e.id
            if e.expected_type is not None:
                assert str(rings.type_signature(e.fd)) == e.expected_type, e.id
            if e.expected_simple is not None:
                assert rings.is_simple(e.fd) == e.expected_simple, e.id
            if e.expected_schur is not None and rings.is_commutative(e.fd):
                rep = criteria.schur_commutative(character_table(e.fd))
                assert rep.holds == e.expected_schur, e.id


class TestCache:
    def test_entries_built_once_each_caller_owns_its_list(self):
        first = corpus.corpus()
        second = corpus.corpus()
        assert first is not second
        assert all(a is b and a.fd is b.fd for a, b in zip(first, second))
        assert get("psl25") is first[0] and get("z12") is first[-1]
        first.clear()  # each caller owns its list
        assert len(corpus.corpus()) == len(second)

    def test_get_takes_the_first_entry_carrying_a_name(self):
        """``get`` resolves a name as a scan of ``corpus()`` in order would:
        the first entry whose id or alias it is."""
        for name in {n for e in corpus.corpus() for n in (e.id, *e.aliases)}:
            first = next(e for e in corpus.corpus() if name == e.id or name in e.aliases)
            assert get(name) is first, name
