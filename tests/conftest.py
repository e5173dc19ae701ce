import numpy as np
import pytest

from fusionforge import corpus as corpus_mod
from fusionforge import rings, spectral


@pytest.fixture(scope="session")
def corpus_entries():
    return corpus_mod.corpus()


@pytest.fixture(scope="session", autouse=True)
def corpus_tables(corpus_entries):
    """Every commutative corpus ring keeps its character table from the
    start, so no test's outcome depends on which test computed it first.
    Their targeted dual-Young records are kept from a ring's first suite
    on: a test that watches the probes being taken uses a fresh copy."""
    for e in corpus_entries:
        if rings.is_commutative(e.fd):
            spectral.character_table(e.fd)


@pytest.fixture(scope="session")
def paper_entries(corpus_entries):
    return [e for e in corpus_entries if not e.id.startswith("z")]


@pytest.fixture(scope="session")
def frobenius34():
    return corpus_mod.frobenius34()


@pytest.fixture(scope="session")
def psl25(corpus_entries):
    return corpus_mod.get("psl25").fd


@pytest.fixture(scope="session")
def f210():
    return corpus_mod.get("f210").fd


@pytest.fixture(scope="session")
def ruled210():
    return corpus_mod.get("r7-210-ruledout").fd


@pytest.fixture(scope="session")
def f660():
    return corpus_mod.get("f660").fd


@pytest.fixture(scope="session")
def dims112():
    """Rank-3 ring of type [1,1,2]: x2^2 = 1, x2 x3 = x3, x3^2 = 1 + x2 + x3."""
    m2 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    m3 = [[0, 0, 1], [0, 0, 1], [1, 1, 1]]
    return rings.new_fusion_data([np.eye(3, dtype=int), m2, m3], "exact", label="dims112")
