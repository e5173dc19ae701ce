"""Brute-force enumerator, the oracle for the classification search.

It shares nothing with ``fusionforge.search`` except the ring axioms and
the isomorphism test: no orbit compression, no coefficient bounds, no
partial associativity and no canonical-form dedup.
"""

from typing import Sequence

import numpy as np

from fusionforge import rings
from fusionforge.rings import FusionData, TypeSignature, are_isomorphic


def naive_enumerate_fusion_rings(sig: TypeSignature, involution: Sequence[int]) -> list:
    """Brute-force oracle for small instances.

    Rows are enumerated independently as solutions of the dimension
    equation with the trivial cap N[j,k,s] <= d_j d_k / d_s, combined
    row by row with Frobenius reciprocity used only as a consistency
    filter between already-placed rows, and all axioms re-verified at
    the leaves.  No coefficient bounds, no orbit compression, no partial
    associativity -- deliberately none of the machinery the fast search
    relies on.  Only viable for tiny ranks.
    """
    dims = list(sig.dims)
    dual = list(involution)
    m = len(dims)

    def row_solutions(j, k):
        target = dims[j] * dims[k] - (1 if dual[j] == k else 0)
        sols = []

        def rec(s, remaining, acc):
            if s == m:
                if remaining == 0:
                    sols.append(tuple(acc))
                return
            cap = (dims[j] * dims[k]) // dims[s]
            for v in range(min(cap, remaining // dims[s]) + 1):
                rec(s + 1, remaining - v * dims[s], acc + [v])

        rec(1, target, [])
        return sols

    rows = [(j, k) for j in range(1, m) for k in range(1, m)]
    per_row = [row_solutions(j, k) for j, k in rows]
    N = np.zeros((m, m, m), dtype=np.int64)
    for k in range(m):
        N[0, k, k] = 1
    for j in range(1, m):
        N[j, 0, j] = 1
        N[j, dual[j], 0] = 1

    out = []

    def consistent(upto):
        """Reciprocity between every pair of placed rows (rows 0..upto)."""
        placed = {rows[t] for t in range(upto + 1)}
        j, k = rows[upto]
        for s in range(1, m):
            v = N[j, k, s]
            for a, b, c in ((dual[k], dual[j], dual[s]), (dual[j], s, k)):
                if (a, b) in placed and N[a, b, c] != v:
                    return False
        return True

    def rec(t):
        if t == len(rows):
            fd = FusionData(N.copy(), np.asarray(dual), "exact")
            if rings.verify_axioms(fd).all_ok:
                if np.max(np.abs(rings.fp_dimensions(fd) - np.asarray(dims, float))) < 1e-6:
                    out.append(fd)
            return
        j, k = rows[t]
        for vals in per_row[t]:
            N[j, k, 1:] = vals
            if consistent(t):
                rec(t + 1)
        N[j, k, 1:] = 0

    rec(0)
    dedup = []
    for fd in out:
        if not any(are_isomorphic(fd, g) is not None for g in dedup):
            dedup.append(fd)
    return dedup
