"""Oracles for the classification search.

``naive_enumerate_fusion_rings`` shares nothing with
``fusionforge.search`` except the ring axioms and the isomorphism test:
no orbit compression, no coefficient bounds, no partial associativity
and no canonical-form dedup.

``reference_build_problem`` is the cell-by-cell loop version of
``search._build_problem``: orbits walked one cell at a time, the search
order from sorted Python lists and the greedy associativity order from
set arithmetic.  The array-built problem must equal it array for array.
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


def frobenius_orbit(cell, dual):
    """Orbit of N[j,k,s] under N[j,k,s] = N[k*,j*,s*] = N[j*,s,k]."""
    seen = {cell}
    frontier = [cell]
    while frontier:
        j, k, s = frontier.pop()
        for nxt in ((dual[k], dual[j], dual[s]), (dual[j], s, k)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reference_build_problem(dims, dual, max_mult=None, prune_bounds=True):
    """Flatten the orbit/row/equation structure for the DFS kernel.

    ``dims=None`` (unknown dimensions, as in the rank-5 family) drops the
    dimension knapsack and caps every orbit at ``max_mult`` alone.
    ``prune_bounds=False`` drops the coefficient-bound caps and the
    square-sum prune (keeping only what the dimension equations force);
    used to check that the bounds are admissible.
    """
    m = len(dual)
    use_dims = dims is not None
    d = np.asarray(dims if use_dims else [1] * m, dtype=np.int64)

    cells = [(j, k, s) for j in range(1, m) for k in range(1, m) for s in range(1, m)]
    orbit_of = {}
    orbits = []
    for c in cells:
        if c in orbit_of:
            continue
        orb = sorted(frobenius_orbit(c, dual))
        for cc in orb:
            orbit_of[cc] = len(orbits)
        orbits.append(orb)

    def row_id(j, k):
        return (j - 1) * (m - 1) + (k - 1)

    nrows = (m - 1) * (m - 1)
    row_target = np.zeros(nrows, dtype=np.int64)
    row_sq_bound = np.zeros(nrows, dtype=np.int64)
    row_cnt = np.zeros(nrows, dtype=np.int64)
    for j in range(1, m):
        for k in range(1, m):
            r = row_id(j, k)
            unit = 1 if dual[j] == k else 0
            row_target[r] = d[j] * d[k] - unit
            if prune_bounds:
                row_sq_bound[r] = min(d[j] ** 2, d[k] ** 2) - unit
            else:
                row_sq_bound[r] = np.iinfo(np.int64).max // 4
            row_cnt[r] = m - 1

    # caps per orbit: the coefficient bound min(d_j, d_k, d_s) over the
    # orbit when dimensions are known, else the multiplicity cap alone
    orb_cap = np.zeros(len(orbits), dtype=np.int64)
    for oi, orb in enumerate(orbits):
        if use_dims:
            cap = min(d[j] * d[k] // d[s] for j, k, s in orb)  # forced by the row sum
            if prune_bounds:
                cap = min(cap, min(min(d[j], d[k], d[s]) for j, k, s in orb))
            if max_mult is not None:
                cap = min(cap, max_mult)
        else:
            if max_mult is None:
                raise ValueError("max_multiplicity is required without dimensions")
            cap = max_mult
        orb_cap[oi] = cap

    # search order: rows by cheap dimension product, columns by heavy dims first
    if use_dims:
        rows_sorted = sorted(
            ((j, k) for j in range(1, m) for k in range(1, m)),
            key=lambda jk: (d[jk[0]] * d[jk[1]], jk),
        )
        cell_order = [
            (j, k, s)
            for (j, k) in rows_sorted
            for s in sorted(range(1, m), key=lambda s: (-d[s], s))
        ]
        orb_order = []
        seen = set()
        for c in cell_order:
            o = orbit_of[c]
            if o not in seen:
                seen.add(o)
                orb_order.append(o)
    else:
        orb_order = reference_greedy_assoc_order(m, orbits, orbit_of)

    order_index = {o: i for i, o in enumerate(orb_order)}

    # flatten orbit cells in search order
    norb = len(orb_order)
    ptr = [0]
    flat_cells = []
    caps = np.zeros(norb, dtype=np.int64)
    for o in orb_order:
        for j, k, s in orbits[o]:
            flat_cells.append((row_id(j, k), d[s], j * m * m + k * m + s))
        ptr.append(len(flat_cells))
        caps[len(ptr) - 2] = orb_cap[o]
    orb_ptr = np.array(ptr, dtype=np.int64)
    cell_row = np.array([c[0] for c in flat_cells], dtype=np.int64)
    cell_wt = np.array([c[1] for c in flat_cells], dtype=np.int64)
    cell_idx = np.array([c[2] for c in flat_cells], dtype=np.int64)

    # remaining knapsack capacity per row
    row_capacity = np.zeros(nrows, dtype=np.int64)
    for oi in range(norb):
        for t in range(orb_ptr[oi], orb_ptr[oi + 1]):
            row_capacity[cell_row[t]] += caps[oi] * cell_wt[t]

    # associativity instances (i, j, k >= 1; t any), triggered at the orbit
    # that completes their last free cell: the latest search position among
    # the free cells (i,j,s), (s,k,t), (j,k,s), (i,s,t) over all s.  Cells
    # with a unit index are fixed and count as position 0.
    pos_of = np.zeros((m, m, m), dtype=np.int64)
    for cell, o in orbit_of.items():
        pos_of[cell] = order_index[o]
    last_in_row = pos_of.max(axis=2)  # [a, b] -> max_s pos_of[a, b, s]
    last_in_col = pos_of.max(axis=0)  # [b, c] -> max_s pos_of[s, b, c]
    last_in_mid = pos_of.max(axis=1)  # [a, c] -> max_s pos_of[a, s, c]
    trig = np.maximum(
        np.maximum(last_in_row[1:, 1:, None, None], last_in_col[None, None, 1:, :]),
        np.maximum(last_in_row[None, 1:, 1:, None], last_in_mid[1:, None, None, :]),
    )
    # a stable sort keeps (i, j, k, t) order within each trigger
    eq_order = np.argsort(trig, axis=None, kind="stable")
    i, j, k, t = np.unravel_index(eq_order, trig.shape)
    eq_data = np.stack([i + 1, j + 1, k + 1, t], axis=1).astype(np.int64)
    eq_by_orbit_ptr = np.zeros(norb + 1, dtype=np.int64)
    eq_by_orbit_ptr[1:] = np.searchsorted(
        trig.ravel()[eq_order], np.arange(norb), side="right"
    )

    # static symmetry breaking: involution-fixed basis elements of equal
    # dimension are interchangeable, so any solution can be relabeled to
    # make the unary chain N[q,a,a] (a running over the class) weakly
    # decreasing; imposing that during search keeps one representative
    # per relabeling orbit and kills the duplicated subtrees up front.
    prec = []  # (later_orbit, earlier_orbit): require val[later] <= val[earlier]
    classes = {}
    for j in range(1, m):
        classes.setdefault(int(d[j]), []).append(j)
    for cls in classes.values():
        fixed = [a for a in cls if dual[a] == a]
        if len(fixed) < 2:
            continue
        outside = [q for q in range(1, m) if q not in cls]
        q = outside[0] if outside else None
        for a, b in zip(fixed, fixed[1:]):
            ca = (q, a, a) if q is not None else (a, a, a)
            cb = (q, b, b) if q is not None else (b, b, b)
            oa, ob = order_index[orbit_of[ca]], order_index[orbit_of[cb]]
            if oa < ob:
                prec.append((ob, oa))
    prec.sort()
    prec_ptr = np.zeros(norb + 1, dtype=np.int64)
    prec_data = np.array([e for _, e in prec], dtype=np.int64)
    pos = 0
    for oi in range(norb):
        while pos < len(prec) and prec[pos][0] <= oi:
            pos += 1
        prec_ptr[oi + 1] = pos

    init_tensor = np.zeros(m * m * m, dtype=np.int64)
    for k in range(m):
        init_tensor[0 * m * m + k * m + k] = 1
    for j in range(1, m):
        init_tensor[j * m * m + 0 * m + j] = 1
        init_tensor[j * m * m + dual[j] * m + 0] = 1

    return {
        "m": m,
        "d": d,
        "norb": norb,
        "orb_ptr": orb_ptr,
        "cell_row": cell_row,
        "cell_wt": cell_wt,
        "cell_idx": cell_idx,
        "caps": caps,
        "row_target": row_target,
        "row_sq_bound": row_sq_bound,
        "row_cnt": row_cnt,
        "row_capacity": row_capacity,
        "eq_ptr": eq_by_orbit_ptr,
        "eq_data": eq_data,
        "prec_ptr": prec_ptr,
        "prec_data": prec_data,
        "init_tensor": init_tensor,
        "use_dims": use_dims,
    }


def reference_greedy_assoc_order(m, orbits, orbit_of):
    """Static orbit order maximizing early associativity completion."""
    eq_orbits = []
    for i in range(1, m):
        for j in range(1, m):
            for k in range(1, m):
                for t in range(m):
                    os_ = set()
                    for s in range(m):
                        for cell in ((i, j, s), (s, k, t), (j, k, s), (i, s, t)):
                            if min(cell) >= 1:
                                os_.add(orbit_of[cell])
                    eq_orbits.append(os_)
    chosen = []
    chosen_set = set()
    remaining = set(range(len(orbits)))
    while remaining:
        best, best_score = None, (-1, -1)
        for o in sorted(remaining):
            completed = sum(
                1 for os_ in eq_orbits if o in os_ and os_ <= chosen_set | {o}
            )
            nearly = sum(1 for os_ in eq_orbits if o in os_ and len(os_ - chosen_set) <= 2)
            score = (completed, nearly)
            if score > best_score:
                best, best_score = o, score
        chosen.append(best)
        chosen_set.add(best)
        remaining.discard(best)
    return chosen
