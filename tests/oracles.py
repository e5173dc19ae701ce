"""Oracles for the classification search.

``naive_enumerate_fusion_rings`` shares nothing with
``fusionforge.search`` except the ring axioms and the isomorphism test:
no orbit compression, no coefficient bounds, no partial associativity
and no canonical-form dedup.

``reference_build_problem`` is the cell-by-cell loop version of
``search._build_problem``: orbits walked one cell at a time, the search
order from sorted Python lists and the greedy associativity order from
set arithmetic.  The array-built problem must equal it array for array.

``reference_dfs_kernel`` is the kernel that tried every value of an
orbit from 0 to its cap and checked the rows' dimension equations and
square-sum bounds after applying each one, then the lex-leader test by
a full rescan of every relabeling.  It reads no REST from the build:
it keeps each row's open capacity itself, from the caps and the cells.
The interval kernel must find the same solutions in the same order
with the same prune counts, and skip exactly the values this one
applied only to prune them.

Both references keep the coefficient and square-sum bounds that the
search leaves to its orbit caps, so matching them shows the caps imply
those bounds.

``reference_enumerate_types`` is the type enumeration that applies the
rank and growth-cap conditions only to complete types.

``reference_pair_sum_slack`` is bound (4) of
``rings.coefficient_bounds_report`` as six ``np.minimum`` passes over a
4-D index meshgrid, one per pair of the four indices; the report takes
the product of the two smallest of the four dimensions instead.

``reference_fp_dimensions`` finds the Frobenius-Perron vector by power
iteration on the total fusion matrix, and ``reference_column_order``
orders the character columns by a per-column Python sort key: the
earlier ``rings.fp_dimensions`` and ``spectral._column_order``, which
now use one symmetric eigensolve and one ``np.lexsort``.

``reference_one_ring_character_table`` and ``reference_canonical_key`` are the
earlier one-ring ``spectral.character_table`` and ``search._canonical_key``:
one ``eigh`` per ring and draw, and one relabeled copy per tensor and
relabeling.  The search now keys, checks and tabulates its rings as
stacks, and its tables and keys must equal these bitwise.
"""

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from fusionforge import rings, spectral
from fusionforge.errors import DegenerateSpectrum
from fusionforge.rings import FusionData, TypeSignature, are_isomorphic
from fusionforge.search import _excluded_fpdim


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
            fd = FusionData(N.copy(), np.asarray(dual))
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


def reference_build_problem(dims, dual, max_mult=None):
    """Flatten the orbit/row/equation structure for the DFS kernel.

    Each orbit is capped by the row-sum caps d_j d_k / d_s and the
    coefficient bounds min(d_j, d_k, d_s) of its cells, both taken
    explicitly; ``search._build_problem`` takes the row-sum caps alone.
    ``dims=None`` (unknown dimensions, as in the rank-5 family) drops the
    dimension knapsack and caps every orbit at ``max_mult`` alone.
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
    for j in range(1, m):
        for k in range(1, m):
            row_target[row_id(j, k)] = d[j] * d[k] - (1 if dual[j] == k else 0)

    # caps per orbit: the coefficient bound min(d_j, d_k, d_s) over the
    # orbit when dimensions are known, else the multiplicity cap alone
    orb_cap = np.zeros(len(orbits), dtype=np.int64)
    for oi, orb in enumerate(orbits):
        if use_dims:
            cap = min(d[j] * d[k] // d[s] for j, k, s in orb)  # forced by the row sum
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

    # the distinct rows of each orbit, in row order, with the summed d_s
    # of the orbit's cells in each and the row's REST, the summed
    # cap * d_s of its cells in later orbits; none without dimensions
    left = [0] * nrows  # per row, the summed cap * d_s of the cells not yet walked
    for oi in range(norb):
        for t in range(orb_ptr[oi], orb_ptr[oi + 1]):
            left[cell_row[t]] += int(caps[oi]) * int(cell_wt[t])
    orb_rows = []
    row_ptr = [0]
    for oi in range(norb):
        per_row = {}
        for t in range(orb_ptr[oi], orb_ptr[oi + 1]):
            left[cell_row[t]] -= int(caps[oi]) * int(cell_wt[t])
            if use_dims:
                per_row[int(cell_row[t])] = per_row.get(int(cell_row[t]), 0) + int(cell_wt[t])
        orb_rows += [(r, w, left[r]) for r, w in sorted(per_row.items())]
        row_ptr.append(len(orb_rows))
    orb_row_ptr = np.array(row_ptr, dtype=np.int64)
    orb_row, orb_row_wt, orb_row_rest = (
        np.array([x[i] for x in orb_rows], dtype=np.int64) for i in range(3))

    # associativity instances (i, j, k, t >= 1), triggered at the orbit
    # that completes their last free cell: the latest search position among
    # the free cells (i,j,s), (s,k,t), (j,k,s), (i,s,t) over all s.  Cells
    # with a unit index are fixed and count as position 0.  Frobenius
    # reciprocity makes the instances with t = 0 identities.
    pos_of = np.zeros((m, m, m), dtype=np.int64)
    for cell, o in orbit_of.items():
        pos_of[cell] = order_index[o]
    last_in_row = pos_of.max(axis=2)  # [a, b] -> max_s pos_of[a, b, s]
    last_in_col = pos_of.max(axis=0)  # [b, c] -> max_s pos_of[s, b, c]
    last_in_mid = pos_of.max(axis=1)  # [a, c] -> max_s pos_of[a, s, c]
    trig = np.maximum(
        np.maximum(last_in_row[1:, 1:, None, None], last_in_col[None, None, 1:, 1:]),
        np.maximum(last_in_row[None, 1:, 1:, None], last_in_mid[1:, None, None, 1:]),
    )
    # a stable sort keeps (i, j, k, t) order within each trigger
    eq_order = np.argsort(trig, axis=None, kind="stable")
    i, j, k, t = np.unravel_index(eq_order, trig.shape)
    eq_data = np.stack([i + 1, j + 1, k + 1, t + 1], axis=1).astype(np.int64)
    eq_by_orbit_ptr = np.zeros(norb + 1, dtype=np.int64)
    eq_by_orbit_ptr[1:] = np.searchsorted(
        trig.ravel()[eq_order], np.arange(norb), side="right"
    )

    # lex-leader symmetry breaking: row g of sym maps each search position
    # to that of the orbit holding relabeling g of the orbit's least cell,
    # for every relabeling but the identity
    group = reference_relabelings(tuple(int(x) for x in d), tuple(dual))
    sym = np.zeros((len(group) - 1, norb), dtype=np.int64)
    for g, perm in enumerate(group[1:]):
        for p, o in enumerate(orb_order):
            j, k, s = orbits[o][0]
            sym[g, p] = order_index[orbit_of[(perm[j], perm[k], perm[s])]]

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
        "cell_idx": cell_idx,
        "caps": caps,
        "orb_row_ptr": orb_row_ptr,
        "orb_row": orb_row,
        "orb_row_wt": orb_row_wt,
        "orb_row_rest": orb_row_rest,
        "row_target": row_target,
        "eq_ptr": eq_by_orbit_ptr,
        "eq_data": eq_data,
        "sym": sym,
        "init_tensor": init_tensor,
        "group": np.array(group, dtype=np.int64).reshape(-1, m),
    }


@functools.lru_cache(maxsize=None)
def reference_relabelings(dims, dual):
    """Every permutation of the basis that fixes the unit, preserves
    dimensions and commutes with the duality, in lex order."""
    m = len(dual)
    out = []
    for tail in itertools.permutations(range(1, m)):
        perm = (0,) + tail
        if all(dims[perm[j]] == dims[j] and perm[dual[j]] == dual[perm[j]] for j in range(m)):
            out.append(perm)
    return out


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


def reference_dfs_kernel(prob, node_budget, max_results):
    """The per-value DFS kernel: every value from 0 to the orbit's cap is
    a node, applied and then checked against the rows it touches (their
    dimension equations and the square-sum bound
    sum_s N[j,k,s]^2 <= min(d_j, d_k)^2 - [k = j*]), then
    against every relabeling g of ``sym`` by comparing the assigned
    values with their images from position 0 on (the lex-leader test),
    then against the associativity instances it completes.

    Takes a problem from ``search._build_problem`` and returns what
    ``search._dfs_kernel`` returns.  status: 0 done, 1 node budget
    exhausted, 2 a solution beyond the first ``max_results`` exists
    (exactly ``max_results`` are returned).

    Invariant: orbits 0..o-1 are applied, orbit o holds the candidate
    value v[o] not yet applied.
    """
    m, norb = prob["m"], prob["norb"]
    use_dims = len(prob["orb_row"]) > 0  # only a problem with dimensions has orbit rows
    (orb_ptr, cell_idx, caps, row_target, eq_ptr, eq_data, sym) = (
        prob[k].tolist() for k in ("orb_ptr", "cell_idx", "caps", "row_target",
                                   "eq_ptr", "eq_data", "sym"))
    # the square-sum bound min(d_j, d_k)^2 - [k = j*] of each row, read off
    # the dimensions and the unit column N[j,k,0] = [k = j*]
    dd = prob["d"][1:]
    unit = prob["init_tensor"].reshape(m, m, m)[1:, 1:, 0]
    row_sq_bound = (np.minimum.outer(dd, dd) ** 2 - unit).ravel().tolist()
    # the row (j, k) and the weight d_s of each cell, from its flat index
    j, k, s = np.unravel_index(prob["cell_idx"], (m, m, m))
    cell_row = ((j - 1) * (m - 1) + k - 1).tolist()
    cell_wt = prob["d"][s].tolist()
    ncells = m * m * m
    N = prob["init_tensor"].tolist()
    R = list(row_target)
    # the summed cap * d_s of each row's open cells
    CAPR = [0] * len(row_target)
    for o in range(norb):
        for t in range(orb_ptr[o], orb_ptr[o + 1]):
            CAPR[cell_row[t]] += caps[o] * cell_wt[t]
    CNT = [m - 1] * len(row_target)
    SS = [0] * len(row_target)

    val = [-1] * norb
    v = [0] * norb
    results = []
    nodes = 0
    prune_knap = 0
    prune_assoc = 0
    prune_sym = 0
    status = 0

    def smaller_image(o):
        """Whether some relabeling maps val[0..o] to a lex smaller assignment."""
        for row in sym:
            for p in range(o + 1):
                if row[p] > o:
                    break  # the pair is not assigned yet
                if val[p] != val[row[p]]:
                    if val[p] > val[row[p]]:
                        return True
                    break
        return False

    o = 0
    while True:
        if nodes >= node_budget:
            status = 1
            break
        if v[o] > caps[o]:
            # depth exhausted: pop to previous orbit
            o -= 1
            if o < 0:
                break
            vv = val[o]
            for t in range(orb_ptr[o], orb_ptr[o + 1]):
                r = cell_row[t]
                w = cell_wt[t]
                N[cell_idx[t]] = 0
                R[r] += vv * w
                CAPR[r] += caps[o] * w
                CNT[r] += 1
                SS[r] -= vv * vv
            val[o] = -1
            v[o] = vv + 1
            continue

        vv = v[o]
        nodes += 1
        for t in range(orb_ptr[o], orb_ptr[o + 1]):
            r = cell_row[t]
            w = cell_wt[t]
            N[cell_idx[t]] = vv
            R[r] -= vv * w
            CAPR[r] -= caps[o] * w
            CNT[r] -= 1
            SS[r] += vv * vv
        ok = True
        if use_dims:
            for t in range(orb_ptr[o], orb_ptr[o + 1]):
                r = cell_row[t]
                if (
                    R[r] < 0
                    or R[r] > CAPR[r]
                    or SS[r] > row_sq_bound[r]
                    or (CNT[r] == 0 and R[r] != 0)
                ):
                    ok = False
                    break
            if not ok:
                prune_knap += 1
        if ok:
            val[o] = vv
            if smaller_image(o):
                ok = False
                prune_sym += 1
            val[o] = -1
        if ok:
            for e in range(eq_ptr[o], eq_ptr[o + 1]):
                i_, j_, k_, t_ = eq_data[e]
                lhs = 0
                rhs = 0
                for s in range(m):
                    lhs += N[i_ * m * m + j_ * m + s] * N[s * m * m + k_ * m + t_]
                    rhs += N[j_ * m * m + k_ * m + s] * N[i_ * m * m + s * m + t_]
                if lhs != rhs:
                    ok = False
                    prune_assoc += 1
                    break

        if ok and o == norb - 1:
            if len(results) == max_results:
                status = 2
                break
            results.append(list(N))
            ok = False  # treat like a dead end: undo and advance

        if not ok:
            for t in range(orb_ptr[o], orb_ptr[o + 1]):
                r = cell_row[t]
                w = cell_wt[t]
                N[cell_idx[t]] = 0
                R[r] += vv * w
                CAPR[r] += caps[o] * w
                CNT[r] += 1
                SS[r] -= vv * vv
            v[o] = vv + 1
            continue

        val[o] = vv
        o += 1
        v[o] = 0

    found = np.array(results, dtype=np.int64).reshape(len(results), ncells)
    return status, nodes, prune_knap, prune_assoc, prune_sym, found


def reference_enumerate_types(constraints) -> list:
    """All type signatures compatible with the constraints, in lex order,
    with the rank and growth-cap conditions checked on complete types only."""
    lo, hi = constraints.fpdim_range()
    rlo, rhi = constraints.rank_range()
    out = []
    for mu in range(max(lo, 1), hi + 1):
        if constraints.exclude_prime_power_products and _excluded_fpdim(mu):
            continue
        for m1 in ([1] if constraints.require_perfect else range(1, mu + 1)):
            if m1 > 1 and constraints.min_d2 > 1:
                continue  # the second basis element would have dimension 1
            rest = mu - m1  # budget for sum m_i n_i^2 over n_i >= 2
            if rest < 0:
                continue

            def extend(prev_n, budget, parts, slots):
                if budget == 0:
                    r = m1 + slots
                    if r < rlo or (rhi is not None and r > rhi):
                        return
                    if parts and constraints.min_d2 > parts[0][0]:
                        return
                    if constraints.require_gcd_one and parts:
                        if math.gcd(*(n for n, _ in parts)) != 1:
                            return
                    if constraints.growth_cap:
                        distinct = [1] + [n for n, _ in parts]
                        for a, b in zip(distinct[1:], distinct[2:]):
                            if b >= a * a:
                                return
                    entries = ((1, m1),) + tuple(parts)
                    out.append(TypeSignature(entries, True))
                    return
                start = max(prev_n + 1, 2)
                for n in range(start, int(math.isqrt(budget)) + 1):
                    if constraints.require_divisibility and mu % n != 0:
                        continue
                    if parts == [] and n < constraints.min_d2:
                        continue
                    for k in range(1, budget // (n * n) + 1):
                        if rhi is not None and m1 + slots + k > rhi:
                            break
                        extend(n, budget - k * n * n, parts + [(n, k)], slots + k)

            extend(1, rest, [], 0)
    out.sort(key=lambda t: (t.fpdim, t.rank, t.entries))
    return out


def reference_pair_sum_slack(fd: FusionData) -> tuple:
    """(min slack, 1-based witness) of sum_s N[j1,j2,s] N[j3,j4,s] <= the
    least d_j d_j' over the pairs j != j' of (j1, j2, j3, j4)."""
    N = np.asarray(fd.tensor, dtype=float)
    d = rings.fp_dimensions(fd)
    m = fd.rank
    pair = np.einsum("abs,cds->abcd", N, N)
    dd = np.multiply.outer(d, d)
    best = np.full((m, m, m, m), np.inf)
    grids = np.meshgrid(*(np.arange(m),) * 4, indexing="ij")
    for a, b in itertools.combinations(range(4), 2):
        best = np.minimum(best, dd[grids[a], grids[b]])
    slack = best - pair
    i = np.unravel_index(int(np.argmin(slack)), slack.shape)
    return float(slack[i]), tuple(int(x) + 1 for x in i)


def reference_fp_dimensions(fd: FusionData) -> np.ndarray:
    """The power-iteration ``rings.fp_dimensions``: the Perron vector of the
    total matrix sum_j M_j by repeated multiplication until successive
    vectors agree to 1e-12, then one Rayleigh quotient and one eigenvector
    check per fusion matrix, with the per-matrix spectral radius as the
    fallback.  Uncached."""
    N = fd.tensor.astype(np.float64)
    m = fd.rank
    total = N.sum(axis=0)
    v = np.ones(m)
    for _ in range(100_000):
        w = total @ v
        w /= w[0]
        if np.max(np.abs(w - v)) <= 1e-12 * np.max(w):
            v = w
            break
        v = w
    else:
        raise AssertionError("power iteration on the total fusion matrix did not converge")
    dims = np.array([float(v @ (N[i] @ v)) / float(v @ v) for i in range(m)])
    ok = all(
        np.max(np.abs(N[i] @ v - dims[i] * v)) <= 1e-9 * (1 + dims[i]) * np.max(v)
        for i in range(m)
    )
    if not ok:
        dims = np.array([np.max(np.linalg.eigvals(N[i]).real) for i in range(m)])
    dims[0] = 1.0
    return dims


def reference_column_order(lam: np.ndarray, d: np.ndarray) -> list:
    """The per-column ``spectral._column_order``: the first real positive
    column within 1e-6 (1 + max d) of d, then the other columns sorted by
    the tuple of their values rounded to 6 places, (real, imag) row by row."""
    m = lam.shape[0]
    perron = None
    for j in range(m):
        col = lam[:, j]
        if np.max(np.abs(col.imag)) < 1e-6 * (1 + np.max(np.abs(col))) and np.all(
            col.real > 0
        ):
            if np.max(np.abs(col.real - d)) < 1e-6 * (1 + np.max(d)):
                perron = j
                break
    if perron is None:
        raise DegenerateSpectrum("no Frobenius-Perron column found")
    rest = [j for j in range(m) if j != perron]
    rest.sort(key=lambda j: tuple((round(float(x.real), 6), round(float(x.imag), 6))
                                  for x in lam[:, j]))
    return [perron] + rest


def reference_one_ring_character_table(fd: FusionData) -> spectral.CharacterTable:
    """The one-ring ``spectral.character_table``: one ``eigh`` per draw,
    the residual of that ring alone, the columns ordered by
    ``reference_column_order``.  It ignores a table
    stored on ``fd`` and stores none."""
    m = fd.rank
    N = np.asarray(fd.tensor, dtype=float)
    d = rings.fp_dimensions(fd)
    scale = float(np.max(np.abs(N))) * m + 1.0
    rng = np.random.default_rng(spectral._SEED)
    for _ in range(spectral.REDRAWS):
        c = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        c = c + np.conj(c[fd.dual])
        T = np.einsum("i,ikl->kl", c, N.astype(complex))
        _, V = np.linalg.eigh(T)
        MV = np.swapaxes(N @ V, 1, 2)
        lam = np.einsum("jk,ijk->ij", V.T.conj(), MV)
        residual = float(np.max(np.linalg.norm(MV - lam[:, :, None] * V.T, axis=-1)))
        if residual > spectral.RESIDUAL_TOL * scale:
            continue
        top = V[np.argmax(np.abs(V), axis=0), np.arange(m)]
        V = V / (top / np.abs(top))
        order = reference_column_order(lam, d)
        lam = lam[:, order]
        V = V[:, order]
        lam[:, 0] = lam[:, 0].real
        return spectral.CharacterTable(lam, V, residual, tuple(order))
    raise DegenerateSpectrum(f"joint eigenvector validation failed after {spectral.REDRAWS} draws")


def reference_canonical_key(tensor_flat: np.ndarray, m: int, group) -> bytes:
    """The one-tensor ``search._canonical_key``: the least ``tobytes`` of
    the tensor relabeled by each permutation in ``group``."""
    N = np.asarray(tensor_flat).reshape(m, m, m)
    best = None
    for perm in group:
        p = np.asarray(perm)
        inv = np.empty(m, dtype=np.int64)
        inv[p] = np.arange(m)
        cand = N[inv][:, inv][:, :, inv].tobytes()
        if best is None or cand < best:
            best = cand
    return best
