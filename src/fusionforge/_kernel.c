/* The C backend of the tensor search: a unit's problem build, the checks
   of its arrays and the iterative DFS over orbit values.

   ff_build_problem is a step-for-step translation of the half of
   search._build_problem that depends on the dimensions: caps, search
   order and positions, the cell layout, the orbit rows with REST, the
   trigger sort of the associativity instances and sym; each stable sort
   by search position, row or trigger becomes a counting sort, and each
   small stable argsort an insertion sort.  It reads the
   tables cached per involution (search._InvolutionTables, through the
   table of their addresses, search._C_TABLES), the action of the unit's
   relabelings on the orbits and, without dimensions, the cached greedy
   order, and writes the twelve kernel arrays (search._KERNEL_ARRAYS)
   into one int64 block, in that order.  search._build_problem stays the
   reference: the block must hold its arrays byte for byte.  search.py
   checks the cached tables once, when their record is made, against the
   bounds read through them here.

   ff_dfs_kernel is a statement-for-statement translation of
   search._dfs_kernel, which stays the reference: the arrays carry the
   same names and meaning, and nodes, prune counts and solutions (in
   order) must come out identical.  It takes the twelve arrays as one
   block, built here or packed from a problem built in Python, and first
   checks what the search relies on (well_formed): index bounds, pointer
   arrays that start at 0, never decrease and end at their array's
   length, rows of sym that permute 0..norb-1, and signs.  search.py
   checks only dtypes, contiguity, lengths and shapes.  It builds this
   file on first use with `cc -O2 -shared -fPIC` and loads it through
   ctypes.

   Entering depth o (at the start and after each push), the kernel
   narrows orbit o to the interval lo..hi of values that every row
   (j, k) the orbit touches allows, given orbits 0..o-1.  For such a row
   let R be its residual (d_j d_k less what is placed), W the summed d_s
   of orbit o's cells in it, and REST (orb_row_rest) the summed cap * d_s
   of its cells at later search positions, fixed by the search order.
   Then
       v W <= R,   v W >= R - REST.
   A row the orbit completes has REST = 0, so there the two force
   v W = R; hi is also at most caps[o].  The values from 0 to caps[o]
   outside lo..hi are counted as knapsack prunes.  R stays nonnegative
   (well_formed checks the start), so the integer divisions below are
   floors.  Each cap is the least row-sum cap d_j d_k / d_s over its
   orbit's cells (j,k,s), (j*,s,k), (k,s*,j*), so with the three
   dimensions sorted as a <= b <= c it is at most ab/c <= a: the
   coefficient bound min(d_j,d_k,d_s) and, summed over a row, the
   square-sum bound min(d_j,d_k)^2 - [k = j*] already hold, and the
   kernel takes neither.

   Each value in lo..hi then meets the lex-leader test.  Row g of sym
   (nsym rows of norb search positions) is a relabeling: the value
   rejected, and counted as a symmetry prune, if for some g the first
   position p with v[p] != v[sym[g][p]], both assigned, has
   v[p] > v[sym[g][p]].  The other values are nodes.  The test is
   incremental: g waits, at the position p where its comparison stopped,
   in the list of depth sym[g][p], the depth that assigns the pair.  Only
   the g waiting on o are compared at depth o, each resuming at its p;
   p itself is assigned by then, since sym[g] permutes the positions
   (well_formed checks it) and maps 0..p-1 into 0..o.  A g compared
   strictly in favour of the assignment, or found to fix it, waits no
   more.  The entries depth o adds to later lists are logged and removed
   when its value is undone.  Each g waits at most once in each list, so
   a list holds at most nsym entries.

   A node then checks the associativity instances (i, j, k, t) of
   eq_data[eq_ptr[o] .. eq_ptr[o + 1]), up to the first that fails.
   eq_data holds one instance per dihedral orbit (search._assoc_instances):
   under Frobenius reciprocity the others are the same equation, so each
   distinct equation is checked once.

   Invariant: orbits 0..o-1 are applied with the values v[0..o-1]; v[o]
   is the next candidate of orbit o, not yet applied. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* the tables of search._InvolutionTables that ff_build_problem reads, in
   the order of the table of their addresses (search._C_TABLES) */
enum {
    T_ORBIT, T_ORBIT_SIZE, T_CELL_IDX, T_PAIR_ORBIT, T_PAIR_ROW, T_PAIR_COLS, T_ORBIT_ROWS,
    T_ROW_LAST, T_UNIT_ROW, T_INIT_TENSOR, T_INST, T_INST_ORBITS, NTABLES
};

/* the kernel arrays, in their order in the block (search._KERNEL_ARRAYS) */
enum {
    ORB_PTR, CELL_IDX, CAPS, ORB_ROW_PTR, ORB_ROW, ORB_ROW_WT, ORB_ROW_REST, ROW_TARGET,
    EQ_PTR, EQ_DATA, SYM, INIT_TENSOR, NARRAYS
};

void ff_free(i64 *p) { free(p); }

/* Points a[0..NARRAYS) at the kernel arrays in block: norb orbits, m^3
   cells of the tensor, ncell free cells, nent orbit rows, nrows rows,
   neq instances and nsym rows of sym (search._block_lengths). */
static void layout(i64 m, i64 norb, i64 nrows, i64 nsym, i64 ncell, i64 nent, i64 neq,
                   i64 *block, i64 **a)
{
    const i64 len[NARRAYS] = {norb + 1, ncell, norb, norb + 1, nent, nent, nent, nrows,
                              norb + 1, 4 * neq, nsym * norb, m * m * m};
    i64 k;

    for (k = 0; k < NARRAYS; k++) {
        a[k] = block;
        block += len[k];
    }
}

/* Writes the kernel arrays of the unit into block.  The unit has m basis
   elements, so n = m - 1 free ones; its involution has norb orbits,
   npairs (orbit, row) pairs and ninst associativity instances, their
   tables at the addresses in tables; moves holds the orbit each of the
   nsym relabelings but the identity maps each orbit to.  dims, the m
   dimensions, is NULL when they are unknown: then every orbit has no
   rows and order is the search order.  max_mult < 0 sets no multiplicity
   cap.  Returns 0, or -1 when out of memory. */
i64 ff_build_problem(i64 m, i64 norb, i64 npairs, i64 ninst, i64 nsym, const uint64_t *tables,
                     const i64 *order, const i64 *moves, const i64 *dims, i64 max_mult,
                     i64 *block)
{
    const i64 n = m - 1, nrows = n * n, ncell = nrows * n, nent = dims ? npairs : 0;
    const i64 *orbit = (const i64 *)(uintptr_t)tables[T_ORBIT],
              *orbit_size = (const i64 *)(uintptr_t)tables[T_ORBIT_SIZE],
              *tab_cell_idx = (const i64 *)(uintptr_t)tables[T_CELL_IDX],
              *pair_orbit = (const i64 *)(uintptr_t)tables[T_PAIR_ORBIT],
              *pair_row = (const i64 *)(uintptr_t)tables[T_PAIR_ROW],
              *pair_cols = (const i64 *)(uintptr_t)tables[T_PAIR_COLS],
              *orbit_rows = (const i64 *)(uintptr_t)tables[T_ORBIT_ROWS],
              *row_last = (const i64 *)(uintptr_t)tables[T_ROW_LAST],
              *unit_row = (const i64 *)(uintptr_t)tables[T_UNIT_ROW],
              *init = (const i64 *)(uintptr_t)tables[T_INIT_TENSOR],
              *inst = (const i64 *)(uintptr_t)tables[T_INST],
              *inst_orbits = (const i64 *)(uintptr_t)tables[T_INST_ORBITS];
    i64 *a[NARRAYS];
    i64 *cap, *pos, *ord, *fill, *dd, *prod, *rows, *cols, *held, *by_row, *trig;
    i64 i, j, k, o, p, q, r, s, w, x, acc;

    layout(m, norb, nrows, nsym, ncell, nent, ninst, block, a);
    /* cap, pos and ord per orbit; fill per bucket, orbit or row; dd and
       cols per free index; prod and rows per row; held and by_row per orbit
       row; trig per instance */
    cap = malloc((3 * norb + (norb > nrows ? norb : nrows) + 2 * n + 2 * nrows + 2 * nent + ninst
                  + 1) * sizeof(i64));
    if (cap == NULL)
        return -1;
    pos = cap + norb;
    ord = pos + norb;
    fill = ord + norb;
    dd = fill + (norb > nrows ? norb : nrows);
    cols = dd + n;
    prod = cols + n;
    rows = prod + nrows;
    held = rows + nrows;
    by_row = held + nent;
    trig = by_row + nent;

    /* dimensions of the free indices, their products d_j d_k per row
       (j, k) and the row targets: those less the fixed unit column of the
       rows (j, j*).  Loops run over j, k and s rather than dividing a flat
       index, which costs more than the rest of the build */
    for (s = 0; s < n; s++)
        dd[s] = dims ? dims[s + 1] : 1;
    for (j = 0, r = 0; j < n; j++)
        for (k = 0; k < n; k++, r++)
            prod[r] = dd[j] * dd[k];
    for (r = 0; r < nrows; r++)
        a[ROW_TARGET][r] = prod[r] - unit_row[r];

    /* caps per orbit: the least row-sum cap floor(d_j d_k / d_s) over the
       orbit when dimensions are known, and the multiplicity cap */
    for (o = 0; o < norb; o++)
        cap[o] = max_mult < 0 ? INT64_MAX : max_mult;
    if (dims)
        for (r = 0, q = 0; r < nrows; r++)
            for (s = 0; s < n; s++, q++) {
                x = prod[r] / dd[s];
                if (x < cap[orbit[q]])
                    cap[orbit[q]] = x;
            }

    /* search order: rows by (d_j d_k, j, k), cells of a row by (-d_s, s);
       orbits in the order their first cell appears (insertion sorts are
       stable) */
    if (dims) {
        for (r = 0; r < nrows; r++) {
            for (i = r; i > 0 && prod[rows[i - 1]] > prod[r]; i--)
                rows[i] = rows[i - 1];
            rows[i] = r;
        }
        for (s = 0; s < n; s++) {
            for (i = s; i > 0 && dd[cols[i - 1]] < dd[s]; i--)
                cols[i] = cols[i - 1];
            cols[i] = s;
        }
        memset(pos, 0, norb * sizeof(i64));
        for (k = 0, i = 0; i < nrows; i++)
            for (j = 0; j < n; j++) {
                o = orbit[rows[i] * n + cols[j]];
                if (!pos[o]) {
                    pos[o] = 1;
                    ord[k++] = o;
                }
            }
        order = ord;
    }
    for (p = 0; p < norb; p++)
        pos[order[p]] = p;
    for (p = 0; p < norb; p++)
        a[CAPS][p] = cap[order[p]];

    /* the cells by (search position, flat index) */
    a[ORB_PTR][0] = 0;
    for (p = 0; p < norb; p++)
        a[ORB_PTR][p + 1] = a[ORB_PTR][p] + orbit_size[order[p]];
    memcpy(fill, a[ORB_PTR], norb * sizeof(i64));
    for (q = 0; q < ncell; q++)
        a[CELL_IDX][fill[pos[orbit[q]]]++] = tab_cell_idx[q];

    /* the distinct rows of each orbit, by (search position, row), with the
       orbit's summed d_s in the row; the pairs come in (orbit, row) order */
    a[ORB_ROW_PTR][0] = 0;
    for (p = 0; p < norb; p++)
        a[ORB_ROW_PTR][p + 1] = a[ORB_ROW_PTR][p] + (dims ? orbit_rows[order[p]] : 0);
    if (dims) {
        memcpy(fill, a[ORB_ROW_PTR], norb * sizeof(i64));
        for (q = 0; q < npairs; q++) {
            for (w = 0, s = 0; s < n; s++)
                w += pair_cols[q * n + s] * dd[s];
            i = fill[pos[pair_orbit[q]]]++;
            a[ORB_ROW][i] = pair_row[q];
            a[ORB_ROW_WT][i] = w;
            held[i] = cap[pair_orbit[q]] * w;
        }
        /* REST: the summed cap * d_s of the row's later entries, walking each
           row's entries (row_last delimits them) in search order from the
           last */
        for (r = 0; r < nrows; r++)
            fill[r] = r ? row_last[r - 1] + 1 : 0;
        for (i = 0; i < nent; i++)
            by_row[fill[a[ORB_ROW][i]]++] = i;
        for (r = 0, i = 0; r < nrows; i = row_last[r++] + 1)
            for (acc = 0, k = row_last[r]; k >= i; k--) {
                a[ORB_ROW_REST][by_row[k]] = acc;
                acc += held[by_row[k]];
            }
    }

    /* associativity instances by the search position that completes them,
       each trigger's in (i, j, k, t) order; inst_orbits holds one column
       per instance, so the trigger is a max over its rows */
    memset(trig, 0, ninst * sizeof(i64));
    for (r = 0; r < 4 * n; r++)
        for (q = 0; q < ninst; q++) {
            x = pos[inst_orbits[r * ninst + q]];
            if (x > trig[q])
                trig[q] = x;
        }
    memset(fill, 0, norb * sizeof(i64));
    for (q = 0; q < ninst; q++)
        fill[trig[q]]++;
    a[EQ_PTR][0] = 0;
    for (p = 0; p < norb; p++) {
        a[EQ_PTR][p + 1] = a[EQ_PTR][p] + fill[p];
        fill[p] = a[EQ_PTR][p];
    }
    for (q = 0; q < ninst; q++)
        memcpy(a[EQ_DATA] + 4 * fill[trig[q]]++, inst + 4 * q, 4 * sizeof(i64));

    /* sym[g, p]: the search position of the orbit that relabeling g maps
       the orbit at position p to */
    for (i = 0; i < nsym; i++)
        for (p = 0; p < norb; p++)
            a[SYM][i * norb + p] = pos[moves[i * norb + order[p]]];

    memcpy(a[INIT_TENSOR], init, m * m * m * sizeof(i64));
    free(cap);
    return 0;
}

/* Whether the arrays hold what the search relies on without checking:
   pointer arrays that start at 0, never decrease and end at the length
   of the array they delimit; cells, rows and instance indices in bounds;
   the row weights it divides by at least 1 and the row residuals, which
   make its integer division a floor, nonnegative; and rows of sym that
   permute 0..norb-1.  seen is scratch for norb entries. */
static int well_formed(i64 m, i64 norb, i64 nrows, i64 nsym, i64 ncell, i64 nent, i64 neq,
                       i64 *const *a, i64 *seen)
{
    const i64 *ptrs[3] = {a[ORB_PTR], a[ORB_ROW_PTR], a[EQ_PTR]};
    const i64 ends[3] = {ncell, nent, neq};
    i64 k, o, i, x;

    for (k = 0; k < 3; k++) {
        if (ptrs[k][0] != 0 || ptrs[k][norb] != ends[k])
            return 0;
        for (o = 0; o < norb; o++)
            if (ptrs[k][o + 1] < ptrs[k][o])
                return 0;
    }
    for (i = 0; i < ncell; i++)
        if (a[CELL_IDX][i] < 0 || a[CELL_IDX][i] >= m * m * m)
            return 0;
    for (i = 0; i < nent; i++)
        if (a[ORB_ROW][i] < 0 || a[ORB_ROW][i] >= nrows || a[ORB_ROW_WT][i] < 1)
            return 0;
    for (i = 0; i < nrows; i++)
        if (a[ROW_TARGET][i] < 0)
            return 0;
    for (i = 0; i < 4 * neq; i++)
        if (a[EQ_DATA][i] < 0 || a[EQ_DATA][i] >= m)
            return 0;
    for (k = 0; k < nsym; k++) {
        memset(seen, 0, norb * sizeof(i64));
        for (o = 0; o < norb; o++) {
            x = a[SYM][k * norb + o];
            if (x < 0 || x >= norb || seen[x])
                return 0;
            seen[x] = 1;
        }
    }
    return 1;
}

/* Searches the kernel arrays in block, laid out for norb >= 1 orbits,
   m^3 cells of the tensor, nrows rows, nsym rows of sym, ncell free
   cells, nent orbit rows and neq instances.  Returns the status: 0 done,
   1 a node beyond node_budget was needed, 2 a solution beyond the first
   max_results exists, -1 out of memory, -2 the arrays are malformed
   (well_formed).  counts gets nodes, knapsack, associativity and
   symmetry prunes and the number of solutions; *results gets that many
   tensors of m^3 entries in one malloc'd block, to be released with
   ff_free. */
i64 ff_dfs_kernel(i64 m, i64 norb, i64 nrows, i64 nsym, i64 ncell, i64 nent, i64 neq,
                  const i64 *block, i64 node_budget, i64 max_results, i64 *counts,
                  i64 **results)
{
    const i64 mm = m * m, ncells = mm * m, nwait = norb * nsym;
    i64 *a[NARRAYS];
    i64 *N = malloc((ncells + nrows + 4 * norb + 3 * nwait) * sizeof(i64));
    i64 *found = NULL, *grown;
    i64 nfound = 0, room = 0, nodes = 0, prune_knap = 0, prune_assoc = 0, prune_sym = 0;
    i64 status = 0, o = 0, vv, t, e, q, s, r, w, x, lo, hi, g, p, a_, i;
    int ok, rejected, enter = 1;

    layout(m, norb, nrows, nsym, ncell, nent, neq, (i64 *)block, a);
    const i64 *orb_ptr = a[ORB_PTR], *cell_idx = a[CELL_IDX], *caps = a[CAPS],
              *orb_row_ptr = a[ORB_ROW_PTR], *orb_row = a[ORB_ROW], *orb_row_wt = a[ORB_ROW_WT],
              *orb_row_rest = a[ORB_ROW_REST], *eq_ptr = a[EQ_PTR], *eq_data = a[EQ_DATA],
              *sym = a[SYM];
    if (N == NULL) {
        status = -1;
        goto done;
    }
    /* wait_g/wait_p + a * nsym: the (g, p) waiting on depth a, wait_n[a]
       of them; pushed + o * nsym: the depths that depth o's current value
       added an entry to, npushed[o] of them */
    i64 *R = N + ncells, *v = R + nrows, *vhi = v + norb,
        *wait_n = vhi + norb, *npushed = wait_n + norb, *wait_g = npushed + norb,
        *wait_p = wait_g + nwait, *pushed = wait_p + nwait;
    if (!well_formed(m, norb, nrows, nsym, ncell, nent, neq, a, v)) {
        status = -2;
        goto done;
    }
    memcpy(N, a[INIT_TENSOR], ncells * sizeof(i64));
    memcpy(R, a[ROW_TARGET], nrows * sizeof(i64));
    memset(v, 0, 4 * norb * sizeof(i64));
    for (g = 0; g < nsym; g++) {
        a_ = sym[g * norb];
        wait_g[a_ * nsym + wait_n[a_]] = g;
        wait_p[a_ * nsym + wait_n[a_]++] = 0;
    }
    for (;;) {
        if (enter) {
            /* the interval of orbit o; see the header */
            lo = 0;
            hi = caps[o];
            for (q = orb_row_ptr[o]; q < orb_row_ptr[o + 1]; q++) {
                r = orb_row[q];
                w = orb_row_wt[q];
                if (R[r] / w < hi)
                    hi = R[r] / w;
                x = R[r] - orb_row_rest[q];
                if (x > lo * w)
                    lo = (x + w - 1) / w;
            }
            prune_knap += caps[o] + 1 - (hi >= lo ? hi - lo + 1 : 0);
            v[o] = lo;
            vhi[o] = hi;
            enter = 0;
        }

        if (v[o] > vhi[o]) {
            /* depth exhausted: pop to the previous orbit */
            if (--o < 0)
                break;
        } else {
            /* the lex-leader test of v[o]; see the header */
            rejected = 0;
            for (i = 0; i < wait_n[o] && !rejected; i++) {
                g = wait_g[o * nsym + i];
                const i64 *row = sym + g * norb;
                for (p = wait_p[o * nsym + i]; p < norb; p++) {
                    s = row[p];
                    if (s > o) {
                        wait_g[s * nsym + wait_n[s]] = g;
                        wait_p[s * nsym + wait_n[s]++] = p;
                        pushed[o * nsym + npushed[o]++] = s;
                        break;
                    }
                    if (v[p] != v[s]) {
                        rejected = v[p] > v[s];
                        break;
                    }
                }
            }
            if (rejected) {
                prune_sym++;
                while (npushed[o] > 0)
                    wait_n[pushed[o * nsym + --npushed[o]]]--;
                v[o]++;
                continue;
            }

            if (nodes >= node_budget) {
                status = 1;
                break;
            }
            vv = v[o];
            nodes++;
            for (t = orb_ptr[o]; t < orb_ptr[o + 1]; t++)
                N[cell_idx[t]] = vv;
            for (q = orb_row_ptr[o]; q < orb_row_ptr[o + 1]; q++)
                R[orb_row[q]] -= vv * orb_row_wt[q];
            ok = 1;
            for (e = eq_ptr[o]; e < eq_ptr[o + 1]; e++) {
                const i64 *qd = eq_data + 4 * e;
                const i64 *ij = N + qd[0] * mm + qd[1] * m, *jk = N + qd[1] * mm + qd[2] * m;
                const i64 *kt = N + qd[2] * m + qd[3], *it = N + qd[0] * mm + qd[3];
                i64 lhs = 0, rhs = 0;
                for (s = 0; s < m; s++) {
                    lhs += ij[s] * kt[s * mm];
                    rhs += jk[s] * it[s * m];
                }
                if (lhs != rhs) {
                    ok = 0;
                    prune_assoc++;
                    break;
                }
            }
            if (ok && o < norb - 1) {
                o++;
                enter = 1;
                continue;
            }
            if (ok) {
                if (nfound == max_results) {
                    status = 2;
                    break;
                }
                if (nfound == room) {
                    room = room ? 2 * room : 256;
                    grown = realloc(found, room * ncells * sizeof(i64));
                    if (grown == NULL) {
                        status = -1;
                        break;
                    }
                    found = grown;
                }
                memcpy(found + nfound * ncells, N, ncells * sizeof(i64));
                nfound++;
            }
        }

        /* undo orbit o's value and go on to its next one */
        vv = v[o];
        for (t = orb_ptr[o]; t < orb_ptr[o + 1]; t++)
            N[cell_idx[t]] = 0;
        for (q = orb_row_ptr[o]; q < orb_row_ptr[o + 1]; q++)
            R[orb_row[q]] += vv * orb_row_wt[q];
        while (npushed[o] > 0)
            wait_n[pushed[o * nsym + --npushed[o]]]--;
        v[o] = vv + 1;
    }

done:
    free(N);
    counts[0] = nodes;
    counts[1] = prune_knap;
    counts[2] = prune_assoc;
    counts[3] = prune_sym;
    counts[4] = nfound;
    *results = found;
    return status;
}
