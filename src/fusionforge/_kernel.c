/* Iterative DFS over orbit values: the C backend of the tensor search.

   A statement-for-statement translation of search._dfs_kernel, which
   stays the reference: the arguments carry the same names and meaning,
   and nodes, prune counts and solutions (in order) must come out
   identical.  search.py builds this file on first use with
   `cc -O2 -shared -fPIC` and loads it through ctypes.

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
   (search._check_kernel_args checks the start), so the integer divisions
   below are floors.  Each cap is the least row-sum cap d_j d_k / d_s over
   its orbit's cells (j,k,s), (j*,s,k), (k,s*,j*), so with the three
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
   (search._check_kernel_args checks it) and maps 0..p-1 into 0..o.  A g
   compared strictly in favour of the assignment, or found to fix it,
   waits no more.  The entries depth o adds to later lists are logged and
   removed when its value is undone.  Each g waits at most once in each
   list, so a list holds at most nsym entries.

   Invariant: orbits 0..o-1 are applied with the values v[0..o-1]; v[o]
   is the next candidate of orbit o, not yet applied. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

void ff_free(i64 *p) { free(p); }

/* Returns the status: 0 done, 1 a node beyond node_budget was needed,
   2 a solution beyond the first max_results exists, -1 out of memory.
   counts gets nodes, knapsack, associativity and symmetry prunes and
   the number of solutions; *results gets that many tensors of m^3
   entries in one malloc'd block, to be released with ff_free. */
i64 ff_dfs_kernel(i64 m, i64 norb, i64 nrows, i64 nsym, const i64 *orb_ptr,
                  const i64 *cell_idx, const i64 *caps, const i64 *orb_row_ptr,
                  const i64 *orb_row, const i64 *orb_row_wt, const i64 *orb_row_rest,
                  const i64 *row_target, const i64 *eq_ptr, const i64 *eq_data,
                  const i64 *sym, const i64 *init_tensor, i64 node_budget, i64 max_results,
                  i64 *counts, i64 **results)
{
    const i64 mm = m * m, ncells = mm * m, nwait = norb * nsym;
    i64 *N = malloc((ncells + nrows + 4 * norb + 3 * nwait) * sizeof(i64));
    i64 *found = NULL, *grown;
    i64 nfound = 0, room = 0, nodes = 0, prune_knap = 0, prune_assoc = 0, prune_sym = 0;
    i64 status = 0, o = 0, vv, t, e, q, s, r, w, x, lo, hi, g, p, a, i;
    int ok, rejected, enter = 1;

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
    memcpy(N, init_tensor, ncells * sizeof(i64));
    memcpy(R, row_target, nrows * sizeof(i64));
    memset(v, 0, 4 * norb * sizeof(i64));
    for (g = 0; g < nsym; g++) {
        a = sym[g * norb];
        wait_g[a * nsym + wait_n[a]] = g;
        wait_p[a * nsym + wait_n[a]++] = 0;
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
