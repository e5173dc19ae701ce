/* Iterative DFS over orbit values: the C backend of the tensor search.

   A statement-for-statement translation of search._dfs_kernel, which
   stays the reference: the arguments carry the same names and meaning,
   and nodes, prune counts and solutions (in order) must come out
   identical.  search.py builds this file on first use with
   `cc -O2 -shared -fPIC` and loads it through ctypes.

   Invariant: orbits 0..o-1 are applied, orbit o holds the candidate
   value v[o] not yet applied. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

void ff_free(i64 *p) { free(p); }

/* Returns the status: 0 done, 1 node budget exhausted, 2 a solution
   beyond the first max_results exists, -1 out of memory.  counts gets
   nodes, knapsack prunes, associativity prunes and the number of
   solutions; *results gets that many tensors of m^3 entries in one
   malloc'd block, to be released with ff_free. */
i64 ff_dfs_kernel(i64 m, i64 norb, const i64 *orb_ptr, const i64 *cell_row,
                  const i64 *cell_wt, const i64 *cell_idx, const i64 *caps,
                  i64 nrows, const i64 *row_target, const i64 *row_sq_bound,
                  const i64 *row_cnt0, const i64 *row_capacity0,
                  const i64 *eq_ptr, const i64 *eq_data,
                  const i64 *prec_ptr, const i64 *prec_data,
                  const i64 *init_tensor, i64 use_dims, i64 node_budget,
                  i64 max_results, i64 *counts, i64 **results)
{
    const i64 mm = m * m, ncells = mm * m;
    i64 *N = malloc((ncells + 4 * nrows + 2 * norb + 2) * sizeof(i64));
    i64 *found = NULL, *grown;
    i64 nfound = 0, room = 0, nodes = 0, prune_knap = 0, prune_assoc = 0;
    i64 status = 0, o = 0, vv, t, e, s, r, w;
    int ok;

    if (N == NULL) {
        status = -1;
        goto done;
    }
    i64 *R = N + ncells, *CAPR = R + nrows, *CNT = CAPR + nrows,
        *SS = CNT + nrows, *val = SS + nrows, *v = val + norb + 1;
    memcpy(N, init_tensor, ncells * sizeof(i64));
    memcpy(R, row_target, nrows * sizeof(i64));
    memcpy(CAPR, row_capacity0, nrows * sizeof(i64));
    memcpy(CNT, row_cnt0, nrows * sizeof(i64));
    memset(SS, 0, nrows * sizeof(i64));
    for (t = 0; t <= norb; t++) {
        val[t] = -1;
        v[t] = 0;
    }

    for (;;) {
        if (nodes >= node_budget) {
            status = 1;
            break;
        }
        if (v[o] > caps[o]) {
            /* depth exhausted: pop to previous orbit */
            if (--o < 0)
                break;
            vv = val[o];
            for (t = orb_ptr[o]; t < orb_ptr[o + 1]; t++) {
                r = cell_row[t];
                w = cell_wt[t];
                N[cell_idx[t]] = 0;
                R[r] += vv * w;
                CAPR[r] += caps[o] * w;
                CNT[r] += 1;
                SS[r] -= vv * vv;
            }
            val[o] = -1;
            v[o] = vv + 1;
            continue;
        }

        vv = v[o];
        nodes++;
        ok = 1;
        for (e = prec_ptr[o]; e < prec_ptr[o + 1]; e++)
            if (vv > val[prec_data[e]]) {
                ok = 0;
                break;
            }
        if (!ok) {
            /* larger values only grow; exhaust this depth */
            v[o] = caps[o] + 1;
            continue;
        }
        for (t = orb_ptr[o]; t < orb_ptr[o + 1]; t++) {
            r = cell_row[t];
            w = cell_wt[t];
            N[cell_idx[t]] = vv;
            R[r] -= vv * w;
            CAPR[r] -= caps[o] * w;
            CNT[r] -= 1;
            SS[r] += vv * vv;
        }
        if (use_dims) {
            for (t = orb_ptr[o]; t < orb_ptr[o + 1]; t++) {
                r = cell_row[t];
                if (R[r] < 0 || R[r] > CAPR[r] || SS[r] > row_sq_bound[r]
                    || (CNT[r] == 0 && R[r] != 0)) {
                    ok = 0;
                    break;
                }
            }
            if (!ok)
                prune_knap++;
        }
        if (ok) {
            for (e = eq_ptr[o]; e < eq_ptr[o + 1]; e++) {
                const i64 *q = eq_data + 4 * e;
                const i64 *ij = N + q[0] * mm + q[1] * m, *jk = N + q[1] * mm + q[2] * m;
                const i64 *kt = N + q[2] * m + q[3], *it = N + q[0] * mm + q[3];
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
        }

        if (ok && o == norb - 1) {
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
            ok = 0; /* treat like a dead end: undo and advance */
        }

        if (!ok) {
            for (t = orb_ptr[o]; t < orb_ptr[o + 1]; t++) {
                r = cell_row[t];
                w = cell_wt[t];
                N[cell_idx[t]] = 0;
                R[r] += vv * w;
                CAPR[r] += caps[o] * w;
                CNT[r] += 1;
                SS[r] -= vv * vv;
            }
            v[o] = vv + 1;
            continue;
        }

        val[o] = vv;
        o++;
        v[o] = 0;
    }

done:
    free(N);
    counts[0] = nodes;
    counts[1] = prune_knap;
    counts[2] = prune_assoc;
    counts[3] = nfound;
    *results = found;
    return status;
}
