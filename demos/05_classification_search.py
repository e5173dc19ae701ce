"""Classifying simple integral fusion rings at desk scale.

The pipeline enumerates candidate types (exact FPdim decompositions
under the arithmetic necessary conditions), duality involutions up to
relabeling, and then backtracks over the structure-constant tensor with
four prunes: per-row dimension knapsacks, per-orbit caps from the row
sums (the least floor(d_j d_k / d_s) over an orbit's cells, which
implies the coefficient bound min(d_j, d_k, d_s) and the square-sum
bound on each row), associativity instances fired the moment they
complete, and the lex-leader test, which keeps one tensor per
isomorphism class.

The FPdim-660 hunt illustrates the punchline: six hundred billion naive
leaves collapse to under 300,000 visited nodes and well under a second.
"""

import time

from fusionforge import criteria, rings, search, spectral

FLAGS = dict(
    require_perfect=True,
    require_divisibility=True,
    min_d2=3,
    require_gcd_one=True,
    exclude_prime_power_products=True,
    growth_cap=True,
)

for fpdim, rank in [(60, 5), (210, 7), (660, 8)]:
    constraints = search.SearchConstraints(fpdim=fpdim, rank=rank, **FLAGS)
    t0 = time.time()
    report = search.classify(constraints, node_budget=10**10)
    dt = time.time() - t0
    print(f"FPdim {fpdim}, rank {rank}  ({dt:.1f}s)")
    for tr in report.types:
        print(f"  type {tr.signature}: {len(tr.rings)} ring(s), "
              f"{len(tr.simple)} simple, {len(tr.schur_pass)} Schur-pass  "
              f"[{tr.stats.nodes} nodes, "
              f"prunes: knapsack {tr.stats.prune_knapsack}, "
              f"associativity {tr.stats.prune_associativity}, "
              f"symmetry {tr.stats.prune_symmetry}]")
    simple = report.simple_rings
    survivors = [fd for fd in simple if fd in report.schur_rings]
    print(f"  => {len(simple)} simple; Schur criterion leaves {len(survivors)}\n")

# the survivors of the 660 run are PSL(2,11) and F660
constraints = search.SearchConstraints(fpdim=660, rank=8, **FLAGS)
report = search.classify(constraints, node_budget=10**10)
for fd in report.simple_rings:
    if criteria.schur_commutative(spectral.character_table(fd)).holds:
        print("Schur survivor:", rings.type_signature(fd),
              "dims", rings.fp_dimensions(fd).round(6))
