"""The Schur product criterion in action: ruling out a fusion ring.

A commutative fusion ring's fusion matrices are simultaneously
diagonalizable; the table of joint eigenvalues lambda[i, j] is its
character table.  The Schur product property on the dual -- necessary
for unitary categorification -- holds iff every triple of columns gives

    sum_i lambda[i,j1] lambda[i,j2] lambda[i,j3] / lambda[i,1]  >=  0.

Two rank-7 FPdim-210 rings share the same type; one survives, the other
is killed by a single column.
"""

import numpy as np

from fusionforge import corpus, criteria, spectral

ruled = corpus.get("r7-210-ruledout").fd
f210 = corpus.get("f210").fd

for name, fd in [("ruled-out ring", ruled), ("F210", f210)]:
    ct = spectral.character_table(fd)
    print(f"{name}: character table (residual {ct.residual:.2e})")
    with np.printoptions(precision=4, suppress=True):
        print(ct.lam.real)
    rep = criteria.schur_commutative(ct)
    print(rep, "\n")

# The decisive triple of the ruled-out ring: its last column used three
# times.  Summing the cubes over the FP weights gives exactly -65/42.
ct = spectral.character_table(ruled)
rep = criteria.schur_commutative(ct)
j = rep.worst_triple[0] - 1
val = criteria.schur_triple_sum(ct, j, j, j)
print(f"decisive value: {val.real:.12f}  (-65/42 = {-65 / 42:.12f})")

# The same obstruction seen through the dual structure constants: the
# minimal projections of the dual algebra multiply with a negative
# coefficient exactly when some triple sum is negative.
nhat = spectral.dual_fusion_coefficients(ruled, ct)
print("min dual structure constant:", nhat.min())

# The vector form of the criterion needs no commutativity.  A commutative
# ring is decided by its character table: when a triple sum fails, the
# joint eigenvectors of that triple are the witness, and no sample is
# drawn.  Only a noncommutative ring is sampled, which can falsify the
# criterion but never certify it.
w = criteria.schur_noncommutative_falsify(ruled, num_samples=0)
print("falsifier witness value:", w.value)
