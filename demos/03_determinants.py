"""Three independent routes to the same determinants.

The generating functions of compositions with a prescribed opening run
satisfy a banded linear system; Cramer's rule gives the master series as
det(numerator)/det(system).  Both determinants reduce to one family of
block determinants, computable by a closed form, by a three-term
recurrence, or directly by division-free expansion of the built matrix.
"""

from staircomp import (
    build_system,
    denominator_det,
    det_division_free,
    inner_block_det,
    numerator_det,
    numerator_matrix,
    staircase_gf,
    top_block_det,
)

ORDER = 10

print("The system for window length m = 2 (matrix entries as series):")
matrix, rhs = build_system(2, ORDER)
for i in range(matrix.dim):
    entries = " | ".join(f"{matrix[i, j]!s:<24}" for j in range(matrix.dim))
    print(f"  [ {entries} ]  rhs: {rhs[i]}")
print("  (1/(1-x) prints as its truncated geometric expansion)")
print()

print("Top block determinants, three ways (m = 1..4, shown up to x^4):")
for k in range(1, 5):
    closed = top_block_det(k, ORDER, "closed")
    recur = top_block_det(k, ORDER, "recurrence")
    direct = det_division_free(numerator_matrix(k, ORDER).submatrix(range(k), range(k)))
    print(f"  size {k}: closed == recurrence == direct: {closed == recur == direct}")
    print(f"          {closed.truncated(4)}")
print()

print("Inner blocks agree the same way:")
for k in range(0, 5):
    same = inner_block_det(k, ORDER, "closed") == inner_block_det(k, ORDER, "recurrence")
    print(f"  size {k}: closed == recurrence: {same}")
print()

print("Cramer's rule at m = 2: numerator/denominator determinants")
num = numerator_det(2, ORDER)
den = denominator_det(2, ORDER)
ratio = num.divide(den)
print(f"  numerator   = {num.truncated(4)}")
print(f"  denominator = {den.truncated(4)}")
print(f"  ratio equals the master series: {ratio == staircase_gf(2, ORDER)}")
