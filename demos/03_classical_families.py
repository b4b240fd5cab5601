"""Stable symplectic/orthogonal characters and the tensor-closed family.

Run with: python3 demos/03_classical_families.py
"""

from lrwkit import (
    Expansion,
    Partition,
    branch_schur,
    closed_form_heights24,
    closed_form_three_row,
    even_column_heights,
    even_row_lengths,
    family_decomposition,
    min_stable_rank,
    stable_tensor_expansion,
    tensor_product_two_ways,
    to_schur,
)
from lrwkit.verify import orthogonal_stable_product

# Restriction of a Schur function to the classical subgroups sums
# Littlewood-Richardson coefficients over domino-tileable inner shapes:
# vertical dominoes for the symplectic target, horizontal for the orthogonal.
print("s[1,1] restricted to sp:", branch_schur(Partition([1, 1]), "sp"))
print("s[2]   restricted to o :", branch_schur(Partition([2]), "o"))
print("inverting the first:", to_schur(Expansion({Partition([1, 1]): 1}, "sp")))
print()

# The two classical bases share their structure constants, so the library
# computes them once, through the symplectic characters; the route through
# the orthogonal characters is kept as its check.
one = Partition([1])
print("square of the vector character, symplectic route:",
      stable_tensor_expansion(one, one, "sp"))
print("square of the vector character, orthogonal route: ",
      orthogonal_stable_product(one, one))
print()

# The distinguished reducible family: multiplicities sum LR coefficients
# over the opposite domino class. Its tensor products follow the plain LR
# rule, which is what makes the family useful.
lam = Partition([3, 2, 1])
decomp = family_decomposition(lam, "o")
print(f"family member at {list(lam)} (orthogonal) splits into:")
for mu, m in decomp.sorted_terms():
    print(f"  {list(mu)} x{m}")
lhs, rhs = tensor_product_two_ways(Partition([1]), Partition([1, 1]), "o")
print("tensor rule check:", lhs == rhs)
print()

# Membership of the trivial component is a parity statement about the top.
for p in (Partition([2]), Partition([1, 1]), Partition([2, 2])):
    print(f"{list(p)}: even rows {even_row_lengths(p)}, "
          f"even column heights {even_column_heights(p)}, "
          f"trivial in sp-family: "
          f"{family_decomposition(p, 'sp').multiplicity(Partition())}, "
          f"in o-family: {family_decomposition(p, 'o').multiplicity(Partition())}")
print()

# Closed forms for special shapes, checked against the general computation.
print("three-row closed form at (1,1,1):")
for mu, m in closed_form_three_row(1, 1, 1).sorted_terms():
    print(f"  {list(mu)} x{m}")
h24 = closed_form_heights24(1, 1)
print("heights-2-and-4 closed form at (1,1): multiplicity of [1,1] is",
      h24.multiplicity(Partition([1, 1])))
print()

# Ranks where the universal characters specialize to irreducible ones: type
# C carries the symplectic family, B and D the orthogonal one.
print("min stable ranks for [2,1]:",
      {lie_type: min_stable_rank(Partition([2, 1]), lie_type) for lie_type in "BCD"})
