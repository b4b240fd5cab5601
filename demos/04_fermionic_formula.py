"""The fermionic formula: configurations, vacancy numbers, multiplicities.

Run with: python3 demos/04_fermionic_formula.py
"""

from lrwkit import (
    DominantWeight,
    LieSpec,
    Partition,
    alpha_coords,
    family_decomposition,
    fermionic_decomp,
    fermionic_multiplicity,
    vacancy,
    weight_from_partition,
)

spec = LieSpec("B", 3)
factors = [(1, 2)]  # one tensor factor: the fundamental weight at node 2

# Each target weight below the top determines root coordinates n_1..n_r.
zero = DominantWeight((0, 0, 0), 3)
print("root coordinates of the zero weight:", alpha_coords(spec, factors, zero))

# A configuration is one partition per node; the vacancy numbers control
# binomial factors, and any negative vacancy number kills the contribution.
cfg = (Partition([1]), Partition([1, 1]), Partition([2]))
for node in (1, 2, 3):
    values = [vacancy(spec, factors, cfg, node, n) for n in (1, 2)]
    print(f"vacancy numbers at node {node} for row sizes 1, 2: {values}")
print("multiplicity of the zero weight:",
      fermionic_multiplicity(spec, factors, zero))
print()

# The key agreement: for a single factor in the chain part of the diagram,
# the fermionic prediction equals the tensor-closed family decomposition.
for spec, factors, top, family in (
    (LieSpec("B", 3), [(1, 2)], Partition([1, 1]), "o"),
    (LieSpec("C", 3), [(2, 1)], Partition([2]), "sp"),
    (LieSpec("D", 4), [(2, 2)], Partition([2, 2]), "o"),
):
    predicted = fermionic_decomp(spec, factors)
    expected = {
        weight_from_partition(mu, spec.rank): m
        for mu, m in family_decomposition(top, family).terms.items()
    }
    print(f"{spec.family}{spec.rank}, factor {factors[0]}:")
    for w, m in sorted(predicted.items(), key=lambda kv: kv[0].coeffs, reverse=True):
        print(f"  weight {w.coeffs} x{m}")
    print(f"  matches the family decomposition of {list(top)}: "
          f"{predicted == expected}")
print()

# Multiple factors are allowed; only single factors carry an oracle here,
# but the sum is computable for any product.
spec = LieSpec("A", 2)
decomp = fermionic_decomp(spec, [(1, 1), (1, 2)])
print("A2, factors (1,1) and (1,2):",
      {w.coeffs: m for w, m in sorted(decomp.items(), key=lambda kv: kv[0].coeffs)})
