"""Exact combinatorics of classical characters.

The library computes, over the integers:

- partitions, dominant weights, and the dictionary between them;
- semi-standard skew tableaux with ballot reverse row words, and the
  Littlewood-Richardson coefficients they count;
- the ring of symmetric functions in the Schur basis, with skewing, the
  conjugation involution, determinant expansions into complete symmetric
  functions, and a monomial-specialization oracle;
- the stable symplectic/orthogonal bases, their shared structure constants,
  and the tensor-closed family whose products follow the
  Littlewood-Richardson rule;
- the Kirillov-Reshetikhin fermionic formula over configurations and
  vacancy numbers;
- positive roots of types B/C/D, the distinguished two-index root sets,
  their commutation properties, and cone-membership tests.

See the demos/ directory for narrative walkthroughs and the ``lrwkit``
command for the CLI.
"""

from types import ModuleType as _ModuleType

from .classical import (
    FamilyDecomposition,
    branch_schur,
    even_column_heights,
    even_row_lengths,
    family_decomposition,
    min_stable_rank,
    stable_tensor_coefficient,
    stable_tensor_expansion,
    tensor_product_two_ways,
    to_schur,
)
from .closed_forms import (
    closed_form_heights24,
    closed_form_rectangle,
    closed_form_three_row,
    rectangle_partition,
)
from .fermionic import (
    FactorList,
    alpha_coords,
    fermionic_decomp,
    fermionic_multiplicity,
    vacancy,
)
from .lie import LieSpec, cartan_matrix, integer_root_coords, weight_of_root_vector
from .looproot import (
    BetaSet,
    beta_roots,
    commute_check,
    cone_membership,
    positive_roots,
    type_a_support,
)
from .partitions import (
    DominantWeight,
    Partition,
    RootLatticeElement,
    clear_caches,
    conjugate,
    contains,
    partition_from_weight,
    partitions_of,
    partitions_up_to,
    size,
    subpartitions,
    weight_from_partition,
)
from .schur import (
    Expansion,
    H_MONOMIAL,
    ORTHOGONAL,
    SCHUR,
    SYMPLECTIC,
    h_monomial_to_schur,
    jacobi_trudi,
    mult,
    omega,
    schur_basis,
    schur_polynomial,
    skew,
    skew_schur_expand,
)
from .tableaux import (
    SkewShape,
    SkewTableau,
    content,
    enumerate_lr_tableaux,
    is_ballot,
    lr_coefficient,
    reverse_row_word,
)
from .verify import VerifyReport, run_verify_suite

__version__ = "0.1.0"

# Every public name bound above, and no submodule: a new name is added in one place.
__all__ = sorted(
    name for name, obj in globals().items() if name[0] != "_" and not isinstance(obj, _ModuleType)
)
