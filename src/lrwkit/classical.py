"""Universal symplectic/orthogonal characters and the stable branching calculus.

The two classical bases are reached from the Schur basis by a unitriangular
change of basis (restriction), inverted exactly. From that come their shared
structure constants, computed once in the symplectic basis, and the reducible
family whose tensor products follow the Littlewood-Richardson rule.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, Mapping

from .lie import MIN_RANK
from .partitions import Partition, contains, size
from .schur import (
    ORTHOGONAL,
    SCHUR,
    SYMPLECTIC,
    Expansion,
    _accumulate,
    _linear,
    mult,
    schur_basis,
    skew_schur_expand,
)

FAMILIES = (SYMPLECTIC, ORTHOGONAL)
# The universal family of each classical Lie type: B_n is SO(2n+1), C_n is
# Sp(2n) and D_n is SO(2n).
UNIVERSAL_FAMILY = {"B": ORTHOGONAL, "C": SYMPLECTIC, "D": ORTHOGONAL}


def even_column_heights(nu: Partition) -> bool:
    """True iff every part occurs an even number of times.

    Equivalently the diagram's columns all have even height, so it can be
    tiled by vertical dominoes.
    """
    return all(v % 2 == 0 for v in Counter(nu).values())


def even_row_lengths(nu: Partition) -> bool:
    """True iff every part is even, so the diagram tiles by horizontal dominoes."""
    return all(part % 2 == 0 for part in nu)


def _check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return family


def _domino_subpartitions(lam: Partition, columns: bool) -> Iterator[Partition]:
    """The subpartitions of lam that tile by dominoes, in `subpartitions` order.

    Vertical dominoes (columns) tile the partitions whose rows come in equal
    pairs, horizontal ones those whose parts are all even. So a prefix grows
    by two equal rows, or by one even row, smallest part first.
    `subpartitions` grows a prefix one row at a time, smallest part first,
    and lists it before its extensions; between a tileable prefix and its
    extension by a pair (a, a) it lists only untileable ones, so both give
    the tileable partitions in the same order. `even_column_heights` and
    `even_row_lengths` test the same classes one partition at a time, and
    the tests use them as this generator's oracle.
    """
    rows, first, step = (2, 1, 1) if columns else (1, 2, 2)
    acc: list[int] = []

    def rec(i: int, prev: int) -> Iterator[Partition]:
        yield Partition(acc)
        if i + rows > len(lam):
            return
        for part in range(first, min(prev, lam[i + rows - 1]) + 1, step):
            acc.extend((part,) * rows)
            yield from rec(i + rows, part)
            del acc[-rows:]

    return rec(0, lam[0] if lam else 0)


@lru_cache(maxsize=None)
def _domino_class_sum(lam: Partition, columns: bool) -> Expansion:
    """Sum of skew expansions of lam over all contained domino-tileable inners.

    The inners come from `_domino_subpartitions`, which generates only the
    tileable ones.
    """
    out: dict[Partition, int] = {}
    for nu in _domino_subpartitions(lam, columns):
        _accumulate(out, skew_schur_expand(lam, nu).terms)
    return Expansion(out, SCHUR)


@lru_cache(maxsize=None)
def branch_schur(lam: Partition, target: str) -> Expansion:
    """Restrict one Schur basis element to the symplectic or orthogonal basis.

    Symplectic restriction sums over vertical-domino inners, orthogonal over
    horizontal-domino inners. The result is unitriangular: lam itself appears
    with coefficient 1 and every other key is strictly smaller.
    """
    _check_family(target)
    columns = target == SYMPLECTIC
    return Expansion(_domino_class_sum(lam, columns), target)


@lru_cache(maxsize=None)
def _universal_in_schur(lam: Partition, basis: str) -> Expansion:
    """One symplectic/orthogonal basis element written in the Schur basis.

    Inverts the unitriangular restriction by induction on box count.
    """
    out: dict[Partition, int] = {lam: 1}
    for mu, c in branch_schur(lam, basis).terms.items():
        if mu != lam:
            _accumulate(out, _universal_in_schur(mu, basis).terms, -c)
    return Expansion(out, SCHUR)


def to_schur(a: Expansion) -> Expansion:
    """Rewrite a symplectic/orthogonal expansion in the Schur basis."""
    if a.basis not in FAMILIES:
        raise ValueError(f"expected a classical-basis expansion, got {a.basis}")
    return _linear(a, lambda lam: _universal_in_schur(lam, a.basis), SCHUR)


def _branch_expansion(a: Expansion, target: str) -> Expansion:
    """Apply the restriction map to every key of a Schur expansion."""
    if a.basis != SCHUR:
        raise ValueError(f"expected a Schur expansion, got {a.basis}")
    return _linear(a, lambda lam: branch_schur(lam, target), target)


@lru_cache(maxsize=None)
def stable_tensor_expansion(mu: Partition, nu: Partition, family: str) -> Expansion:
    """Product of two classical basis elements, expanded in the same basis.

    Both bases share these structure constants (Newell 1951; Koike-Terada 1987),
    so one product serves both: the factors' universal symplectic characters,
    multiplied in the Schur basis and restricted back, once per unordered pair.
    The other order and the orthogonal tag are cache entries that call that one.
    """
    _check_family(family)
    if (size(mu), mu) < (size(nu), nu):
        return stable_tensor_expansion(nu, mu, family)
    if family == ORTHOGONAL:
        return Expansion(stable_tensor_expansion(mu, nu, SYMPLECTIC), ORTHOGONAL)
    prod = mult(_universal_in_schur(mu, SYMPLECTIC), _universal_in_schur(nu, SYMPLECTIC))
    return _branch_expansion(prod, SYMPLECTIC)


def stable_tensor_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """Stable tensor multiplicity of lam in the product of mu and nu, in either family."""
    return stable_tensor_expansion(mu, nu, SYMPLECTIC).coefficient(lam)


class FamilyDecomposition(Expansion):
    """Irreducible decomposition of one member of the tensor-closed family.

    An `Expansion` in the family's basis, the universal characters of the
    stable rank, whose top partition appears with multiplicity 1; every
    multiplicity is positive and every component fits inside the top.
    """

    __slots__ = ("top",)

    def __init__(self, family: str, top: Partition, terms: Mapping[Partition, int] | Expansion):
        _check_family(family)
        top = Partition(top)
        given = terms.terms if isinstance(terms, Expansion) else terms
        if given.get(top) != 1:
            raise ValueError(f"top component {list(top)} must have multiplicity 1")
        for mu, m in given.items():
            if m <= 0:
                raise ValueError(f"multiplicities must be positive: {list(mu)}: {m}")
            if not contains(top, mu):
                raise ValueError(f"component {list(mu)} does not fit inside top {list(top)}")
        super().__init__(terms, family)
        object.__setattr__(self, "top", top)

    family = Expansion.basis
    multiplicity = Expansion.coefficient

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        """Terms by descending box count, then descending lexicographic."""
        return [
            (p, self.terms[p])
            for p in sorted(self.terms, key=lambda q: (size(q), tuple(q)), reverse=True)
        ]

    def to_jsonable(self) -> dict:
        return {
            "family": "Sp" if self.family == SYMPLECTIC else "O",
            "top": list(self.top),
            "terms": [
                {"partition": list(p), "mult": m} for p, m in self.sorted_terms()
            ],
        }


@lru_cache(maxsize=None)
def family_decomposition(lam: Partition, family: str) -> FamilyDecomposition:
    """Decompose the tensor-closed family member indexed by lam.

    The multiplicity of mu sums Littlewood-Richardson numbers over the domino
    class opposite to the one used for restriction: horizontal dominoes for
    the symplectic family, vertical for the orthogonal one.
    """
    _check_family(family)
    columns = family == ORTHOGONAL
    return FamilyDecomposition(family, lam, _domino_class_sum(lam, columns))


def tensor_product_two_ways(
    mu: Partition, nu: Partition, family: str
) -> tuple[Expansion, Expansion]:
    """Both sides of the family tensor rule, as expansions in the family's basis.

    Left: decompose both factors and multiply componentwise with the stable
    tensor coefficients. Right: multiply in the Schur basis and decompose each
    resulting family member. The two must agree.
    """
    _check_family(family)
    lhs: dict[Partition, int] = {}
    wm = family_decomposition(mu, family)
    wn = family_decomposition(nu, family)
    for kap, m1 in wm.terms.items():
        for kap2, m2 in wn.terms.items():
            _accumulate(lhs, stable_tensor_expansion(kap, kap2, family).terms, m1 * m2)
    prod = mult(schur_basis(mu), schur_basis(nu))
    rhs = _linear(prod, lambda lam: family_decomposition(lam, family), family)
    return Expansion(lhs, family), rhs


def min_stable_rank(lam: Partition, lie_type: str) -> int:
    """Smallest rank of type B, C or D at which the universal character of lam is irreducible.

    The type's family is ``UNIVERSAL_FAMILY[lie_type]``. The character needs
    rank rows + 1 (rows + 2 on D), and the answer is never below the smallest
    rank `LieSpec` accepts for the type.
    """
    if lie_type not in UNIVERSAL_FAMILY:
        raise ValueError(f"type must be one of {tuple(UNIVERSAL_FAMILY)}, got {lie_type!r}")
    return max(len(lam) + (2 if lie_type == "D" else 1), MIN_RANK[lie_type])
