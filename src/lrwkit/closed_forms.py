"""Closed-form decompositions for three families of highest weights.

Each closed form is an independent description of a family decomposition:
rectangles via vertical-domino removal from columns (and, for the symplectic
family, its image under the transposing involution), three-row shapes via a
triple of bounded subtraction counts, and the two-column-height shapes where
multiplicities first exceed one. None of them calls the general tableau
computation, which they are cross-checked against.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .classical import ORTHOGONAL, SYMPLECTIC, FamilyDecomposition, _check_family
from .partitions import Partition, conjugate, contains


def rectangle_partition(m: int, ell: int) -> Partition:
    """ell rows of length m."""
    return Partition([m] * ell)


def closed_form_rectangle(m: int, ell: int, family: str) -> FamilyDecomposition:
    """Decomposition for a rectangle with ell rows and m columns.

    For the orthogonal family each of the m columns independently loses
    vertical dominoes, so the components are the diagrams whose column
    heights form a multiset drawn from {ell, ell-2, ...}, each once. The
    symplectic family is the transpose of that picture: each of the ell rows
    loses horizontal dominoes. Transposition swaps even rows with even
    columns, so the symplectic decomposition of a shape is the termwise
    conjugate of the orthogonal decomposition of its conjugate.
    """
    if m < 1 or ell < 1:
        raise ValueError(f"need m >= 1 and ell >= 1, got {m}, {ell}")
    _check_family(family)
    top = rectangle_partition(m, ell)
    if family == SYMPLECTIC:
        dual = closed_form_rectangle(ell, m, ORTHOGONAL)
        return FamilyDecomposition(
            SYMPLECTIC, top, {conjugate(mu): k for mu, k in dual.terms.items()}
        )
    heights = range(ell, -1, -2)
    terms: dict[Partition, int] = {}
    for combo in combinations_with_replacement(heights, m):
        mu = conjugate(Partition(sorted(combo, reverse=True)))
        terms[mu] = 1
    return FamilyDecomposition(ORTHOGONAL, top, terms)


def closed_form_three_row(a: int, b: int, c: int) -> FamilyDecomposition:
    """Orthogonal decomposition for the three-row shape <a+b+c, b+c, c>.

    Components are indexed by subtraction counts (r, s, t) with s <= a,
    r <= b, s + t <= c; each triple contributes one component, at the weight
    obtained from (a, b, c) by subtracting r*(0,1,0), s*(1,-1,1) and
    t*(-1,0,1) from the fundamental-weight coordinates.
    """
    if min(a, b, c) < 0:
        raise ValueError(f"need nonnegative a, b, c: {a}, {b}, {c}")
    top = Partition([a + b + c, b + c, c])
    terms: dict[Partition, int] = {}
    for s in range(a + 1):
        for r in range(b + 1):
            for t in range(c - s + 1):
                c1 = a - s + t
                c2 = b - r + s
                c3 = c - s - t
                mu = Partition([c1 + c2 + c3, c2 + c3, c3])
                terms[mu] = terms.get(mu, 0) + 1
    return FamilyDecomposition(ORTHOGONAL, top, terms)


def closed_form_heights24(a: int, b: int) -> FamilyDecomposition:
    """Orthogonal decomposition for a columns of height 2 plus b of height 4.

    Components are the diagrams inside the top with equal first and third
    weight coordinates c1 = c3 <= a, with multiplicity
    1 + min(c2, a - c3, b - c3 - c4, a + b - c1 - c2 - c3 - c4).
    """
    if a < 0 or b < 0:
        raise ValueError(f"need nonnegative a, b: {a}, {b}")
    top = Partition([a + b, a + b, b, b])
    terms: dict[Partition, int] = {}
    for c1 in range(a + 1):
        c3 = c1
        for c4 in range(b - c3 + 1):
            for c2 in range(a + b - c1 - c3 - c4 + 1):
                mu = Partition([c1 + c2 + c3 + c4, c2 + c3 + c4, c3 + c4, c4])
                if not contains(top, mu):
                    continue
                mult = 1 + min(
                    c2, a - c3, b - c3 - c4, a + b - c1 - c2 - c3 - c4
                )
                terms[mu] = mult
    return FamilyDecomposition(ORTHOGONAL, top, terms)
