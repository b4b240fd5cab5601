"""The ring of symmetric functions in the Schur basis, with exact integers.

Products use the Littlewood-Richardson rule, counting ballot tableaux per
candidate term; skews list them, once per canonical diagram (its
edge-connected pieces, each up to translation, stacked in a fixed order),
since the skew function depends only on those pieces. The determinant
expansion and the monomial specialization give two independent routes to the
same answers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, zip_longest
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .partitions import (
    EMPTY,
    Partition,
    conjugate,
    contains,
    size,
)
from .tableaux import SkewShape, _ballot_fillings, lr_coefficient

# Basis tags for Expansion values.
SCHUR = "schur"
H_MONOMIAL = "h"
SYMPLECTIC = "sp"
ORTHOGONAL = "o"


class Expansion:
    """Sparse integer combination of basis elements indexed by partitions.

    One value type serves every basis in the library; the tag records which
    basis the keys refer to. Zero coefficients are never stored. An instance
    is read-only: ``terms`` is a read-only view and assigning or deleting an
    attribute raises, so a cached instance cannot be edited by a caller.
    Built from another Expansion, it shares that one's view: the same terms,
    tagged with another basis.
    """

    __slots__ = ("terms", "basis")

    def __init__(
        self, terms: Mapping[Partition, int] | Expansion | None = None, basis: str = SCHUR
    ):
        if isinstance(terms, Expansion):  # clean and read-only already
            view = terms.terms
        else:
            cleaned: dict[Partition, int] = {}
            for p, c in (terms or {}).items():
                c = int(c)
                if c != 0:
                    # a Partition was validated when built, so only other keys are converted
                    cleaned[p if type(p) is Partition else Partition(p)] = c
            view = MappingProxyType(cleaned)
        object.__setattr__(self, "terms", view)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def coefficient(self, p: Partition) -> int:
        return self.terms.get(Partition(p), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def support_sorted(self) -> list[Partition]:
        """Keys in descending lexicographic order."""
        return sorted(self.terms, reverse=True)

    def to_jsonable(self) -> list[dict]:
        return [
            {"partition": list(p), "coeff": self.terms[p]} for p in self.support_sorted()
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expansion):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.basis, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        body = " + ".join(
            f"{self.terms[p]}*{self.basis}{list(p)}" for p in self.support_sorted()
        )
        return body or f"0 ({self.basis})"


def _accumulate(
    out: dict[Partition, int], terms: Mapping[Partition, int], c: int = 1
) -> None:
    """In-place out += c * terms; new keys are appended in the order of terms."""
    for p, k in terms.items():
        out[p] = out.get(p, 0) + c * k


def _linear(a: Expansion, f: Callable[[Partition], Expansion], basis: str) -> Expansion:
    """The linear extension of f to a, tagged with basis; keys in first-seen order."""
    out: dict[Partition, int] = {}
    for p, c in a.terms.items():
        _accumulate(out, f(p).terms, c)
    return Expansion(out, basis)


def schur_basis(p: Partition | list[int] | tuple[int, ...]) -> Expansion:
    """The basis element for one partition."""
    return Expansion({Partition(p): 1}, SCHUR)


def _lr_candidates(mu: Partition, nu: Partition) -> list[Partition]:
    """The lam allowed by the bounds of `_mult_basis`, in descending lex order.

    The search places one part per row, largest first. Row k is capped by the
    part before it, by what the prefix cap leaves and by Weyl's bound
    min over i + j = k of mu_i + nu_j (0-indexed, parts padded with zeros);
    it is at least max(mu_k, nu_k) and at least its share of the boxes left.
    """
    rows = len(mu) + len(nu)
    pairs = list(zip_longest(mu, nu, fillvalue=0))
    lower = [max(pair) for pair in pairs] + [0] * (rows - len(pairs))
    prefix_caps = list(accumulate(a + b for a, b in pairs))
    n = prefix_caps[-1] if prefix_caps else 0
    prefix_caps += [n] * (rows - len(pairs))
    m, v = mu + (0,) * rows, nu + (0,) * rows
    weyl = [min(m[i] + v[k - i] for i in range(k + 1)) for k in range(rows)]
    out: list[Partition] = []
    acc: list[int] = []

    def rec(i: int, prev: int, total: int) -> None:
        if total == n:
            # parts positive and capped by the one before: a partition, unchecked
            out.append(tuple.__new__(Partition, acc))
            return
        # the rest must fit in the rows left, none longer than this one
        least = max(lower[i], -((total - n) // (rows - i)))
        for part in range(min(prev, prefix_caps[i] - total, weyl[i]), least - 1, -1):
            acc.append(part)
            rec(i + 1, part, total + part)
            acc.pop()

    rec(0, n, 0)
    return out


@lru_cache(maxsize=None)
def _mult_basis(mu: Partition, nu: Partition) -> Expansion:
    """Product of two Schur basis elements as a Schur expansion.

    Reads `lr_coefficient` only for the lam of |mu| + |nu| that meet four
    necessary conditions for a nonzero coefficient (Fulton, *Young Tableaux*,
    1997, section 5, for the first three):
    - mu and nu both fit inside lam: lam/mu must exist, and the coefficient
      is symmetric in mu and nu;
    - lam is dominated by the row sums mu + nu: in a ballot filling of lam/mu
      the entries of row i are at most i, so the first k rows of lam/mu hold
      at most nu_1 + ... + nu_k cells;
    - lam has at most len(mu) + len(nu) rows: the same bound on conjugates;
    - Weyl's inequalities lam_{i+j-1} <= mu_i + nu_j (1-indexed), the r = 1
      case of Horn's inequalities (Fulton, *Bull. AMS* 37, 2000; Knutson-Tao,
      *JAMS* 12, 1999). On the seed-1 `lr-ring` benchmark inputs they remove
      3,814 of the 6,325 zero candidates that the other three leave.
    Every lam skipped has coefficient 0 and candidates come in descending
    lex order, so the terms and their order are those of a scan over every
    partition of |mu| + |nu|. Each count builds no filling (`_lr_count`).

    The bounds are symmetric in mu and nu, so both orders give the same
    terms in the same order. `mult` reads one entry per unordered pair, with
    the larger factor (by size, then by tuple) as mu: it is the inner shape,
    and `_lr_count` fills only the |nu| cells of the smaller one.
    """
    out: dict[Partition, int] = {}
    for lam in _lr_candidates(mu, nu):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[lam] = c
    return Expansion(out, SCHUR)


def mult(a: Expansion, b: Expansion) -> Expansion:
    """Bilinear product; graded by box count."""
    if a.basis != SCHUR or b.basis != SCHUR:
        raise ValueError(f"mult needs Schur-tagged inputs, got {a.basis}, {b.basis}")
    out: dict[Partition, int] = {}
    for mu, cm in a.terms.items():
        key = (size(mu), mu)
        for nu, cn in b.terms.items():
            # one cache entry per unordered pair, the larger factor first
            pair = (mu, nu) if key >= (size(nu), nu) else (nu, mu)
            _accumulate(out, _mult_basis(*pair).terms, cm * cn)
    return Expansion(out, SCHUR)


def _skew_key(lam: Partition, nu: Partition) -> tuple[Partition, Partition]:
    """The canonical (outer, inner) pair of the skew diagram lam/nu; nu must fit inside lam.

    A piece is a maximal run of non-empty rows in which each row shares a
    column with the non-empty row above it. Each piece is shifted so that its
    leftmost column is 0, the pieces are sorted, and they are stacked again:
    the first at the bottom from column 0, each next one above the ones below
    with its leftmost column at the top right end of the piece below, so that
    neighbours touch only at a corner. Two diagrams with the same pieces, up
    to translation and order, get the same pair, and a canonical pair is its
    own key.
    """
    pieces: list[list[int]] = []  # each piece's lo, hi per row, top row first
    rows: list[int] = []
    depth = len(nu)
    for i, hi in enumerate(lam):
        lo = nu[i] if i < depth else 0
        if lo == hi:
            # an empty row: the next non-empty row ends where the one above starts, or before
            continue
        if rows and hi <= rows[-2]:
            pieces.append(rows)
            rows = []
        rows.append(lo)
        rows.append(hi)
    if not rows:
        return EMPTY, EMPTY
    if not pieces and not rows[-2] and len(rows) == 2 * len(lam):
        # one piece, no empty row, bottom row from column 0: canonical
        return lam, nu
    pieces.append(rows)
    for piece in pieces:
        left = piece[-2]
        if left:
            piece[:] = [x - left for x in piece]
    pieces.sort()
    outer: list[int] = []
    inner: list[int] = []
    left = 0
    for piece in pieces:  # bottom up, each piece bottom row first
        for j in range(len(piece) - 2, -1, -2):
            inner.append(piece[j] + left)
            outer.append(piece[j + 1] + left)
        left += piece[1]
    outer.reverse()
    inner.reverse()
    while inner and not inner[-1]:
        inner.pop()
    # rows stacked with no shared column keep both sides weakly decreasing
    # and positive: partitions, unchecked
    return tuple.__new__(Partition, outer), tuple.__new__(Partition, inner)


@lru_cache(maxsize=None)
def skew_schur_expand(lam: Partition, nu: Partition) -> Expansion:
    """Schur expansion of the skew function lam/nu via ballot tableaux.

    Zero when nu does not fit inside lam. Raises ValueError when lam or nu is
    not a partition. The skew function of a diagram is the product of those
    of its edge-connected pieces, and a piece's depends only on its shape up
    to translation (Macdonald, *Symmetric Functions and Hall Polynomials*,
    ch. I, section 5). So the ballot fillings are listed only for the
    canonical diagram of `_skew_key`, and every other diagram with the same
    pieces is a cache entry that reads that one.
    """
    lam, nu = Partition(lam), Partition(nu)
    if not contains(lam, nu):
        return Expansion({}, SCHUR)
    key = _skew_key(lam, nu)
    if key != (lam, nu):
        return skew_schur_expand(*key)
    out: dict[Partition, int] = {}
    for rows in _ballot_fillings(SkewShape(lam, nu)):
        counts: dict[int, int] = {}
        for row in rows:
            for v in row:
                counts[v] = counts.get(v, 0) + 1
        mu = Partition(counts.get(v, 0) for v in range(1, len(counts) + 1))
        out[mu] = out.get(mu, 0) + 1
    return Expansion(out, SCHUR)


def skew(a: Expansion, nu: Partition) -> Expansion:
    """Adjoint of multiplication by the basis element of nu, extended linearly."""
    if a.basis != SCHUR:
        raise ValueError(f"skew needs a Schur-tagged input, got {a.basis}")
    return _linear(a, lambda lam: skew_schur_expand(lam, nu), SCHUR)


def omega(a: Expansion) -> Expansion:
    """The involution conjugating every indexing partition."""
    if a.basis != SCHUR:
        raise ValueError(f"omega needs a Schur-tagged input, got {a.basis}")
    return Expansion({conjugate(p): c for p, c in a.terms.items()}, SCHUR)


def jacobi_trudi(lam: Partition, nu: Partition = EMPTY) -> Expansion:
    """Formal determinant of complete symmetric functions for the shape lam/nu.

    Returned in the h-monomial basis: each key is the multiset of h-indices
    of one product, encoded as a partition; h_0 = 1 contributes no index and
    any negative index kills the whole term. The permutation sum is expanded
    row by row, abandoning a branch as soon as an index goes negative.
    Raises ValueError when lam or nu is not a partition.
    """
    lam, nu = Partition(lam), Partition(nu)
    r = max(len(lam), len(nu))
    if r == 0:
        return Expansion({EMPTY: 1}, H_MONOMIAL)
    lam_p = list(lam) + [0] * (r - len(lam))
    nu_p = list(nu) + [0] * (r - len(nu))
    out: dict[Partition, int] = {}
    used = [False] * r
    chosen: list[int] = []
    indices: list[int] = []

    def expand(i: int, sign: int) -> None:
        if i == r:
            key = Partition(sorted(indices, reverse=True))
            out[key] = out.get(key, 0) + sign
            return
        for j in range(r):
            if used[j]:
                continue
            k = lam_p[i] - nu_p[j] - i + j
            if k < 0:
                continue
            inversions = sum(1 for c in chosen if c > j)
            used[j] = True
            chosen.append(j)
            if k > 0:
                indices.append(k)
            expand(i + 1, -sign if inversions % 2 else sign)
            if k > 0:
                indices.pop()
            chosen.pop()
            used[j] = False

    expand(0, 1)
    return Expansion(out, H_MONOMIAL)


@lru_cache(maxsize=None)
def _h_product(key: Partition) -> Expansion:
    """Schur expansion of a product of single-row basis elements."""
    if not key:
        return Expansion({EMPTY: 1}, SCHUR)
    head = _h_product(Partition(key[:-1]))
    return mult(head, schur_basis([key[-1]]))


def h_monomial_to_schur(a: Expansion) -> Expansion:
    """Re-expand an h-monomial expansion in the Schur basis."""
    if a.basis != H_MONOMIAL:
        raise ValueError(f"expected an h-monomial expansion, got {a.basis}")
    return _linear(a, _h_product, SCHUR)


def _column_strict_fillings(lam: Partition, num_vars: int) -> Iterator[list[int]]:
    """Content vectors of all semi-standard fillings of a straight shape.

    Entries run over 1..num_vars; this enumeration is independent of the
    ballot machinery so it can serve as an oracle for it.
    """
    nrows = len(lam)
    rows: list[list[int]] = [[0] * lam[i] for i in range(nrows)]
    counts = [0] * num_vars

    def fill(i: int, j: int) -> Iterator[list[int]]:
        if i == nrows:
            yield counts.copy()
            return
        ni, nj = (i, j + 1) if j + 1 < lam[i] else (i + 1, 0)
        lo = 1 if j == 0 else rows[i][j - 1]
        if i > 0 and j < lam[i - 1]:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, num_vars + 1):
            rows[i][j] = v
            counts[v - 1] += 1
            yield from fill(ni, nj)
            counts[v - 1] -= 1

    if nrows == 0:
        yield counts.copy()
        return
    if nrows > num_vars:
        return
    yield from fill(0, 0)


def schur_polynomial(lam: Partition, num_vars: int) -> dict[tuple[int, ...], int]:
    """Specialize a Schur basis element to num_vars variables.

    Returns an exponent-vector to coefficient map; zero (empty map) when the
    partition has more rows than there are variables. Raises ValueError when
    lam is not a partition.
    """
    if num_vars < 1:
        raise ValueError(f"num_vars must be positive: {num_vars}")
    lam = Partition(lam)
    out: dict[tuple[int, ...], int] = {}
    for counts in _column_strict_fillings(lam, num_vars):
        key = tuple(counts)
        out[key] = out.get(key, 0) + 1
    return out


def poly_mult(
    p: dict[tuple[int, ...], int], q: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    """Multiply two exponent-vector polynomials."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            val = out.get(key, 0) + c1 * c2
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def poly_add_scaled(
    acc: dict[tuple[int, ...], int], p: dict[tuple[int, ...], int], c: int
) -> None:
    """In-place acc += c * p."""
    for e, v in p.items():
        val = acc.get(e, 0) + c * v
        if val:
            acc[e] = val
        else:
            acc.pop(e, None)
