"""Cartan data for the classical families and exact weight/root conversions.

Cartan matrix convention: entry c[i][j] is the pairing of the i-th simple
root against the j-th coroot, so a root vector b has fundamental-weight
coordinates w_k = sum_i b_i c[i][k]. With this orientation the large-row
vacancy numbers of the fermionic formula stabilize at the weight coordinates
of the target, which pins the convention unambiguously.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class LieSpec:
    """A classical family letter plus a rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        minimum = 4 if self.family == "D" else 2
        if self.rank < minimum:
            raise ValueError(
                f"rank {self.rank} too small for type {self.family} (need >= {minimum})"
            )


@lru_cache(maxsize=None)
def cartan_matrix(spec: LieSpec) -> tuple[tuple[int, ...], ...]:
    """The rank x rank Cartan matrix of the family."""
    n = spec.rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
    chain_end = n - 2 if spec.family == "D" else n - 1
    for i in range(chain_end):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    if spec.family == "B":
        c[n - 2][n - 1] = -2  # last root short
    elif spec.family == "C":
        c[n - 1][n - 2] = -2  # last root long
    elif spec.family == "D":
        c[n - 3][n - 1] = -1  # fork: both end nodes hang off n-2
        c[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in c)


@lru_cache(maxsize=None)
def adjacency(spec: LieSpec) -> tuple[tuple[int, ...], ...]:
    """Neighbor lists of the Dynkin diagram, 0-indexed."""
    c = cartan_matrix(spec)
    n = spec.rank
    return tuple(
        tuple(j for j in range(n) if j != i and c[i][j] != 0) for i in range(n)
    )


def weight_of_root_vector(spec: LieSpec, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Fundamental-weight coordinates of an integer root-lattice vector."""
    c = cartan_matrix(spec)
    n = spec.rank
    return tuple(sum(coords[i] * c[i][k] for i in range(n)) for k in range(n))


def _solve_fractions(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Solve an invertible square system exactly: forward elimination, then
    back substitution.

    Only rows below each pivot are cleared, so a Cartan matrix (a path with
    one fork or double bond) costs O(rank^2) operations, not O(rank^3).
    """
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [v - factor * w if w else v for v, w in zip(a[r], a[col])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        tail = sum(a[i][j] * x[j] for j in range(i + 1, n) if a[i][j] != 0)
        x[i] = (a[i][n] - tail) / a[i][i]
    return x


def root_coords_of_weight_vector(
    spec: LieSpec, weight_coords: tuple[int, ...]
) -> tuple[Fraction, ...]:
    """Exact simple-root coordinates of a vector given in weight coordinates."""
    c = cartan_matrix(spec)
    n = spec.rank
    transpose = [[Fraction(c[i][k]) for i in range(n)] for k in range(n)]
    return tuple(_solve_fractions(transpose, [Fraction(w) for w in weight_coords]))


def integer_root_coords(
    spec: LieSpec, weight_coords: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Simple-root coordinates when they are integral, else None."""
    sol = root_coords_of_weight_vector(spec, weight_coords)
    if any(f.denominator != 1 for f in sol):
        return None
    return tuple(int(f) for f in sol)

