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
from itertools import accumulate

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


def root_coords_of_weight_vector(
    spec: LieSpec, weight_coords: tuple[int, ...]
) -> tuple[Fraction, ...]:
    """Exact simple-root coordinates of a vector given in weight coordinates.

    Closed form, in integers over one denominator. For A the inverse Cartan
    matrix is (C^-1)_ik = min(i, k) - ik/(n+1), applied through prefix sums.
    For B, C and D the weight sum_k w_k varpi_k is written in orthogonal
    coordinates v (Bourbaki, Plates II-IV: varpi_k = e_1 + ... + e_k, the
    spin weights halved) and then summed as in looproot's
    ``_from_orthogonal``: b_k = v_1 + ... + v_k, the C tail halved and the D
    tail (S_{n-1} - v_n)/2, S_n/2.
    """
    n = spec.rank
    w = weight_coords
    if len(w) != n:
        raise ValueError(f"expected {n} weight coordinates, got {len(w)}")
    if spec.family == "A":
        # (n+1) b_i = (n+1) (sum_{k<=i} k w_k + i sum_{k>i} w_k) - i sum_k k w_k
        weighted = list(accumulate(k * x for k, x in enumerate(w, 1)))
        tails = list(accumulate(reversed(w)))[::-1] + [0]
        return tuple(
            Fraction((n + 1) * (weighted[i - 1] + i * tails[i]) - i * weighted[-1], n + 1)
            for i in range(1, n + 1)
        )
    # v2 = 2v. Nodes below chain_end have varpi_k = e_1 + ... + e_k; the rest
    # are spin weights, each half of e_1 + ... + e_n (D's varpi_{n-1} with -e_n).
    chain_end = {"B": n - 1, "C": n, "D": n - 2}[spec.family]
    spin = w[chain_end:]
    head = 2 * sum(w[:chain_end]) + sum(spin)
    v2 = []
    for j in range(n):
        v2.append(head)
        if j < chain_end:
            head -= 2 * w[j]
    if spec.family == "D":
        v2[-1] = spin[1] - spin[0]
    sums2 = list(accumulate(v2))  # 2 S_k
    scaled = [2 * x for x in sums2]  # 4 b_k
    if spec.family == "C":
        scaled[-1] = sums2[-1]
    elif spec.family == "D":
        scaled[-2] = sums2[-2] - v2[-1]
        scaled[-1] = sums2[-1]
    return tuple(Fraction(x, 4) for x in scaled)


def integer_root_coords(
    spec: LieSpec, weight_coords: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Simple-root coordinates when they are integral, else None."""
    sol = root_coords_of_weight_vector(spec, weight_coords)
    if any(f.denominator != 1 for f in sol):
        return None
    return tuple(int(f) for f in sol)

