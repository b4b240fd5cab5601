"""Cartan data for the classical families and exact weight/root conversions.

Cartan matrix convention: entry c[i][j] is the pairing of the i-th simple
root against the j-th coroot, so a root vector b has fundamental-weight
coordinates w_k = sum_i b_i c[i][k]. With this orientation the large-row
vacancy numbers of the fermionic formula stabilize at the weight coordinates
of the target, which pins the convention unambiguously.

This module owns the Dynkin data: other modules read the diagram only through
``couplings``, the cached sparse view of ``cartan_matrix``, ``root_lengths``
and ``MIN_RANK``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import index

from .partitions import _value_type

# D starts at rank 4, where its fork has two end nodes.
MIN_RANK = {"A": 2, "B": 2, "C": 2, "D": 4}


class LieSpec(_value_type("LieSpec", "family rank")):
    """A classical family letter plus a rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "LieSpec":
        if family not in MIN_RANK:
            raise ValueError(f"family must be one of {tuple(MIN_RANK)}, got {family!r}")
        rank = index(rank)
        minimum = MIN_RANK[family]
        if rank < minimum:
            raise ValueError(f"rank {rank} too small for type {family} (need >= {minimum})")
        return super().__new__(cls, family, rank)


def cartan_matrix(spec: LieSpec) -> tuple[tuple[int, ...], ...]:
    """The rank x rank Cartan matrix of the family; ``couplings`` caches its sparse view."""
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


def root_lengths(spec: LieSpec) -> tuple[int, ...]:
    """gamma_a, the squared length of the a-th simple root over that of a short one.

    2 on the long nodes of B (1..n-1) and C (n), else 1; diag(gamma) symmetrizes
    the Cartan matrix: c[i][j] gamma_j == c[j][i] gamma_i.
    """
    n = spec.rank
    long_nodes = {"B": range(n - 1), "C": (n - 1,)}.get(spec.family, ())
    return tuple(2 if a in long_nodes else 1 for a in range(n))


@lru_cache(maxsize=None)
def couplings(spec: LieSpec) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per node k, one (j, a, b) per neighbour j, with a = -c[k][j] and b = -c[j][k]."""
    c = cartan_matrix(spec)
    return tuple(
        tuple((j, -x, -c[j][k]) for j, x in enumerate(row) if x and j != k)
        for k, row in enumerate(c)
    )


def _from_orthogonal(spec: LieSpec, v: list[int]) -> tuple[int, ...]:
    """Simple-root coordinates of sum_i v_i e_i in Bourbaki's realization of B/C/D.

    Coordinate k is the partial sum S_k = v_1 + ... + v_k; for C the last one
    is halved (alpha_n = 2e_n), for D the last two are (S_{n-1} - v_n)/2 and
    S_n/2 (alpha_{n-1}, alpha_n = e_{n-1} -+ e_n).
    """
    coords = list(accumulate(v))
    if spec.family == "C":
        coords[-1] //= 2
    elif spec.family == "D":
        coords[-2] = (coords[-2] - v[-1]) // 2
        coords[-1] //= 2
    return tuple(coords)


def _to_orthogonal(spec: LieSpec, coords: tuple[int, ...]) -> list[int]:
    """Orthogonal coordinates of a simple-root vector; inverts ``_from_orthogonal``."""
    sums = list(coords)  # the partial sums S_k, once the C and D halvings are undone
    if spec.family == "C":
        sums[-1] *= 2
    elif spec.family == "D":
        sums[-2:] = [coords[-2] + coords[-1], 2 * coords[-1]]
    return [b - a for a, b in zip([0] + sums, sums)]


def weight_of_root_vector(spec: LieSpec, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Weight coordinates w_k = sum_i x_i c[i][k] = 2 x_k - sum b x_j over k's couplings."""
    if len(coords) != spec.rank:
        raise ValueError(f"expected {spec.rank} root coordinates, got {len(coords)}")
    return tuple(
        2 * x - sum(b * coords[j] for j, _, b in nbrs)
        for x, nbrs in zip(coords, couplings(spec))
    )


def root_coords_of_weight_vector(
    spec: LieSpec, weight_coords: tuple[int, ...]
) -> tuple[Fraction, ...]:
    """Exact simple-root coordinates of a vector given in weight coordinates.

    Closed form, in integers over one denominator. For A the inverse Cartan
    matrix is (C^-1)_ik = min(i, k) - ik/(n+1), applied through prefix sums.
    For B, C and D the weight sum_k w_k varpi_k is written in orthogonal
    coordinates v (Bourbaki, Plates II-IV: varpi_k = e_1 + ... + e_k, the
    spin weights halved) and then passed through ``_from_orthogonal``.
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
    # v4 = 4v. Nodes below chain_end have varpi_k = e_1 + ... + e_k; the rest
    # are spin weights, each half of e_1 + ... + e_n (D's varpi_{n-1} with -e_n).
    # 4v is integral with even partial sums, so the tail halvings are exact.
    chain_end = {"B": n - 1, "C": n, "D": n - 2}[spec.family]
    spin = w[chain_end:]
    head = 4 * sum(w[:chain_end]) + 2 * sum(spin)
    v4 = []
    for j in range(n):
        v4.append(head)
        if j < chain_end:
            head -= 4 * w[j]
    if spec.family == "D":
        v4[-1] = 2 * (spin[1] - spin[0])
    return tuple(Fraction(x, 4) for x in _from_orthogonal(spec, v4))


def integer_root_coords(
    spec: LieSpec, weight_coords: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Simple-root coordinates when they are integral, else None."""
    sol = root_coords_of_weight_vector(spec, weight_coords)
    if any(f.denominator != 1 for f in sol):
        return None
    return tuple(int(f) for f in sol)

