"""Multiplicities from the fermionic formula: configurations and vacancy numbers.

A target weight fixes nonnegative root coordinates n_1..n_r; each way of
choosing a partition of every n_i is one configuration, and its contribution
is a product of binomials in the vacancy numbers. A binomial with a negative
vacancy number vanishes even on rows of size zero, so any configuration with
a negative vacancy number anywhere contributes nothing.

The vacancy number at node k and row size n is a sum over the factors on k,
the parts of nu_k and the parts of each neighbour nu_j, each term a
min(a*n, b*h) with (a, b) read off the Cartan matrix. Two cached tables make
it a few reads: ``_min_sums(nu)`` holds s[t] = sum_h min(t, h) for every t up
to the longest row (|nu| beyond it), and ``lie.couplings(spec)`` lists each
node's neighbours with their (a, b). A coupling reads s[n] for (1, 1), s[2n]
for (2, 1), and s[floor(n/2)] + s[ceil(n/2)] for (1, 2), since
min(n, 2h) = min(floor(n/2), h) + min(ceil(n/2), h). ``_vacancy_at`` makes
these reads for ``vacancy`` and for the sign tests below.

``fermionic_multiplicity`` sums configurations for one weight (``_config_sum``),
fixing whole partitions in node index order, the only search that still does.
Fixing a node moves the vacancy numbers of the nodes whose Dynkin neighbours
are now all fixed (``_ready_at``) and of the node itself, and
``_falls_negative`` decides every cut on them: exactly for a ready node, and
for a node fixed before a neighbour j with j standing in as the single column
1^{n_j}, which gives each coupling term its largest value, so a negative
vacancy number there cuts only branches that sum to 0. ``_node_factor`` runs
only on a branch that passed every test, so it only multiplies. Both scan row
sizes only up to the node's longest row (see ``_node_factor``).
``fermionic_decomp`` grows all partitions one column at a time instead
(Kleber's algorithm), so every path is one nonzero configuration; the
configuration sum is its oracle.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import comb, floor
from operator import index, sub
from typing import Iterable, Sequence

from .lie import (
    LieSpec,
    couplings,
    integer_root_coords,
    root_coords_of_weight_vector,
    root_lengths,
    weight_of_root_vector,
)
from .partitions import DominantWeight, Partition, _value_type, partitions_of


class FactorList(_value_type("FactorList", "factors")):
    """Tensor factors, each a positive multiplicity on one Dynkin node (1-indexed)."""

    __slots__ = ()

    def __new__(cls, factors: Iterable[tuple[int, int]]) -> "FactorList":
        if type(factors) is FactorList:  # validated when built
            return factors
        factors = tuple((index(m), index(node)) for m, node in factors)
        if not factors:
            raise ValueError("factor list must be nonempty")
        for m, node in factors:
            if m < 1:
                raise ValueError(f"factor multiplicity must be positive: {m}")
            if node < 1:
                raise ValueError(f"node index must be positive: {node}")
        return super().__new__(cls, factors)

    def check_rank(self, rank: int) -> None:
        for _, node in self.factors:
            if node > rank:
                raise ValueError(f"node {node} outside 1..{rank}")

    def top_weight(self, rank: int) -> DominantWeight:
        self.check_rank(rank)
        coeffs = [0] * rank
        for m, node in self.factors:
            coeffs[node - 1] += m
        return DominantWeight(tuple(coeffs), rank)


def _check_depth(spec: LieSpec) -> None:
    """The searches nest one frame per node: refuse deeper ranks before building any table."""
    if spec.rank >= sys.getrecursionlimit():
        raise RecursionError(f"rank {spec.rank} reaches the recursion limit")


def _ready_at(spec: LieSpec) -> list[list[int]]:
    """Nodes grouped by the index at which they and all their neighbours are fixed."""
    ready_at: list[list[int]] = [[] for _ in range(spec.rank)]
    for k, nbrs in enumerate(couplings(spec)):
        ready_at[max((k, *(j for j, _, _ in nbrs)))].append(k)
    return ready_at


@lru_cache(maxsize=None)
def _partitions_list(n: int) -> tuple[Partition, ...]:
    return tuple(partitions_of(n))


def alpha_coords(
    spec: LieSpec,
    factors: FactorList | Iterable[tuple[int, int]],
    lam: DominantWeight,
) -> tuple[int, ...] | None:
    """Simple-root coordinates of (top weight - lam), or None.

    None signals that lam is not below the top weight in the root lattice
    (non-integral or negative coordinates), in which case its multiplicity
    is zero by convention.
    """
    factors = FactorList(factors)
    if lam.rank != spec.rank:
        raise ValueError(f"weight rank {lam.rank} does not match spec rank {spec.rank}")
    top = factors.top_weight(spec.rank)
    diff = tuple(t - l for t, l in zip(top.coeffs, lam.coeffs))
    coords = integer_root_coords(spec, diff)
    if coords is None or any(x < 0 for x in coords):
        return None
    return coords


@lru_cache(maxsize=None)
def _min_sums(nu: Partition | tuple[int, ...]) -> tuple[int, ...]:
    """s[t] = sum over parts h of min(t, h), for t = 0..nu[0]; it stays |nu| beyond.

    The argument is validated here, on a cache miss, so each distinct
    partition is checked once however often its table is read.
    """
    nu = Partition(nu)
    sums = [0]
    rows = len(nu)
    for t in range(1, (nu[0] if nu else 0) + 1):
        while nu[rows - 1] < t:
            rows -= 1
        sums.append(sums[-1] + rows)  # rows = number of parts >= t
    return tuple(sums)


def _vacancy_at(
    lengths: Sequence[int],
    own: tuple[int, ...],
    bonds: Sequence[tuple[int, int, int]],
    tables: Sequence[tuple[int, ...]] | dict[int, tuple[int, ...]],
    n: int,
) -> int:
    """The vacancy number at row size n, read off min-sum tables.

    lengths are the lengths of the factors on the node, own is the node's
    table, bonds its ``couplings`` entry, and tables[j] the table of neighbour
    j. Every min(a*n, b*h) coupling is read here and nowhere else.
    """
    total = -2 * (own[n] if n < len(own) else own[-1])
    for m in lengths:
        total += m if m < n else n
    for j, a, b in bonds:
        s = tables[j]
        top = len(s) - 1
        if b == 2:  # sum min(n, 2h) = s[floor(n/2)] + s[ceil(n/2)]
            h = n // 2
            total += s[h] + s[h + n % 2] if h < top else 2 * s[top]
        else:  # sum min(a*n, h), a = 1 or 2
            total += s[a * n] if a * n < top else s[top]
    return total


def _falls_negative(
    lengths: Sequence[int],
    own: tuple[int, ...],
    bonds: Sequence[tuple[int, int, int]],
    tables: Sequence[tuple[int, ...]],
) -> bool:
    """Whether ``_vacancy_at`` is negative at some row size up to the node's longest row."""
    for n in range(1, len(own)):
        if _vacancy_at(lengths, own, bonds, tables, n) < 0:
            return True
    return False


def vacancy(
    spec: LieSpec,
    factors: FactorList | Iterable[tuple[int, int]],
    nus: Sequence[Partition | tuple[int, ...]],
    node: int,
    n: int,
) -> int:
    """The vacancy number controlling the binomial at (node, row size n).

    nus holds one partition per node, each a Partition or a tuple of parts.
    Every entry is checked, read or not: a tuple through its ``_min_sums``
    table (so each distinct tuple once), a Partition not at all, since it was
    validated when built.
    """
    factors = FactorList(factors)
    if not 1 <= node <= spec.rank:
        raise ValueError(f"node {node} outside 1..{spec.rank}")
    if n < 1:
        raise ValueError(f"row size must be positive: {n}")
    if len(nus) != spec.rank:
        raise ValueError(
            f"configuration has {len(nus)} partitions, spec rank is {spec.rank}"
        )
    for nu in nus:
        if type(nu) is not Partition:
            _min_sums(nu)
    k = node - 1
    bonds = couplings(spec)[k]
    return _vacancy_at(
        [m for m, l in factors.factors if l == node],
        _min_sums(nus[k]),
        bonds,
        {j: _min_sums(nus[j]) for j, _, _ in bonds},
        n,
    )


def _node_factor(
    spec: LieSpec,
    factors: FactorList,
    config_nus: Sequence[Partition],
    k: int,
) -> int:
    """Binomial product at node k, or 0 if any vacancy number is negative.

    The only negative term of the vacancy number p(n) at node k is
    -2 sum_{h in nu_k} min(n, h). If nu_k is empty, p(n) >= 0 for every n and
    every binomial is over zero rows, so the factor is 1. Otherwise the scan
    stops at the longest row nu_k[0]: beyond it that term is the constant
    -2|nu_k| and every other term is non-decreasing in n, so p(n) >= p(nu_k[0])
    and the sign is already decided; every row size with a binomial lies in
    the scanned range too.
    """
    nu = config_nus[k]
    if not nu:
        return 1
    row_counts: dict[int, int] = {}
    for h in nu:
        row_counts[h] = row_counts.get(h, 0) + 1
    result = 1
    for n in range(1, nu[0] + 1):
        p = vacancy(spec, factors, config_nus, k + 1, n)
        if p < 0:
            return 0
        m = row_counts.get(n, 0)
        if m:
            result *= comb(p + m, m)
    return result


def _config_sum(spec: LieSpec, factors: FactorList, nvec: tuple[int, ...]) -> int:
    """Sum of binomial products over all configurations for fixed coordinates.

    Partitions are fixed in node index order. Fixing node i moves the vacancy
    numbers of the nodes in ``ready_at[i]``, whose neighbours are now all
    fixed, and of node i itself, and ``_falls_negative`` tests all of them,
    ready nodes first, before any factor is computed. A ready node is tested
    exactly: the same ``_vacancy_at`` terms over the same row sizes as the
    sign test of ``_node_factor``. Node i, if a neighbour j is still unfixed,
    is tested with j standing in as the single column 1^{n_j}: since
    min(a*n, b*h) <= h*min(a*n, b), that column gives every coupling term its
    largest value over the partitions of n_j, so a negative vacancy number
    means node i's factor is 0 in every completion. Every cut is made by these
    tests, so ``_node_factor`` never returns 0 here: it only multiplies.
    """
    _check_depth(spec)
    rank = spec.rank
    ready_at = _ready_at(spec)
    bonds = couplings(spec)
    lengths = [[m for m, l in factors.factors if l == k + 1] for k in range(rank)]
    options = [_partitions_list(nvec[k]) for k in range(rank)]
    chosen: list[Partition] = [Partition()] * rank
    # min-sum tables: a fixed node's own, an unfixed node's column 1^{n_j}
    tables: list[tuple[int, ...]] = [(0, x) for x in nvec]
    total = 0

    def rec(i: int, acc: int) -> None:
        nonlocal total
        if i == rank:
            total += acc
            return
        ready = ready_at[i]
        tested = ready if i in ready else [*ready, i]
        for nu in options[i]:
            chosen[i] = nu
            tables[i] = _min_sums(nu)
            for k in tested:
                if _falls_negative(lengths[k], tables[k], bonds[k], tables):
                    break
            else:
                branch = acc
                for k in ready:
                    branch *= _node_factor(spec, factors, chosen, k)
                rec(i + 1, branch)
        tables[i] = (0, nvec[i])

    rec(0, 1)
    return total


def fermionic_multiplicity(
    spec: LieSpec,
    factors: FactorList | Iterable[tuple[int, int]],
    lam: DominantWeight,
) -> int:
    """Predicted multiplicity of the irreducible with highest weight lam."""
    factors = FactorList(factors)
    nvec = alpha_coords(spec, factors, lam)
    if nvec is None:
        return 0
    return _config_sum(spec, factors, nvec)


def fermionic_decomp(
    spec: LieSpec, factors: FactorList | Iterable[tuple[int, int]]
) -> dict[DominantWeight, int]:
    """All dominant weights with nonzero multiplicity, with their multiplicities.

    Kleber's algorithm as a column sweep, virtual for B and C: on their long
    nodes (gamma = 2 in ``root_lengths``: B 1..n-1, C n) rows and factor lengths
    are doubled. A path grows all partitions one column t = 1, 2, ... at a time,
    heights c_t non-increasing, and carries p(t) = sum_{s<=t} (f_s - C.c_s), where
    f_s counts the factors of stretched length >= s.

    1. p_a(t) is gamma_a times the vacancy number at (a, t/gamma_a): the
       stretch turns the min(2n, h) and min(n, 2h) couplings of ``couplings``
       into min(t, h) = sum_{s<=t} [h >= s] weighted by the Cartan entry.
    2. p >= 0 at every t is the node-factor check: past a node's longest row
       p cannot fall, and at an odd t on a stretched node p is at least the
       mean of its even neighbours (its one convex term is linear there).
    3. Column heights fix a partition, so paths are the configurations with
       no negative vacancy number; the step from column t to t+1 multiplies
       in binomial(p_a(t)/gamma_a + m_a, m_a) for m_a = c_t^a - c_{t+1}^a.

    A path ends at an all-zero column, with n_a = (sum_t c_t^a)/gamma_a. The
    first column is bounded by the top weight's root coordinates, as n is.
    The result is ordered by n, ascending.
    """
    _check_depth(spec)
    factors = FactorList(factors)
    rank = spec.rank
    top = factors.top_weight(rank)
    gamma = root_lengths(spec)
    ready_at = _ready_at(spec)
    bonds = couplings(spec)
    longest = max(gamma[node - 1] * m for m, node in factors.factors)
    grown = [[0] * rank for _ in range(longest + 2)]  # grown[t][a] = f_t at node a
    for m, node in factors.factors:
        for s in range(1, gamma[node - 1] * m + 1):
            grown[s][node - 1] += 1
    box = tuple(floor(x) for x in root_coords_of_weight_vector(spec, top.coeffs))
    stack = [(0, (0,) * rank, box, (0,) * rank, 1)]  # (t, p, c_t, sum of columns, weight)
    nxt, q = [0] * rank, [0] * rank
    sums: dict[tuple[int, ...], int] = {}

    def pick(i: int, weight: int) -> None:
        """Fix entry i of column t+1 under the popped state; after the last, push or end."""
        if i == rank:
            if any(nxt):
                total_next = tuple(s + h for s, h in zip(total, nxt))
                stack.append((t + 1, tuple(q), tuple(nxt), total_next, weight))
            else:
                n = tuple(s // g for s, g in zip(total, gamma))
                sums[n] = sums.get(n, 0) + weight
            return
        prev = col[i]
        for h in (prev,) if t % 2 and gamma[i] == 2 else range(prev + 1):
            nxt[i] = h
            for k in ready_at[i]:
                x = p[k] + f[k] - 2 * nxt[k]
                for j, a, _ in bonds[k]:
                    x += a * nxt[j]
                q[k] = x
                if x < 0:
                    break
            else:
                m = prev - h
                pick(i + 1, weight * comb(p[i] // gamma[i] + m, m) if t and m else weight)

    while stack:
        t, p, col, total, acc = stack.pop()
        f = grown[min(t + 1, longest + 1)]
        pick(0, acc)
    return {
        DominantWeight(tuple(map(sub, top.coeffs, weight_of_root_vector(spec, n))), rank): sums[n]
        for n in sorted(sums)
    }
