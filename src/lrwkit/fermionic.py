"""Multiplicities from the fermionic formula: configurations and vacancy numbers.

A target weight fixes nonnegative root coordinates n_1..n_r; each way of
choosing a partition of every n_i is one configuration, and its contribution
is a product of binomials in the vacancy numbers. A binomial with a negative
vacancy number vanishes even on rows of size zero, so any configuration with
a negative vacancy number anywhere contributes nothing.

Both searches fix nodes in index order. The weight coefficient and the node
factor at node k depend only on k and its Dynkin neighbours, so each settles
when the last of them is fixed (``_ready_at``), and a branch is cut there on a
negative coefficient (decomposition scan) or a zero factor (configuration sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, floor
from typing import Iterable, Sequence

from .lie import LieSpec, adjacency, cartan_matrix, root_coords_of_weight_vector
from .partitions import DominantWeight, Partition, partitions_of


@dataclass(frozen=True)
class FactorList:
    """Tensor factors, each a positive multiplicity on one Dynkin node (1-indexed)."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "factors", tuple((int(m), int(node)) for m, node in self.factors)
        )
        if not self.factors:
            raise ValueError("factor list must be nonempty")
        for m, node in self.factors:
            if m < 1:
                raise ValueError(f"factor multiplicity must be positive: {m}")
            if node < 1:
                raise ValueError(f"node index must be positive: {node}")

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


@dataclass(frozen=True)
class Configuration:
    """One partition per Dynkin node; only values not yet partitions are validated."""

    nus: tuple[Partition, ...]

    def __post_init__(self) -> None:
        nus = tuple(p if isinstance(p, Partition) else Partition(p) for p in self.nus)
        object.__setattr__(self, "nus", nus)


def _coerce_factors(factors: FactorList | Iterable[tuple[int, int]]) -> FactorList:
    if isinstance(factors, FactorList):
        return factors
    return FactorList(tuple(factors))


def _ready_at(spec: LieSpec) -> list[list[int]]:
    """Nodes grouped by the index at which they and all their neighbours are fixed."""
    ready_at: list[list[int]] = [[] for _ in range(spec.rank)]
    for k, nbrs in enumerate(adjacency(spec)):
        ready_at[max((k, *nbrs))].append(k)
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
    factors = _coerce_factors(factors)
    if lam.rank != spec.rank:
        raise ValueError(f"weight rank {lam.rank} does not match spec rank {spec.rank}")
    top = factors.top_weight(spec.rank)
    diff = tuple(t - l for t, l in zip(top.coeffs, lam.coeffs))
    sol = root_coords_of_weight_vector(spec, diff)
    if any(f.denominator != 1 or f < 0 for f in sol):
        return None
    return tuple(int(f) for f in sol)


def vacancy(
    spec: LieSpec,
    factors: FactorList | Iterable[tuple[int, int]],
    config: Configuration,
    node: int,
    n: int,
) -> int:
    """The vacancy number controlling the binomial at (node, row size n)."""
    factors = _coerce_factors(factors)
    if not 1 <= node <= spec.rank:
        raise ValueError(f"node {node} outside 1..{spec.rank}")
    if n < 1:
        raise ValueError(f"row size must be positive: {n}")
    c = cartan_matrix(spec)
    k = node - 1
    total = sum(min(n, m) for m, l in factors.factors if l == node)
    total -= 2 * sum(min(n, h) for h in config.nus[k])
    for j in adjacency(spec)[k]:
        a, b = -c[k][j], -c[j][k]
        total += sum(min(a * n, b * h) for h in config.nus[j])
    return total


def _node_factor(
    spec: LieSpec,
    factors: FactorList,
    config_nus: Sequence[Partition],
    k: int,
) -> int:
    """Binomial product at node k, or 0 if any vacancy number is negative.

    Vacancy numbers are scanned up to the point where every min() saturates;
    beyond that they are constant, so the scan decides the sign everywhere.
    """
    nu = config_nus[k]
    scan_to = max((m for m, l in factors.factors if l == k + 1), default=1)
    if nu:
        scan_to = max(scan_to, nu[0])
    for j in adjacency(spec)[k]:
        if config_nus[j]:
            scan_to = max(scan_to, 2 * config_nus[j][0])
    row_counts: dict[int, int] = {}
    for h in nu:
        row_counts[h] = row_counts.get(h, 0) + 1
    config = Configuration(tuple(config_nus))
    result = 1
    for n in range(1, scan_to + 1):
        p = vacancy(spec, factors, config, k + 1, n)
        if p < 0:
            return 0
        m = row_counts.get(n, 0)
        if m:
            result *= comb(p + m, m)
    return result


def _config_sum(spec: LieSpec, factors: FactorList, nvec: tuple[int, ...]) -> int:
    """Sum of binomial products over all configurations for fixed coordinates."""
    rank = spec.rank
    ready_at = _ready_at(spec)
    options = [_partitions_list(nvec[k]) for k in range(rank)]
    chosen: list[Partition] = [Partition()] * rank
    total = 0

    def rec(i: int, acc: int) -> None:
        nonlocal total
        if i == rank:
            total += acc
            return
        for nu in options[i]:
            chosen[i] = nu
            branch = acc
            for k in ready_at[i]:
                f = _node_factor(spec, factors, chosen, k)
                if f == 0:
                    branch = 0
                    break
                branch *= f
            if branch:
                rec(i + 1, branch)

    rec(0, 1)
    return total


def fermionic_multiplicity(
    spec: LieSpec,
    factors: FactorList | Iterable[tuple[int, int]],
    lam: DominantWeight,
) -> int:
    """Predicted multiplicity of the irreducible with highest weight lam."""
    factors = _coerce_factors(factors)
    nvec = alpha_coords(spec, factors, lam)
    if nvec is None:
        return 0
    return _config_sum(spec, factors, nvec)


def fermionic_decomp(
    spec: LieSpec, factors: FactorList | Iterable[tuple[int, int]]
) -> dict[DominantWeight, int]:
    """All dominant weights with nonzero multiplicity, with their multiplicities.

    Candidates live in the box 0 <= n_i <= (root coordinates of the top
    weight), finite as the inverse Cartan matrix is nonnegative. The scan keeps
    the weight current (Cartan row i is subtracted each time n_i grows) and cuts
    a branch at a negative settled coefficient, so only dominant n are summed.
    """
    factors = _coerce_factors(factors)
    rank = spec.rank
    top = factors.top_weight(rank)
    c = cartan_matrix(spec)
    box = [floor(f) for f in root_coords_of_weight_vector(spec, top.coeffs)]
    touched = [(i, *nbrs) for i, nbrs in enumerate(adjacency(spec))]
    ready_at = _ready_at(spec)
    weight = list(top.coeffs)
    nvec = [0] * rank
    result: dict[DominantWeight, int] = {}

    def scan(i: int) -> None:
        if i == rank:
            m = _config_sum(spec, factors, tuple(nvec))
            if m:
                result[DominantWeight(tuple(weight), rank)] = m
            return
        for v in range(box[i] + 1):
            nvec[i] = v
            if all(weight[k] >= 0 for k in ready_at[i]):
                scan(i + 1)
            for k in touched[i]:
                weight[k] -= c[i][k]
        for k in touched[i]:
            weight[k] += (box[i] + 1) * c[i][k]

    scan(0)
    return result
