"""Integer partitions, dominant weights, and the dictionary between them.

All values are immutable and hashable; every operation is a pure function
on exact integers. The layers above memoize such functions in unbounded
``functools.lru_cache`` tables; `clear_caches` empties them all.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from operator import index, le
from typing import Iterable, Iterator


class Partition(tuple):
    """Weakly decreasing tuple of positive integers; the empty tuple is allowed.

    Trailing zeros are stripped on construction, so two descriptions of the
    same Young diagram compare equal and hash identically. A Partition is
    immutable and was validated when built, so passing one returns it as is.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is Partition:
            return parts
        cleaned = [index(p) for p in parts]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        if cleaned and cleaned[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {cleaned}")
        for a, b in zip(cleaned, cleaned[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {cleaned}")
        return super().__new__(cls, cleaned)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def to_jsonable(self) -> list[int]:
        return list(self)


EMPTY = Partition()


def _value_type(typename: str, field_names: str) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, validates through ``__new__``."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class DominantWeight(_value_type("DominantWeight", "coeffs rank")):
    """Nonnegative coefficients on the fundamental weights of a rank-n algebra.

    The rank is explicit data: the same partition denotes different weights at
    different ranks, so it is never inferred.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int], rank: int) -> "DominantWeight":
        coeffs = tuple(map(index, coeffs))
        rank = index(rank)
        if rank < 1:
            raise ValueError(f"rank must be positive: {rank}")
        if len(coeffs) != rank:
            raise ValueError(f"expected {rank} coefficients, got {len(coeffs)}")
        if any(c < 0 for c in coeffs):
            raise ValueError(f"coefficients must be nonnegative: {coeffs}")
        return super().__new__(cls, coeffs, rank)


class RootLatticeElement(_value_type("RootLatticeElement", "coords rank")):
    """Integer coefficients on the simple roots of a rank-n algebra."""

    __slots__ = ()

    def __new__(cls, coords: Iterable[int], rank: int) -> "RootLatticeElement":
        coords = tuple(map(index, coords))
        rank = index(rank)
        if len(coords) != rank:
            raise ValueError(f"expected {rank} coordinates, got {len(coords)}")
        return super().__new__(cls, coords, rank)


def size(p: Partition) -> int:
    """Number of boxes in the Young diagram of p."""
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram, exchanging rows and columns."""
    if not p:
        return EMPTY
    cols = [0] * p[0]
    for part in p:
        for i in range(part):
            cols[i] += 1
    return Partition(cols)


def contains(outer: Partition, inner: Partition) -> bool:
    """True iff the diagram of inner fits inside the diagram of outer."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def partition_from_weight(w: DominantWeight) -> Partition:
    """Partition whose k-th part is the total weight coefficient from index k up.

    Equivalently, the diagram with w.coeffs[k-1] columns of height exactly k.
    """
    parts = []
    total = 0
    for c in reversed(w.coeffs):
        total += c
        parts.append(total)
    parts.reverse()
    return Partition(parts)


def weight_from_partition(p: Partition, rank: int) -> DominantWeight:
    """Inverse of partition_from_weight; coefficients are consecutive-part differences."""
    if len(p) > rank:
        raise ValueError(f"partition {list(p)} needs rank >= {len(p)}, got {rank}")
    padded = list(p) + [0] * (rank + 1 - len(p))
    coeffs = tuple(padded[i] - padded[i + 1] for i in range(rank))
    return DominantWeight(coeffs, rank)


def partitions_of(
    n: int, max_part: int | None = None, max_rows: int | None = None
) -> Iterator[Partition]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        return
    first = n if max_part is None else min(n, max_part)
    rows = n if max_rows is None else max_rows

    def rec(remaining: int, cap: int, rows_left: int, acc: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(acc)
            return
        if rows_left == 0 or cap == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, rows_left - 1, acc)
            acc.pop()

    yield from rec(n, first, rows, [])


def partitions_up_to(n: int) -> Iterator[Partition]:
    """All partitions with at most n boxes, by box count then descending lex."""
    for k in range(n + 1):
        yield from partitions_of(k)


def subpartitions(p: Partition) -> Iterator[Partition]:
    """All partitions contained in the diagram of p (empty and p included).

    Each subpartition is produced exactly once: rows are chosen top to bottom
    and truncating early is the unique way to make a shorter one.
    """

    def rec(i: int, prev: int, acc: list[int]) -> Iterator[Partition]:
        if i == len(p) or prev == 0:
            yield Partition(acc)
            return
        yield from rec(len(p), 0, acc)
        for part in range(1, min(prev, p[i]) + 1):
            acc.append(part)
            yield from rec(i + 1, part, acc)
            acc.pop()

    yield from rec(0, p[0] if p else 0, [])


def clear_caches() -> None:
    """Empty every ``lru_cache`` in the loaded lrwkit modules.

    The caches are unbounded, so a long session holds every result it has
    computed; this frees them. Results computed afterwards are equal to the
    ones before. The caches are found by scanning each loaded module, so a new
    one needs no registration.
    """
    prefix = __name__.rpartition(".")[0] + "."
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                    value.cache_clear()
