"""Semi-standard skew tableaux, ballot words, and Littlewood-Richardson counts.

Two searches over ballot fillings share no code. `_ballot_fillings` lists
every filling of a skew shape, of any content; it backs
`enumerate_lr_tableaux` and `schur.skew_schur_expand`. `_lr_count` counts the
fillings of one content without materialising any; it backs `lr_coefficient`
and so every Schur product. Each serves as the other's oracle, in the tests
and in the top degree of the `stable-coefficient-suite` verify check.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .partitions import Partition, _value_type, contains, size


class SkewShape(_value_type("SkewShape", "outer inner")):
    """A skew Young diagram outer/inner; inner must fit inside outer."""

    __slots__ = ()

    def __new__(cls, outer: Sequence[int], inner: Sequence[int]) -> "SkewShape":
        outer, inner = Partition(outer), Partition(inner)
        if not contains(outer, inner):
            raise ValueError(f"inner {list(inner)} does not fit inside outer {list(outer)}")
        return super().__new__(cls, outer, inner)

    def row_span(self, i: int) -> tuple[int, int]:
        """Half-open column range of the cells in row i."""
        lo = self.inner[i] if i < len(self.inner) else 0
        return lo, self.outer[i]


class SkewTableau(_value_type("SkewTableau", "shape entries")):
    """A filling of a skew shape, weakly increasing in rows, strict in columns."""

    __slots__ = ()

    def __new__(cls, shape: SkewShape, entries: Sequence[Sequence[int]]) -> "SkewTableau":
        entries = tuple(tuple(map(index, row)) for row in entries)
        if len(entries) != len(shape.outer):
            raise ValueError(f"expected {len(shape.outer)} rows of entries, got {len(entries)}")
        for i, row in enumerate(entries):
            lo, hi = shape.row_span(i)
            if len(row) != hi - lo:
                raise ValueError(f"row {i} must have {hi - lo} entries, got {len(row)}")
            if any(v < 1 for v in row):
                raise ValueError(f"entries must be positive: row {i} = {row}")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {i} is not weakly increasing: {row}")
        for i in range(1, len(entries)):
            lo, hi = shape.row_span(i)
            alo, ahi = shape.row_span(i - 1)
            for j in range(max(lo, alo), min(hi, ahi)):
                if entries[i][j - lo] <= entries[i - 1][j - alo]:
                    raise ValueError(
                        f"column {j} is not strictly increasing between rows {i - 1} and {i}"
                    )
        return super().__new__(cls, shape, entries)


def reverse_row_word(t: SkewTableau) -> tuple[int, ...]:
    """Entries of each row read right to left, top row first."""
    word: list[int] = []
    for row in t.entries:
        word.extend(reversed(row))
    return tuple(word)


def is_ballot(seq: Sequence[int]) -> bool:
    """True iff in every prefix, i+1 never outruns i, for every value i >= 1."""
    counts: dict[int, int] = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def content(t: SkewTableau) -> Partition:
    """Occurrence counts of 1, 2, ... as a partition.

    Raises ValueError when the counts are not weakly decreasing (guaranteed not
    to happen when the reverse row word of t is a ballot sequence).
    """
    counts: dict[int, int] = {}
    top = 0
    for row in t.entries:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
            top = max(top, v)
    vec = [counts.get(v, 0) for v in range(1, top + 1)]
    if any(a < b for a, b in zip(vec, vec[1:])):
        raise ValueError(f"content {vec} is not a partition")
    return Partition(vec)


def _ballot_fillings(shape: SkewShape) -> list[tuple[tuple[int, ...], ...]]:
    """Every filling whose reverse row word is ballot, sorted row by row.

    Cells are filled in reverse-row-word order so the ballot condition can be
    enforced on every prefix; ballot also bounds the entry in row i by i+1,
    which keeps the search finite without further assumptions.
    """
    nrows = len(shape.outer)
    spans = [shape.row_span(i) for i in range(nrows)]
    cells = [
        (i, j) for i in range(nrows) for j in range(spans[i][1] - 1, spans[i][0] - 1, -1)
    ]
    entries = [[0] * (hi - lo) for lo, hi in spans]
    counts = [0] * (nrows + 2)
    results: list[tuple[tuple[int, ...], ...]] = []

    def place(idx: int) -> None:
        if idx == len(cells):
            results.append(tuple(tuple(row) for row in entries))
            return
        i, j = cells[idx]
        lo, hi = spans[i]
        hi_val = i + 1
        if j + 1 < hi:
            hi_val = min(hi_val, entries[i][j + 1 - lo])
        lo_val = 1
        if i > 0:
            alo, ahi = spans[i - 1]
            if alo <= j < ahi:
                lo_val = entries[i - 1][j - alo] + 1
        for v in range(lo_val, hi_val + 1):
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            entries[i][j - lo] = v
            counts[v] += 1
            place(idx + 1)
            counts[v] -= 1

    place(0)
    results.sort()
    return results


def enumerate_lr_tableaux(shape: SkewShape) -> list[SkewTableau]:
    """All semi-standard tableaux of the shape whose reverse row word is ballot.

    The list is sorted row by row, lexicographically on entries, so output
    order is reproducible.
    """
    return [SkewTableau(shape, rows) for rows in _ballot_fillings(shape)]


def _lr_count(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Number of ballot fillings of lam/mu with content nu.

    Needs mu inside lam and |lam| = |mu| + |nu|. The cells are visited in
    reverse-row-word order (rows top to bottom, each right to left), so the
    neighbours to the right and above are filled before a cell and bound its
    entry: at most the one to the right (for the last cell of row i, the
    ballot bound min(i+1, len(nu))) and more than the one above (or 0). A
    value v goes in only while fewer than nu_v are placed (content) and fewer
    v's than v-1's have been read (ballot). The depth-first search keeps one
    entry per cell and one count per value and only adds up the complete
    fillings: nothing is materialised.
    """
    depth = len(nu)
    ncells = size(lam) - size(mu)
    if not ncells:
        return 1
    # Slot ncells is the 0 above a cell with nothing above it in lam/mu;
    # slot ncells+1+i is row i's ballot bound, right of its last cell.
    entries = [0] * (ncells + 1) + [min(i + 1, depth) for i in range(len(lam))]
    cells: list[tuple[int, int]] = []  # (right slot, above slot), reading order
    start = prev_start = 0
    for i, hi in enumerate(lam):
        lo = mu[i] if i < len(mu) else 0
        above_lo = mu[i - 1] if 0 < i <= len(mu) else 0
        for j in range(hi - 1, lo - 1, -1):
            right = ncells + 1 + i if j == hi - 1 else len(cells) - 1
            above = prev_start + lam[i - 1] - 1 - j if i and j >= above_lo else ncells
            cells.append((right, above))
        prev_start, start = start, len(cells)
    counts = [ncells + 1] + [0] * depth  # counts[0] never binds the ballot test
    caps = [0, *nu]
    last = ncells - 1
    low = [0] * ncells  # next value to try in each cell on the current path
    low[0] = entries[cells[0][1]] + 1
    k = total = 0
    while k >= 0:
        hi = entries[cells[k][0]]
        v = low[k]
        while v <= hi:
            c = counts[v]
            if c >= caps[v] or c >= counts[v - 1]:
                v += 1
            else:
                break
        else:  # cell k is exhausted: step back and lift the previous entry
            k -= 1
            if k >= 0:
                counts[entries[k]] -= 1
            continue
        low[k] = v + 1
        if k == last:
            total += 1
            continue
        entries[k] = v
        counts[v] += 1
        k += 1
        low[k] = entries[cells[k][1]] + 1
    return total


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: ballot tableaux of shape lam/mu, content nu."""
    if size(lam) != size(mu) + size(nu):
        return 0
    if not contains(lam, mu) or not contains(lam, nu):
        return 0
    return _lr_count(lam, mu, nu)
