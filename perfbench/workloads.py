"""Seeded input generation for the four benchmark workloads.

Inputs are plain JSON-able lists built with this module's own partition
enumerator and ``random.Random``; nothing here imports lrwkit, so the inputs
for a seed do not depend on the code under test. The same (workload, seed)
always yields byte-identical ``canonical_bytes``.

A query is a list ``[op, *args]`` with partitions as lists of ints:

lr-ring           ["mult", mu, nu] | ["skew", lam, nu] | ["jt", lam, nu]
stable-classical  ["stable", mu, nu, fam] | ["famdec", lam, fam]
                  | ["branch", lam, fam] | ["t2w", mu, nu, fam]
fermionic         ["fdecomp", family, rank, m, ell]
                  | ["fmult", family, rank, m, ell, weight_coeffs]
cli-session       ["cli", argv, kind]; kind is "ok", "refuse" (expects exit 3)
                  or "unbounded" (expects an answer within the deadline or exit 3)
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement

WORKLOADS = ("lr-ring", "stable-classical", "fermionic", "cli-session")

# Per-invocation deadline of a cli-session query, in seconds. It is also
# written into the cli-session entry of BENCHMARK.json.
CLI_DEADLINE_S = 5.0

# The ROADMAP inputs that pass the box cap and then run without bound.
UNBOUNDED_ARGV = (
    ["roots", "commute", "D", "40"],
    ["roots", "cone", "C", "6", "--alpha", "9,18,27,36,45,24"],
    ["fermionic", "D", "30", "--factor", "1,2"],
)


def partitions(n: int, max_rows: int | None = None, max_part: int | None = None) -> list[list[int]]:
    """Partitions of n in descending lexicographic order, optionally bounded."""
    rows = n if max_rows is None else max_rows
    out: list[list[int]] = []

    def rec(remaining: int, cap: int, rows_left: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(list(acc))
            return
        if rows_left == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, rows_left - 1, acc)
            acc.pop()

    rec(n, n if max_part is None else max_part, rows, [])
    return out


def partitions_up_to(n: int) -> list[list[int]]:
    return [p for k in range(n + 1) for p in partitions(k)]


def conjugate(p: list[int]) -> list[int]:
    return [sum(1 for part in p if part > i) for i in range(p[0])] if p else []


def fits(outer: list[int], inner: list[int]) -> bool:
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def sub_diagrams(outer: list[int]) -> list[list[int]]:
    """Every partition inside outer, in descending lexicographic order."""
    return [p for k in range(sum(outer), -1, -1) for p in partitions(k) if fits(outer, p)]


def weight_coeffs(p: list[int], rank: int) -> list[int]:
    """Fundamental-weight coefficients of a partition: consecutive differences."""
    padded = list(p) + [0] * (rank + 1 - len(p))
    return [padded[i] - padded[i + 1] for i in range(rank)]


def _spread(rng: random.Random, options: list, k: int) -> list:
    """k seeded draws in which any two options' counts differ by at most one.

    Drawing without replacement keeps the mix of shapes, and so the cost of
    a pass, nearly the same for every seed.
    """
    out: list = []
    while len(out) < k:
        batch = list(options)
        rng.shuffle(batch)
        out += batch
    return out[:k]


def _lr_ring(rng: random.Random) -> list[list]:
    queries: list[list] = []
    # Sizes follow a fixed schedule and shapes are spread over each size's
    # partitions, so the total cost varies little between seeds.
    for n in range(14, 21):
        for split in (0, 1, 2, 3):
            a = n // 2 - split
            mus = _spread(rng, partitions(a, 4, 6), 10)
            nus = _spread(rng, partitions(n - a, 4, 6), 10)
            queries += [["mult", mu, nu] for mu, nu in zip(mus, nus)]
    for n in (11, 12, 13):
        for lam in _spread(rng, partitions(n, 5, 6), 15):
            inner = rng.choice([p for k in (1, 2, 3) for p in partitions(k) if fits(lam, p)])
            queries.append(["skew", lam, inner])
    for n in (7, 8, 9):
        for lam in _spread(rng, partitions(n, 5), 10):
            inner = rng.choice([[]] + [p for k in (1, 2) for p in partitions(k) if fits(lam, p)])
            queries.append(["jt", lam, inner])
    rng.shuffle(queries)
    return queries


def _stable_classical(rng: random.Random) -> list[list]:
    queries: list[list] = []
    # Every pair up to 4+4 boxes, and every pair of 5- and 6-box partitions,
    # in both families: a fixed block that carries most of the cost.
    small = partitions_up_to(4)
    middle = partitions(5) + partitions(6)
    for block in (small, middle):
        for mu in block:
            for nu in block:
                queries += [["stable", mu, nu, fam] for fam in ("sp", "o")]
    # Larger products drawn by seed, 9..12 boxes on a fixed schedule. Many
    # mid-sized ones rather than a few of 16 boxes: one 16-box product costs
    # 0.1 s to 1 s depending on its shapes, so a few would decide the total.
    for n in (9, 10, 11, 12):
        for a in (n // 2, n // 2 - 1):
            mus = _spread(rng, partitions(a, 4, 4), 5)
            nus = _spread(rng, partitions(n - a, 4, 4), 5)
            queries += [["stable", mu, nu, fam] for mu, nu in zip(mus, nus) for fam in ("sp", "o")]
    for lam in partitions_up_to(12):
        for fam in ("sp", "o"):
            queries.append(["famdec", lam, fam])
            queries.append(["branch", lam, fam])
    for i in range(4):
        mu = rng.choice(partitions(2 + i % 2))
        nu = rng.choice(partitions(3))
        queries.append(["t2w", mu, nu, ("sp", "o")[i % 2]])
    rng.shuffle(queries)
    return queries


# Rectangles m^ell at ranks where they are stable: three large
# decompositions, two bands of mid-sized ones, and a point query at every
# component of _POINT_RECTANGLES. Query costs run from 1 ms to seconds, so a
# drawn subset would move the latency percentiles between seeds by more than
# any bound; the set is fixed and the seed only orders the queries that
# follow the large decompositions.
_LARGE_DECOMPS = (("D", 6, 3, 3), ("D", 6, 4, 3), ("B", 6, 3, 3))
# Twelve decompositions of 0.1-0.25 s each (2 vCPU host). Only five queries
# cost more, so the tail query (the eleventh slowest) is the middle of this
# band, where neighbouring costs differ by a few percent.
_TAIL_BAND = (
    ("B", 4, 3, 3), ("B", 4, 4, 2), ("B", 5, 3, 2), ("B", 7, 1, 4),
    ("C", 3, 6, 2), ("C", 4, 5, 2), ("C", 5, 3, 3), ("C", 5, 4, 2),
    ("C", 6, 2, 3), ("C", 7, 1, 5), ("D", 5, 4, 2), ("D", 6, 5, 1),
)
# Sixteen decompositions of 20-60 ms each, which put the median query among
# queries long enough that a few milliseconds of host jitter move it little.
_MEDIAN_BAND = (
    ("B", 3, 4, 2), ("B", 5, 2, 2), ("B", 5, 2, 3), ("B", 6, 1, 3), ("B", 6, 1, 4),
    ("C", 4, 3, 3), ("C", 4, 4, 2), ("C", 5, 2, 3), ("C", 5, 2, 4), ("C", 5, 3, 2),
    ("D", 4, 4, 2), ("D", 5, 3, 2), ("D", 5, 6, 1), ("D", 6, 2, 2), ("D", 6, 4, 1), ("D", 7, 1, 4),
)
_POINT_RECTANGLES = (("B", 7, 3, 4), ("B", 7, 2, 4), ("D", 7, 4, 3), ("D", 7, 3, 3), ("C", 6, 3, 3))


def rectangle_components(family: str, m: int, ell: int) -> list[list[int]]:
    """Components of the family member indexed by m^ell, by domino removal.

    Orthogonal (B, D): each of the m columns keeps a height in {ell, ell-2, ...};
    symplectic (C): each of the ell rows keeps a length in {m, m-2, ...}.
    Each multiset of kept lengths gives one component, with multiplicity 1.
    """
    count, top = (ell, m) if family == "C" else (m, ell)
    lengths = list(range(top, -1, -2))
    out = [[l for l in combo if l] for combo in combinations_with_replacement(lengths, count)]
    return out if family == "C" else [conjugate(p) for p in out]


def _fermionic(rng: random.Random) -> list[list]:
    queries = [["fdecomp", *case] for case in _TAIL_BAND + _MEDIAN_BAND]
    for family, rank, m, ell in _POINT_RECTANGLES:
        for mu in rectangle_components(family, m, ell):
            queries.append(["fmult", family, rank, m, ell, weight_coeffs(mu, rank)])
    rng.shuffle(queries)
    # The large decompositions open every pass. They fill the shared
    # partition lists (up to 40 ms for partitions of 30), which would
    # otherwise land on whichever smaller query the order puts first.
    return [["fdecomp", *case] for case in _LARGE_DECOMPS] + queries


def _arg(p: list[int]) -> str:
    return ",".join(map(str, p)) if p else "-"


def _cli_session(rng: random.Random) -> list[list]:
    def pick(n: int, rows: int | None = None) -> list[int]:
        return rng.choice(partitions(n, rows))

    argvs: list[tuple[list[str], str]] = []
    for _ in range(2):
        argvs.append((["part", "conjugate", _arg(pick(rng.randint(4, 9)))], "ok"))
    lam = pick(rng.randint(4, 8))
    argvs += [
        (["part", "size", _arg(pick(rng.randint(3, 9)))], "ok"),
        (["part", "contains", _arg(lam), _arg(rng.choice(sub_diagrams(lam)))], "ok"),
        (["part", "toweight", _arg(lam), str(len(lam) + rng.randint(0, 2))], "ok"),
        (["part", "fromweight", ",".join(str(rng.randint(0, 2)) for _ in range(3)) + "@rank=3"], "ok"),
    ]
    for _ in range(3):
        argvs.append((["schur", "mult", _arg(pick(rng.randint(3, 5))), _arg(pick(rng.randint(3, 5)))], "ok"))
    for _ in range(2):
        outer = pick(rng.randint(6, 9), 4)
        argvs.append((["schur", "skew", _arg(outer), _arg(rng.choice([p for p in sub_diagrams(outer) if sum(p) <= 3]))], "ok"))
    for _ in range(2):
        argvs.append((["schur", "jt", _arg(pick(rng.randint(4, 6), 4))], "ok"))
    for _ in range(2):
        mu, nu = pick(rng.randint(2, 4)), pick(rng.randint(2, 4))
        lam = rng.choice([p for p in partitions(sum(mu) + sum(nu)) if fits(p, mu) and fits(p, nu)])
        argvs.append((["lr", _arg(lam), _arg(mu), _arg(nu)], "ok"))
    argvs += [
        (["branch", _arg(pick(rng.randint(5, 8))), "--target", "sp"], "ok"),
        (["branch", _arg(pick(rng.randint(5, 8))), "--target", "o"], "ok"),
        (["dcoef", _arg(pick(rng.randint(2, 4))), _arg(pick(rng.randint(2, 4))), "--family", "o"], "ok"),
        (["dcoef", _arg(pick(3)), _arg(pick(3)), "--lam", _arg(pick(rng.choice((2, 4))))], "ok"),
        (["wdecomp", _arg(pick(rng.randint(5, 9))), "--family", "sp"], "ok"),
        (["wdecomp", _arg(pick(rng.randint(5, 9))), "--family", "o"], "ok"),
        (["wtensor", _arg(pick(rng.randint(2, 3))), _arg(pick(rng.randint(2, 3))), "--family", rng.choice(("sp", "o"))], "ok"),
    ]
    for family, rank in (("B", 4), ("C", 4), ("D", 5)):
        factor = f"{rng.randint(1, 2)},{rng.randint(1, 2)}"
        argvs.append((["fermionic", family, str(rank), "--factor", factor], "ok"))
    weight = ",".join(str(rng.randint(0, 1)) for _ in range(3)) + "@rank=3"
    argvs.append((["fermionic", "B", "3", "--factor", "1,2", "--factor", "1,1", "--weight", weight], "ok"))
    for family in ("B", "C", "D"):
        argvs.append((["roots", "beta", family, str(rng.randint(5, 9))], "ok"))
    # Commutation checks at three rank bands between 10 and 18.
    for lo, hi in ((10, 12), (13, 15), (16, 18)):
        argvs.append((["roots", "commute", rng.choice(("C", "D")), str(rng.randint(lo, hi))], "ok"))
    for _ in range(2):
        top = pick(rng.randint(4, 7), 3)
        inner = rng.choice([p for p in sub_diagrams(top) if (sum(top) - sum(p)) % 2 == 0])
        diff = [a - b for a, b in zip(weight_coeffs(top, 5), weight_coeffs(inner, 5))]
        # "--weight=..." because a leading minus would read as an option.
        argvs.append((["roots", "cone", "D", "5", "--weight=" + ",".join(map(str, diff))], "ok"))
    alpha = [rng.randint(0, 2) for _ in range(5)]
    argvs.append((["roots", "cone", "B", "5", "--alpha=" + ",".join(map(str, alpha))], "ok"))
    argvs.append((["verify", "--level", "quick"], "ok"))
    argvs.append((["verify", "--level", "full"], "ok"))
    # Over the default box cap of 10: the CLI must refuse with exit 3.
    argvs.append((["schur", "mult", _arg(pick(6)), _arg(pick(6))], "refuse"))
    argvs += [(list(argv), "unbounded") for argv in UNBOUNDED_ARGV]
    rng.shuffle(argvs)
    return [["cli", argv, kind] for argv, kind in argvs]


_GENERATORS = {
    "lr-ring": _lr_ring,
    "stable-classical": _stable_classical,
    "fermionic": _fermionic,
    "cli-session": _cli_session,
}


def generate(workload: str, seed: int) -> list[list]:
    """The query list of one workload for one seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def canonical_bytes(queries: list[list]) -> bytes:
    return json.dumps(queries, separators=(",", ":")).encode()
