"""Positive roots of types B/C/D and the distinguished two-index root sets.

The distinguished roots are, in orthogonal coordinates, e_k + e_l with both
indices below the spin/short tail of the diagram; type C also admits the
k = l degenerations 2e_l. Their nonnegative span bounds which irreducible
components can appear in the loop-algebra modules, and the commutation
lemma verified here is what makes that bound work.

Every root is first written as an integer vector in the orthogonal basis
e_1, ..., e_n of Bourbaki's realization (Lie Groups and Lie Algebras, Ch. VI,
Plates II-IV) and then moved to simple-root coordinates by the one converter
of that realization, ``lie._from_orthogonal``: partial sums, with the tail
halved for C and D. ``cone_membership`` reads its input back through the
inverse, ``lie._to_orthogonal``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add, mul, sub
from typing import Iterator

from . import lie
from .lie import LieSpec, couplings
from .partitions import RootLatticeElement, _value_type


def _orthogonal(n: int, *signed: int) -> list[int]:
    """The sum of sign(i) e_|i| over signed 1-indexed indices, as a vector in Z^n."""
    v = [0] * n
    for i in signed:
        v[abs(i) - 1] += 1 if i > 0 else -1
    return v


@lru_cache(maxsize=None)
def positive_roots(spec: LieSpec) -> frozenset[RootLatticeElement]:
    """All positive roots in simple-root coordinates.

    Built as the orthogonal vectors e_i - e_j and e_i + e_j (i < j), plus e_i
    for B or 2e_i for C, each passed through ``lie._from_orthogonal``: n^2 roots
    for B/C and n^2 - n for D.
    """
    if spec.family not in ("B", "C", "D"):
        raise ValueError(f"positive roots implemented for B/C/D only: {spec.family}")
    n = spec.rank
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    vectors = [_orthogonal(n, i, sign * j) for i, j in pairs for sign in (1, -1)]
    if spec.family == "B":
        vectors += [_orthogonal(n, i) for i in range(1, n + 1)]
    elif spec.family == "C":
        vectors += [_orthogonal(n, i, i) for i in range(1, n + 1)]
    result = frozenset(RootLatticeElement(lie._from_orthogonal(spec, v), n) for v in vectors)
    expected = n * n if spec.family in ("B", "C") else n * n - n
    assert len(result) == expected, (spec, len(result), expected)
    return result


def _beta_weight(n: int, k: int, l: int) -> list[int]:
    """Weight coordinates of e_k + e_l, with l below the tail of the diagram.

    Chain node i pairs with e_i - e_(i+1), so w_i = v_i - v_(i+1) with v padded
    by one 0; the tail nodes read only v_n (and v_(n-1) on D), which are 0 here.
    """
    v = _orthogonal(n, k, l) + [0]
    return list(map(sub, v, v[1:]))


class BetaSet(_value_type("BetaSet", "spec labels roots l_max")):
    """The ordered distinguished roots with their (k, l) labels.

    Labels are ordered lexicographically; l_max is the largest admissible
    second index (rank-1 for B/C, rank-2 for D, whose diagram indexing runs
    one past the construction's natural range).
    """

    __slots__ = ()

    def to_jsonable(self) -> dict:
        return {
            "family": self.spec.family,
            "rank": self.spec.rank,
            "l_max": self.l_max,
            "count": len(self.roots),
            "roots": [
                {
                    "label": list(label),
                    "alpha": list(root.coords),
                    "weight": _beta_weight(self.spec.rank, *label),
                }
                for label, root in zip(self.labels, self.roots)
            ],
        }


def _label_range(spec: LieSpec) -> tuple[int, int]:
    """(l_max, gap): the labels (k, l) run over 1 <= k <= l_max and k + gap <= l <= l_max."""
    if spec.family not in ("B", "C", "D"):
        raise ValueError(f"beta roots implemented for B/C/D only: {spec.family}")
    return spec.rank - 2 if spec.family == "D" else spec.rank - 1, 0 if spec.family == "C" else 1


@lru_cache(maxsize=None)
def beta_roots(spec: LieSpec) -> BetaSet:
    """The distinguished roots in lexicographic label order.

    For B and D the labels run over 1 <= k < l <= l_max; type C additionally
    gets every k = l degeneration (the doubled-coordinate roots 2e_l), which
    the commutation lemma requires.
    """
    l_max, gap = _label_range(spec)
    labels = tuple((k, l) for k in range(1, l_max + 1) for l in range(k + gap, l_max + 1))
    n = spec.rank
    roots = tuple(
        RootLatticeElement(lie._from_orthogonal(spec, _orthogonal(n, k, l)), n) for k, l in labels
    )
    return BetaSet(spec, labels, roots, l_max)


def type_a_support(eta: RootLatticeElement, spec: LieSpec) -> bool:
    """Whether the minimal connected sub-diagram around the support is an A-chain.

    The support is closed up to the smallest connected set of nodes containing
    it; the answer is True iff the induced sub-diagram is a path with only
    single bonds.
    """
    if eta.rank != spec.rank:
        raise ValueError(f"rank mismatch: element {eta.rank} vs spec {spec.rank}")
    if any(x < 0 for x in eta.coords):
        raise ValueError(f"coordinates must be nonnegative: {eta.coords}")
    support = [i for i, x in enumerate(eta.coords) if x != 0]
    if not support:
        raise ValueError("zero element has no support")
    bonds = couplings(spec)
    # Steiner closure in a tree: union of the unique paths to a fixed node.
    root = support[0]
    parent: dict[int, int] = {root: root}
    queue = [root]
    while queue:
        u = queue.pop()
        for v, _, _ in bonds[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    closed = set(support)
    for node in support[1:]:
        while node != root:
            node = parent[node]
            closed.add(node)
    for i in closed:
        inside = [a * b for j, a, b in bonds[i] if j in closed]
        if len(inside) > 2 or any(ab != 1 for ab in inside):
            return False
    return True


def cone_membership(
    diff: RootLatticeElement, spec: LieSpec
) -> list[tuple[int, ...]]:
    """All nonnegative integer combinations of the distinguished roots equal to diff.

    The full solution list (not just existence) feeds the multiplicity-bound
    checks, in lexicographic order; see ``_cone_walk`` for the search, whose
    time is O(labels) per solution. Empty means the necessary condition for a
    nonzero multiplicity fails.
    """
    return list(_cone_walk(diff, spec))


def _cone_walk(diff: RootLatticeElement, spec: LieSpec) -> Iterator[tuple[int, ...]]:
    """The solutions of ``cone_membership``, one at a time, in lexicographic order.

    The search runs on the orthogonal coordinates eps of diff: label (k, l)
    takes s units from coordinates k and l (2s from k when k = l), and row k,
    the labels (k, *), must use up eps_k. The walk keeps one amount per label
    and steps (k, l) along with the label index, so neither the depth nor the
    memory grows past the label count.

    Coordinates left over once the ones before them are used up are met by the
    roots among them exactly when they form the degree sequence of a multigraph
    (Hakimi 1962): their sum is even and, without the loops 2e_i of C, the
    largest is at most half the sum. The tests before the walk make row 1
    feasible. Row k, entered with x = eps_k and the partners' sum m, leaves
    2c = m - x, so on B and D partner j must give at least f_j = max(0, eps_j - c);
    on C the loops absorb any even rest and f_j = 0. The labels after (k, l)
    in its row can take any total from F to M, the sums of f_j and eps_j over
    the partners j > l, so label (k, l) takes exactly the s in
    [max(f_l, ceil((x - M)/w)), min(eps_l, x - F)/w], one interval: x is what
    is left of eps_k, w = 2 if k = l, else 1. Every such s leaves the next
    interval non-empty, so every branch ends in a solution and the walk takes
    O(labels) steps per solution.
    """
    if diff.rank != spec.rank:
        raise ValueError(f"rank mismatch: element {diff.rank} vs spec {spec.rank}")
    l_max, gap = _label_range(spec)
    loopless = gap == 1  # gap 0 admits the labels (k, k), the loops 2e_k of C
    eps = [0, *lie._to_orthogonal(spec, diff.coords)]  # eps[k] is the coefficient of e_k
    if any(x < 0 for x in eps) or any(eps[l_max + 1 :]) or sum(eps) % 2:
        return
    if loopless and 2 * max(eps) > sum(eps):
        return
    coeffs = [0] * beta_count(spec)
    caps = [0] * (l_max + 1)  # caps[k] is row k's c; on C at least every eps_j, so f_j = 0
    # (k, l) is label idx; m and f sum eps_j and f_j over the partners j > l
    idx, k, l, c, m, f = -1, 0, l_max, 0, 0, 0
    while True:
        for idx in range(idx + 1, len(coeffs)):  # down: each label takes its least amount
            if l == l_max:  # row k is used up: enter row k + 1 before its first label
                k += 1
                l = k + gap - 1
                rest = eps[l + 1 :]  # on C eps_k too, taken off at the loop label
                m = sum(rest)
                c = caps[k] = (m - eps[k]) // 2 if loopless else m
                f = sum(e - c for e in rest if e > c) if loopless and max(rest) > c else 0
            l += 1
            e = eps[l]
            floor = e - c if e > c else 0
            m, f = m - e, f - floor
            lo = eps[k] - m if k < l else (eps[k] - m + 1) // 2  # ceil((x - M)/w)
            coeffs[idx] = lo = lo if lo > floor else floor
            eps[k] -= lo
            eps[l] -= lo
        yield tuple(coeffs)
        # go up to the last label below the top of its interval
        while idx >= 0 and not (eps[l] and eps[k] > f + (k == l)):
            eps[k] += coeffs[idx]
            eps[l] += coeffs[idx]
            coeffs[idx] = 0
            idx -= 1
            if l > k + gap:
                e = eps[l]
                m, f, l = m + e, f + (e - c if e > c else 0), l - 1
            else:
                k, l, m, f, c = k - 1, l_max, 0, 0, caps[k - 1]
        if idx < 0:
            return
        eps[k] -= 1  # one unit more at label idx
        eps[l] -= 1
        coeffs[idx] += 1


def beta_count(spec: LieSpec) -> int:
    """The number of distinguished roots, from the label range alone."""
    l_max, gap = _label_range(spec)
    return l_max * (l_max + 1 - 2 * gap) // 2


def commute_check(spec: LieSpec) -> dict:
    """Exhaustively verify the commutation properties of the distinguished roots.

    (i) no two of them sum to a positive root; (ii) no such sum minus a simple
    root is a positive root; (iii) lowering by a simple root lands on a later
    distinguished root, except at the final column index where it may leave
    the set. Returns a report whose violation lists are empty on success.

    Every root is keyed by one integer, its coordinates read in a mixed radix
    wide enough for a pair sum minus a simple root, so a pair sum is an int
    add and "minus alpha_i" one subtraction. A row r is re-scanned over
    coordinate tuples (which fixes the order of the violation lists) only
    when its keys meet a positive root: (i) and (ii) are one set-disjointness
    test of the sums beta_r + beta_s against each key set of one target list.
    """
    bset = beta_roots(spec)
    betas = [root.coords for root in bset.roots]
    labels = bset.labels
    allowed = {root.coords for root in positive_roots(spec)}
    n = spec.rank
    # Compared vectors have coordinates in [-(2m + 1), 2m + 1]; a base above
    # twice that keeps their keys distinct.
    m = max(map(abs, chain.from_iterable(allowed | set(betas))), default=0)
    unit = [(4 * m + 3) ** i for i in range(n)]
    allowed_keys = {sum(map(mul, coords, unit)) for coords in allowed}
    beta_keys = [sum(map(mul, coords, unit)) for coords in betas]
    # A pair sum with alpha_n coefficient t can be a positive root, or one
    # raised by alpha_i, only if some positive root has coefficient t (itself
    # or i < n) or t - 1 (i = n). Every distinguished root has the same one (2
    # on B, 1 on C and D), so one list of target key sets is exact for all rows.
    last_coeffs = {coords[-1] for coords in allowed}
    lasts = {coords[-1] for coords in betas}
    sums = {a + b for a in lasts for b in lasts}
    targets = []
    if sums & last_coeffs:
        targets += [allowed_keys, {a + u for a in allowed_keys for u in unit[:-1]}]
    if {t - 1 for t in sums} & last_coeffs:
        targets.append({a + unit[-1] for a in allowed_keys})
    position = {k: p for p, k in enumerate(beta_keys)}
    pair_sum: list[dict] = []
    pair_sum_minus_simple: list[dict] = []
    lowering: list[dict] = []
    for r, beta_r in enumerate(betas):
        add_r = beta_keys[r].__add__
        if all(target.isdisjoint(map(add_r, beta_keys)) for target in targets):
            continue
        for s, beta_s in enumerate(betas):
            total = tuple(map(add, beta_r, beta_s))
            if total in allowed:
                pair_sum.append({"r": labels[r], "s": labels[s], "sum": list(total)})
            for i in range(n) if total[-1] in last_coeffs else (n - 1,):
                shifted = total[:i] + (total[i] - 1,) + total[i + 1 :]
                if shifted in allowed:
                    pair_sum_minus_simple.append(
                        {"r": labels[r], "s": labels[s], "i": i + 1, "sum": list(shifted)}
                    )
    for r, beta in enumerate(betas):
        for i in range(n):
            lowered = beta_keys[r] - unit[i]
            if lowered not in allowed_keys:
                continue
            later = position.get(lowered, -1) >= r
            escape = labels[r][1] == bset.l_max and i + 1 == bset.l_max
            if not (later or escape):
                coords = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
                lowering.append({"r": labels[r], "i": i + 1, "lowered": list(coords)})
    return {
        "family": spec.family,
        "rank": spec.rank,
        "l_max": bset.l_max,
        "beta_count": len(betas),
        "pair_sum_violations": pair_sum,
        "pair_sum_minus_simple_violations": pair_sum_minus_simple,
        "lowering_violations": lowering,
        "ok": not (pair_sum or pair_sum_minus_simple or lowering),
    }
