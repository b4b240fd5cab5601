import random
from itertools import islice

import pytest

from lrwkit import lie, looproot
from lrwkit.classical import UNIVERSAL_FAMILY, family_decomposition, min_stable_rank
from lrwkit.lie import MIN_RANK, LieSpec, cartan_matrix, integer_root_coords, weight_of_root_vector
from lrwkit.looproot import (
    beta_roots,
    commute_check,
    cone_membership,
    positive_roots,
    type_a_support,
)
from lrwkit.partitions import (
    RootLatticeElement,
    partitions_of,
    subpartitions,
    weight_from_partition,
)


def elem(coords):
    return RootLatticeElement(tuple(coords), len(coords))


def commute_oracle(spec):
    """The commutation report by the direct search in simple-root coordinates.

    Every pair and every simple root is tried, each candidate looked up by its
    coordinate tuple among the positive roots; a later distinguished root is
    found by a linear scan.
    """
    bset = looproot.beta_roots(spec)
    betas = bset.roots
    labels = bset.labels
    allowed = looproot.positive_roots(spec)
    coords_allowed = {root.coords for root in allowed}
    n = spec.rank
    pair_sum = []
    pair_sum_minus_simple = []
    lowering = []
    for r in range(len(betas)):
        for s in range(len(betas)):
            total = tuple(a + b for a, b in zip(betas[r].coords, betas[s].coords))
            if total in coords_allowed:
                pair_sum.append({"r": labels[r], "s": labels[s], "sum": list(total)})
            for i in range(n):
                shifted = list(total)
                shifted[i] -= 1
                if tuple(shifted) in coords_allowed:
                    pair_sum_minus_simple.append(
                        {"r": labels[r], "s": labels[s], "i": i + 1, "sum": shifted}
                    )
    for r in range(len(betas)):
        for i in range(n):
            lowered = list(betas[r].coords)
            lowered[i] -= 1
            elem = RootLatticeElement(tuple(lowered), n)
            if elem not in allowed:
                continue
            later = any(betas[s] == elem for s in range(r, len(betas)))
            escape = labels[r][1] == bset.l_max and i + 1 == bset.l_max
            if not (later or escape):
                lowering.append({"r": labels[r], "i": i + 1, "lowered": lowered})
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


def cone_oracle(diff, spec):
    """Cone solutions by bounded search in simple-root coordinates.

    Each distinguished root in turn takes every multiplicity that leaves no
    coordinate negative; a branch is cut only when a remainder goes negative.
    """
    betas = beta_roots(spec).roots
    n = spec.rank
    solutions = []
    coeffs = []

    def rec(idx, remaining):
        if any(x < 0 for x in remaining):
            return
        if idx == len(betas):
            if not any(remaining):
                solutions.append(tuple(coeffs))
            return
        beta = betas[idx].coords
        bound = min(
            (remaining[i] // beta[i] for i in range(n) if beta[i] > 0), default=0
        )
        for s in range(bound + 1):
            coeffs.append(s)
            rec(idx + 1, [remaining[i] - s * beta[i] for i in range(n)])
            coeffs.pop()

    rec(0, list(diff.coords))
    solutions.sort()
    return solutions


def alpha_string_roots(spec):
    """Positive roots grown from the Cartan matrix alone, one height at a time.

    A root b is raised by alpha_i when p - <b, alpha_i^vee> > 0, where p counts
    how many of b - alpha_i, b - 2 alpha_i, ... are roots and
    <b, alpha_i^vee> = sum_j b_j c[j][i]. Every root of height h + 1 is such a
    raise of a root of height h, so the lower strings are always known.
    """
    c = cartan_matrix(spec)
    n = spec.rank
    layer = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    roots = set(layer)
    while layer:
        raised = set()
        for beta in layer:
            for i in range(n):
                p, lower = 0, list(beta)
                lower[i] -= 1
                while tuple(lower) in roots:
                    p += 1
                    lower[i] -= 1
                if p - sum(beta[j] * c[j][i] for j in range(n)) > 0:
                    up = list(beta)
                    up[i] += 1
                    raised.add(tuple(up))
        roots |= raised
        layer = raised
    return roots


class TestPositiveRoots:
    def test_b2_explicit(self):
        got = {r.coords for r in positive_roots(LieSpec("B", 2))}
        assert got == {(1, 0), (0, 1), (1, 1), (1, 2)}

    def test_cardinalities(self):
        for n in range(2, 9):
            assert len(positive_roots(LieSpec("B", n))) == n * n
            assert len(positive_roots(LieSpec("C", n))) == n * n
        for n in range(4, 9):
            assert len(positive_roots(LieSpec("D", n))) == n * n - n

    @pytest.mark.parametrize(
        "family,rank",
        [(f, n) for f in "BCD" for n in range(MIN_RANK[f], 12)],
    )
    def test_matches_alpha_string_oracle(self, family, rank):
        spec = LieSpec(family, rank)
        got = {r.coords for r in positive_roots(spec)}
        assert got == alpha_string_roots(spec)

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            positive_roots(LieSpec("A", 3))

    def test_simple_roots_present(self):
        for spec in (LieSpec("B", 4), LieSpec("C", 4), LieSpec("D", 5)):
            roots = positive_roots(spec)
            for i in range(spec.rank):
                coords = [0] * spec.rank
                coords[i] = 1
                assert RootLatticeElement(tuple(coords), spec.rank) in roots


class TestBetaRoots:
    def test_counts(self):
        # B_n and C_n share the pair range; C additionally has the doubled roots
        assert len(beta_roots(LieSpec("B", 4)).roots) == 3
        assert len(beta_roots(LieSpec("C", 4)).roots) == 6
        assert len(beta_roots(LieSpec("D", 5)).roots) == 3

    def test_membership_in_positive_roots(self):
        for family in ("B", "C", "D"):
            for rank in range(MIN_RANK[family], 9):
                spec = LieSpec(family, rank)
                allowed = positive_roots(spec)
                roots = beta_roots(spec).roots
                assert len(set(roots)) == len(roots)
                for root in roots:
                    assert root in allowed

    def test_label_order_lexicographic(self):
        labels = beta_roots(LieSpec("C", 5)).labels
        assert list(labels) == sorted(labels)
        assert labels[0] == (1, 1)

    def test_serialization(self):
        payload = beta_roots(LieSpec("D", 5)).to_jsonable()
        assert payload["count"] == 3
        assert payload["roots"][0]["label"] == [1, 2]
        assert payload["roots"][0]["weight"] == [0, 1, 0, 0, 0]

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_weights_match_the_cartan_oracle(self, family):
        # the serialized weights are written from the labels; the Cartan
        # matrix applied to the simple-root coordinates is the oracle
        for rank in range(MIN_RANK[family], 13):
            spec = LieSpec(family, rank)
            for root in beta_roots(spec).to_jsonable()["roots"]:
                want = weight_of_root_vector(spec, tuple(root["alpha"]))
                assert root["weight"] == list(want), (family, rank, root["label"])


class TestTypeASupport:
    def test_last_node_alone_in_c(self):
        assert type_a_support(elem((0, 0, 0, 1)), LieSpec("C", 4))

    def test_double_bond_in_c(self):
        assert not type_a_support(elem((0, 0, 1, 1)), LieSpec("C", 4))

    def test_three_node_path_in_d(self):
        assert type_a_support(elem((0, 0, 1, 1, 1)), LieSpec("D", 5))

    def test_fork_in_d(self):
        # support spanning the fork and its stem is a 3-valent star
        assert not type_a_support(elem((0, 1, 1, 1, 1)), LieSpec("D", 5))

    def test_spin_pair_closure_in_d(self):
        # the two end nodes close up through the fork node into a path
        assert type_a_support(elem((0, 0, 0, 1, 1)), LieSpec("D", 5))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            type_a_support(elem((0, 0, 0, 0)), LieSpec("C", 4))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            type_a_support(elem((1, -1, 0, 0)), LieSpec("C", 4))


class TestConeMembership:
    def test_single_root(self):
        spec = LieSpec("D", 5)
        beta = beta_roots(spec).roots[0]
        sols = cone_membership(beta, spec)
        assert (1, 0, 0) in sols

    def test_zero(self):
        spec = LieSpec("D", 5)
        assert cone_membership(elem((0,) * 5), spec) == [(0, 0, 0)]

    def test_outside_cone(self):
        spec = LieSpec("D", 5)
        assert cone_membership(elem((1, 0, 0, 0, 0)), spec) == []

    def test_three_row_witnesses(self):
        # top weight (1,1,1,0,0): the double-column target needs one (1,3) root,
        # the single-column target one (1,2) plus one (1,3)
        spec = LieSpec("D", 5)
        diff = integer_root_coords(spec, (1, -1, 1, 0, 0))
        assert cone_membership(elem(diff), spec) == [(0, 1, 0)]
        diff = integer_root_coords(spec, (1, 0, 1, 0, 0))
        assert cone_membership(elem(diff), spec) == [(1, 1, 0)]

    def test_pair_sum_decompositions(self):
        # at rank 6 the difference of four stacked boxes resolves along the
        # perfect matchings of {1,2,3,4}; the two matchings used by the
        # multiplicity-two bound are among them
        spec = LieSpec("D", 6)
        bset = beta_roots(spec)
        diff = integer_root_coords(spec, (0, 0, 0, 1, 0, 0))
        sols = cone_membership(elem(diff), spec)
        assert len(sols) == 3
        decompositions = set()
        for sol in sols:
            decompositions.add(
                tuple(label for label, s in zip(bset.labels, sol) for _ in range(s))
            )
        assert ((1, 2), (3, 4)) in decompositions
        assert ((1, 3), (2, 4)) in decompositions

    def test_matches_simple_root_search(self):
        rng = random.Random(20261018)
        nonempty = 0
        for _ in range(400):
            family = rng.choice("BCD")
            spec = LieSpec(family, rng.randint(MIN_RANK[family], 6))
            betas = beta_roots(spec).roots
            coords = [0] * spec.rank
            for _ in range(rng.randint(0, 4) if betas else 0):
                coords = [a + b for a, b in zip(coords, rng.choice(betas).coords)]
            if rng.random() < 0.4:
                coords[rng.randrange(spec.rank)] += rng.choice((-1, 1))
            diff = elem(coords)
            got = cone_membership(diff, spec)
            assert got == cone_oracle(diff, spec), (spec, coords)
            nonempty += bool(got)
        assert nonempty >= 100

    def test_matches_simple_root_search_on_infeasible_targets(self):
        # targets in orthogonal coordinates e_1..e_lmax: odd sums, and one
        # coordinate near half the sum, above it on B and D just as often
        rng = random.Random(20261019)
        cut = 0
        for _ in range(300):
            family = rng.choice("BCD")
            spec = LieSpec(family, rng.randint(MIN_RANK[family], 6))
            l_max = spec.rank - 2 if family == "D" else spec.rank - 1
            eps = [rng.randint(0, 2) for _ in range(l_max)]
            if l_max > 1 and rng.random() < 0.5:
                i = rng.randrange(l_max)
                eps[i] = max(sum(eps) - eps[i] + rng.randint(-1, 2), 0)
            eps += [0] * (spec.rank - l_max)
            odd, heavy = sum(eps) % 2, 2 * max(eps) > sum(eps)
            diff = elem(lie._from_orthogonal(spec, eps))
            got = cone_membership(diff, spec)
            assert got == cone_oracle(diff, spec), (spec, eps)
            if odd or (heavy and family != "C"):
                assert got == []
                cut += 1
        assert cut >= 120

    def test_large_coordinates(self):
        # amounts up to 10^6, far past the oracle's reach: each listed solution
        # must meet the target, and the list must rise strictly in lex order
        rng = random.Random(20261021)
        listed = 0
        for _ in range(150):
            family = rng.choice("BCD")
            spec = LieSpec(family, rng.randint(MIN_RANK[family], 8))
            betas = beta_roots(spec).roots
            coords = [0] * spec.rank
            for _ in range(rng.randint(1, 5) if betas else 0):
                amount = rng.randint(1, 10 ** rng.randint(2, 6))
                coords = [a + amount * b for a, b in zip(coords, rng.choice(betas).coords)]
            sols = list(islice(looproot._cone_walk(elem(coords), spec), 300))
            assert sols, (spec, coords)
            for sol in sols:
                total = [0] * spec.rank
                for s, beta in zip(sol, betas):
                    total = [t + s * b for t, b in zip(total, beta.coords)]
                assert total == coords, (spec, coords, sol)
            assert all(a < b for a, b in zip(sols, sols[1:])), (spec, coords)
            listed += len(sols)
        assert listed > 10_000

    def test_large_coordinates_few_solutions(self):
        # orthogonal (2000, 2000, 2000, 2, 0, ...): the walk used to step one
        # unit at a time into branches without a solution, for seconds
        spec = LieSpec("B", 12)
        alpha = (2000, 4000, 6000) + (6002,) * 9
        index = {label: i for i, label in enumerate(beta_roots(spec).labels)}
        want = [
            {(1, 2): 999, (1, 3): 999, (1, 4): 2, (2, 3): 1001},
            {(1, 2): 999, (1, 3): 1000, (1, 4): 1, (2, 3): 1000, (2, 4): 1},
            {(1, 2): 999, (1, 3): 1001, (2, 3): 999, (2, 4): 2},
            {(1, 2): 1000, (1, 3): 999, (1, 4): 1, (2, 3): 1000, (3, 4): 1},
            {(1, 2): 1000, (1, 3): 1000, (2, 3): 999, (2, 4): 1, (3, 4): 1},
            {(1, 2): 1001, (1, 3): 999, (2, 3): 999, (3, 4): 2},
        ]
        sols = []
        for amounts in want:
            sol = [0] * len(index)
            for label, s in amounts.items():
                sol[index[label]] = s
            sols.append(tuple(sol))
        assert cone_membership(elem(alpha), spec) == sols

    def test_orthogonal_tail_outside_cone(self):
        # e = (9, 9, 9, 9, 9, 3): the last coordinate lies beyond l_max = 5
        spec = LieSpec("C", 6)
        assert cone_membership(elem((9, 18, 27, 36, 45, 24)), spec) == []

    @pytest.mark.parametrize(
        "family, components, in_cone, gap",
        [("B", 285, 338, 53), ("C", 285, 449, 164), ("D", 285, 338, 53)],
    )
    def test_family_components_lie_in_the_beta_cone(self, family, components, in_cone, gap):
        # the paper's bound: every component mu of the family member lam, at
        # the stable rank, has lam - mu in the cone of the distinguished roots.
        # The counted pairs mu inside lam that the cone admits but the family
        # lacks are the baseline a sharper bound would improve on.
        def cone_admits(spec, lam, mu):
            top = weight_from_partition(lam, spec.rank).coeffs
            low = weight_from_partition(mu, spec.rank).coeffs
            coords = integer_root_coords(spec, tuple(a - b for a, b in zip(top, low)))
            return coords is not None and bool(cone_membership(elem(coords), spec))

        outside, seen, admitted, missed = [], 0, 0, 0
        for lam in (lam for n in range(1, 9) for lam in partitions_of(n)):
            spec = LieSpec(family, min_stable_rank(lam, family))
            terms = family_decomposition(lam, UNIVERSAL_FAMILY[family]).terms
            seen += len(terms)
            outside += [(lam, mu) for mu in terms if not cone_admits(spec, lam, mu)]
            for mu in subpartitions(lam):
                if cone_admits(spec, lam, mu):
                    admitted += 1
                    missed += mu not in terms
        assert outside == []
        assert (seen, admitted, missed) == (components, in_cone, gap)


class TestCommute:
    @pytest.mark.parametrize("family", ["B", "C", "D"])
    @pytest.mark.parametrize("rank", list(range(3, 13)))
    def test_zero_violations(self, family, rank):
        if rank < MIN_RANK[family]:
            pytest.skip("D starts at rank 4")
        spec = LieSpec(family, rank)
        report = commute_check(spec)
        assert report["ok"], report
        assert report == commute_oracle(spec)

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    @pytest.mark.parametrize(
        "kinds", ["sum+minus-first", "sum+minus-last", "minus-first", "minus-last", "lowered"]
    )
    def test_violations_match_oracle(self, monkeypatch, family, kinds):
        # Extra "roots" that no root system has make the matching violation
        # list non-empty; the alpha_n-only filter must report what the full
        # scan reports.
        spec = LieSpec(family, 6)
        betas = [root.coords for root in beta_roots(spec).roots]
        n = spec.rank

        def pair_sum(r, s, minus=None):
            total = [a + b for a, b in zip(betas[r], betas[s])]
            if minus is not None:
                total[minus] -= 1
            return tuple(total)

        candidates = {
            "sum": (pair_sum(0, 1), "pair_sum_violations"),
            "minus-first": (pair_sum(1, 2, minus=0), "pair_sum_minus_simple_violations"),
            "minus-last": (pair_sum(1, 2, minus=n - 1), "pair_sum_minus_simple_violations"),
            "lowered": (betas[0][:-1] + (betas[0][-1] - 1,), "lowering_violations"),
        }
        extra = [candidates[kind] for kind in kinds.split("+")]
        roots = positive_roots(spec) | {elem(coords) for coords, _ in extra}
        monkeypatch.setattr(looproot, "positive_roots", lambda _spec: roots)
        report = commute_check(spec)
        assert report == commute_oracle(spec)
        for _, violations in extra:
            assert report[violations], violations

    @pytest.mark.parametrize("family,rank", [("D", 24), ("C", 20), ("B", 20)])
    def test_matches_oracle_at_higher_rank(self, family, rank):
        spec = LieSpec(family, rank)
        assert commute_check(spec) == commute_oracle(spec)

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_violations_among_many_rows(self, monkeypatch, family):
        # At rank 12 only the rows of the injected sums may be re-scanned;
        # every kind of violation must still come out as the full scan has it.
        spec = LieSpec(family, 12)
        betas = [root.coords for root in beta_roots(spec).roots]
        n, mid = spec.rank, len(betas) // 2

        def shifted(coords, i):
            return coords[:i] + (coords[i] - 1,) + coords[i + 1 :]

        total = tuple(a + b for a, b in zip(betas[mid], betas[-1]))
        extra = {
            total,
            shifted(total, 0),
            shifted(total, n - 1),
            shifted(tuple(a + b for a, b in zip(betas[1], betas[2])), n // 2),
            shifted(betas[-1], n - 1),
        }
        roots = positive_roots(spec) | {elem(coords) for coords in extra}
        monkeypatch.setattr(looproot, "positive_roots", lambda _spec: roots)
        report = commute_check(spec)
        assert report == commute_oracle(spec)
        assert report["pair_sum_violations"]
        assert report["pair_sum_minus_simple_violations"]
        assert report["lowering_violations"]
        rows = {v["r"] for v in report["pair_sum_violations"]}
        rows |= {v["r"] for v in report["pair_sum_minus_simple_violations"]}
        assert 0 < len(rows) < len(betas) // 2

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_key_base_fits_extra_roots(self, monkeypatch, family):
        # A "root" with a coordinate beyond any real one: read in the radix the
        # real roots alone would give (11), it has the key of a lowered
        # distinguished root that is no root, and must not be reported as one.
        spec = LieSpec(family, 8)
        beta = beta_roots(spec).roots[0].coords
        lowered = beta[:-1] + (beta[-1] - 1,)
        assert elem(lowered) not in positive_roots(spec)
        alias = lowered[:-2] + (lowered[-2] + 11, lowered[-1] - 1)
        roots = positive_roots(spec) | {elem(alias)}
        monkeypatch.setattr(looproot, "positive_roots", lambda _spec: roots)
        report = commute_check(spec)
        assert report == commute_oracle(spec)
        assert report["lowering_violations"] == []

    def test_beta_count(self):
        for family in "BCD":
            for rank in range(MIN_RANK[family], 30):
                spec = LieSpec(family, rank)
                assert looproot.beta_count(spec) == len(beta_roots(spec).roots)

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_lowering_to_an_earlier_root(self, monkeypatch, family):
        # With the order reversed, every lowering that lands on a distinguished
        # root lands on an earlier one, which the check must report.
        spec = LieSpec(family, 6)
        bset = beta_roots(spec)
        reversed_set = bset._replace(labels=bset.labels[::-1], roots=bset.roots[::-1])
        monkeypatch.setattr(looproot, "beta_roots", lambda _spec: reversed_set)
        report = commute_check(spec)
        assert report == commute_oracle(spec)
        assert report["lowering_violations"]

    def test_report_fields(self):
        report = commute_check(LieSpec("C", 4))
        assert report["beta_count"] == 6
        assert report["pair_sum_violations"] == []
        assert report["pair_sum_minus_simple_violations"] == []
        assert report["lowering_violations"] == []
