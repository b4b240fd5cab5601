import random
from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb, floor, prod

import pytest
from hypothesis import given, settings, strategies as st

from lrwkit import fermionic
from lrwkit.classical import (
    UNIVERSAL_FAMILY,
    family_decomposition,
    min_stable_rank,
    stable_tensor_expansion,
)
from lrwkit.fermionic import (
    FactorList,
    _config_sum,
    _node_factor,
    _partitions_list,
    alpha_coords,
    fermionic_decomp,
    fermionic_multiplicity,
    vacancy,
)
from lrwkit.lie import (
    MIN_RANK,
    LieSpec,
    cartan_matrix,
    integer_root_coords,
    root_coords_of_weight_vector,
)
from lrwkit.partitions import (
    EMPTY,
    DominantWeight,
    Partition,
    partitions_up_to,
    weight_from_partition,
)
from lrwkit.schur import mult, schur_basis
from lrwkit.verify import fermionic_rectangle_agreement


def w(coeffs, rank):
    return DominantWeight(tuple(coeffs), rank)


def decomp_as_plain(spec, factors):
    return {tuple(k.coeffs): v for k, v in fermionic_decomp(spec, factors).items()}


class TestLieSpec:
    def test_cartan_shapes(self):
        assert cartan_matrix(LieSpec("A", 3)) == (
            (2, -1, 0),
            (-1, 2, -1),
            (0, -1, 2),
        )
        assert cartan_matrix(LieSpec("B", 3)) == (
            (2, -1, 0),
            (-1, 2, -2),
            (0, -1, 2),
        )
        assert cartan_matrix(LieSpec("C", 3)) == (
            (2, -1, 0),
            (-1, 2, -1),
            (0, -2, 2),
        )
        assert cartan_matrix(LieSpec("D", 4)) == (
            (2, -1, 0, 0),
            (-1, 2, -1, -1),
            (0, -1, 2, 0),
            (0, -1, 0, 2),
        )

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            LieSpec("D", 3)
        with pytest.raises(ValueError):
            LieSpec("B", 1)
        with pytest.raises(ValueError):
            LieSpec("E", 6)

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_root_coords_solve_back(self, family):
        # w_k = sum_i x_i c[i][k] must give the weight back exactly
        rng = random.Random(family)
        for rank in range(MIN_RANK[family], 41):
            spec = LieSpec(family, rank)
            c = cartan_matrix(spec)
            for _ in range(3):
                weight = tuple(rng.randint(-9, 9) for _ in range(rank))
                x = root_coords_of_weight_vector(spec, weight)
                back = tuple(
                    sum(x[i] * c[i][k] for i in range(rank) if c[i][k])
                    for k in range(rank)
                )
                assert back == weight, (spec, weight)


class TestFactorList:
    def test_validation(self):
        with pytest.raises(ValueError):
            FactorList(())
        with pytest.raises(ValueError):
            FactorList(((0, 1),))
        fl = FactorList(((2, 1), (1, 3)))
        assert fl.top_weight(3) == w((2, 0, 1), 3)
        with pytest.raises(ValueError):
            fl.top_weight(2)


class TestAlphaCoords:
    def test_top_weight_is_origin(self):
        spec = LieSpec("B", 3)
        assert alpha_coords(spec, [(1, 2)], w((0, 1, 0), 3)) == (0, 0, 0)

    def test_adjoint_weight_of_a2(self):
        spec = LieSpec("A", 2)
        assert alpha_coords(spec, [(1, 1), (1, 2)], w((0, 0), 2)) == (1, 1)

    def test_b3_zero_from_omega2(self):
        spec = LieSpec("B", 3)
        assert alpha_coords(spec, [(1, 2)], w((0, 0, 0), 3)) == (1, 2, 2)

    def test_failure_cases(self):
        spec = LieSpec("C", 2)
        # odd box difference: non-integral solution
        assert alpha_coords(spec, [(2, 1)], w((1, 0), 2)) is None
        # above the top weight: integral but negative solution (-1, -1)
        assert integer_root_coords(spec, (0, -1)) == (-1, -1)
        assert alpha_coords(spec, [(1, 1)], w((1, 1), 2)) is None

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            alpha_coords(LieSpec("B", 3), [(1, 1)], w((0, 0), 2))


class TestVacancy:
    def test_empty_config_at_factor_node(self):
        spec = LieSpec("B", 3)
        cfg = (Partition(), Partition(), Partition())
        for n in (1, 2, 3):
            assert vacancy(spec, [(3, 2)], cfg, 2, n) == min(n, 3)

    def test_empty_config_off_node(self):
        spec = LieSpec("B", 3)
        cfg = (Partition(), Partition(), Partition())
        assert vacancy(spec, [(3, 2)], cfg, 1, 2) == 0

    def test_three_sums_by_hand(self):
        # factor (1,2) on B3 at the zero-weight configuration (1),(2),(2)
        spec = LieSpec("B", 3)
        cfg = (Partition([1]), Partition([1, 1]), Partition([2]))
        assert vacancy(spec, [(1, 2)], cfg, 1, 1) == 0 - 2 * 1 + 2
        assert vacancy(spec, [(1, 2)], cfg, 2, 1) == 1 - 4 + 1 + 2
        assert vacancy(spec, [(1, 2)], cfg, 3, 1) == 0 - 2 + 2

    def test_negative_vacancy_detected(self):
        spec = LieSpec("B", 3)
        cfg = (Partition([1]), Partition([2]), Partition([2]))
        assert vacancy(spec, [(1, 2)], cfg, 1, 1) == -1

    def test_rank_mismatch(self):
        # one partition per node: an extra one is refused, a missing one is no IndexError
        spec = LieSpec("B", 3)
        with pytest.raises(ValueError):
            vacancy(spec, [(1, 2)], ((1,), (1,), (1,), (5,)), 1, 1)
        with pytest.raises(ValueError):
            vacancy(spec, [(1, 2)], ((1,),), 1, 1)

    def test_plain_tuples_match_partitions(self):
        rng = random.Random(8)
        for _ in range(100):
            spec, factors, nus = random_configuration(rng)
            raw = tuple(tuple(nu) + (0,) * rng.randint(0, 1) for nu in nus)
            for node in range(1, spec.rank + 1):
                for n in range(1, 8):
                    want = vacancy(spec, factors, tuple(nus), node, n)
                    assert vacancy(spec, factors, raw, node, n) == want

    def test_bad_entries_are_refused(self):
        spec = LieSpec("B", 3)
        with pytest.raises(ValueError):
            vacancy(spec, [(1, 2)], ((1,), (1, 2), (2,)), 2, 1)
        with pytest.raises(TypeError):
            vacancy(spec, [(1, 2)], ((1,), [1, 1], (2,)), 2, 1)
        # entries the vacancy number at the node does not read are checked too
        with pytest.raises(ValueError):
            vacancy(spec, [(1, 2)], ((1,), (1,), (1, 3)), 1, 1)
        for k in range(3):
            nus = [(1,), (1,), (1,)]
            nus[k] = [1]
            with pytest.raises(TypeError):
                vacancy(spec, [(1, 2)], tuple(nus), 1, 1)

    def test_tables_match_literal_sums(self):
        rng = random.Random(20261018)
        couplings = set()
        for _ in range(300):
            spec, factors, nus = random_configuration(rng)
            c = cartan_matrix(spec)
            cfg = tuple(nus)
            for node in range(1, spec.rank + 1):
                for n in range(1, 12):
                    got = vacancy(spec, factors, cfg, node, n)
                    assert got == literal_vacancy(spec, factors, nus, node, n), (
                        spec, factors, nus, node, n
                    )
                    for j in range(spec.rank):
                        if j != node - 1 and c[node - 1][j] and nus[j] and n % 2:
                            couplings.add((-c[node - 1][j], -c[j][node - 1]))
        assert couplings == {(1, 1), (1, 2), (2, 1)}


def random_partition(rng, size_max, part_max):
    parts = [rng.randint(1, part_max) for _ in range(rng.randint(0, size_max))]
    return Partition(sorted(parts, reverse=True))


def random_configuration(rng):
    family = rng.choice("ABCD")
    spec = LieSpec(family, rng.randint(MIN_RANK[family], 5))
    factors = [
        (rng.randint(1, 4), rng.randint(1, spec.rank)) for _ in range(rng.randint(1, 3))
    ]
    nus = [random_partition(rng, 4, 5) for _ in range(spec.rank)]
    return spec, factors, nus


def literal_vacancy(spec, factors, nus, node, n):
    # the defining sum of min() terms, over the whole Cartan row
    c = cartan_matrix(spec)
    k = node - 1
    total = sum(min(n, m) for m, l in factors if l == node)
    total -= 2 * sum(min(n, h) for h in nus[k])
    for j in range(spec.rank):
        if j != k and c[k][j]:
            total += sum(min(-c[k][j] * n, -c[j][k] * h) for h in nus[j])
    return total


def full_range_node_factor(spec, factors, nus, k):
    # scan until every min() saturates: own factors, own rows, twice a neighbour's rows
    c = cartan_matrix(spec)
    scan_to = max(
        [1, *(m for m, l in factors if l == k + 1), *nus[k][:1]]
        + [2 * nus[j][0] for j in range(spec.rank) if j != k and c[k][j] and nus[j]]
    )
    result = 1
    for n in range(1, scan_to + 1):
        p = literal_vacancy(spec, factors, nus, k + 1, n)
        if p < 0:
            return 0
        rows = nus[k].count(n)
        result *= comb(p + rows, rows)
    return result


def test_node_factor_matches_full_range_scan():
    rng = random.Random(7)
    seen = {"empty": 0, "zero": 0, "above_one": 0}
    for _ in range(400):
        spec, factors, nus = random_configuration(rng)
        k = rng.randrange(spec.rank)
        if rng.random() < 0.2:
            nus[k] = Partition()
        got = _node_factor(spec, FactorList(tuple(factors)), nus, k)
        assert got == full_range_node_factor(spec, factors, nus, k), (spec, factors, nus, k)
        seen["empty"] += not nus[k]
        seen["zero"] += got == 0
        seen["above_one"] += got > 1
    assert min(seen.values()) >= 20, seen


class TestMultiplicity:
    def test_top_weight_always_one(self):
        # sweep all one- and two-factor lists with total multiplicity <= 4
        from itertools import product

        for spec in (LieSpec("A", 2), LieSpec("B", 3), LieSpec("C", 3), LieSpec("D", 4)):
            singles = [
                (m, node)
                for m in range(1, 5)
                for node in range(1, spec.rank + 1)
            ]
            lists = [[f] for f in singles]
            lists += [
                [f, g] for f, g in product(singles, repeat=2) if f[0] + g[0] <= 4
            ]
            for factors in lists:
                fl = FactorList(tuple(factors))
                top = fl.top_weight(spec.rank)
                assert fermionic_multiplicity(spec, factors, top) == 1, (
                    spec,
                    factors,
                )

    def test_b3_trivial_in_column_pair(self):
        spec = LieSpec("B", 3)
        assert fermionic_multiplicity(spec, [(1, 2)], w((0, 0, 0), 3)) == 1

    def test_a2_adjoint_contains_trivial_once(self):
        spec = LieSpec("A", 2)
        assert fermionic_multiplicity(spec, [(1, 1), (1, 2)], w((0, 0), 2)) == 1

    def test_not_below_top_gives_zero(self):
        spec = LieSpec("C", 2)
        assert fermionic_multiplicity(spec, [(2, 1)], w((1, 0), 2)) == 0

    def test_vector_rep_has_no_trivial_part(self):
        spec = LieSpec("B", 3)
        assert fermionic_multiplicity(spec, [(1, 1)], w((0, 0, 0), 3)) == 0


class TestDecomp:
    def test_b3_column_pair(self):
        assert decomp_as_plain(LieSpec("B", 3), [(1, 2)]) == {
            (0, 1, 0): 1,
            (0, 0, 0): 1,
        }

    def test_c3_row_pair(self):
        assert decomp_as_plain(LieSpec("C", 3), [(2, 1)]) == {
            (2, 0, 0): 1,
            (0, 0, 0): 1,
        }

    def test_b3_vector(self):
        assert decomp_as_plain(LieSpec("B", 3), [(1, 1)]) == {(1, 0, 0): 1}

    def test_type_a_single_factors_are_irreducible(self):
        for rank in (2, 3):
            spec = LieSpec("A", rank)
            for ell in range(1, rank + 1):
                for m in (1, 2, 3):
                    coeffs = [0] * rank
                    coeffs[ell - 1] = m
                    assert decomp_as_plain(spec, [(m, ell)]) == {tuple(coeffs): 1}

    def test_all_multiplicities_positive(self):
        for spec, factors in [
            (LieSpec("B", 4), [(2, 2)]),
            (LieSpec("C", 3), [(1, 1), (1, 2)]),
            (LieSpec("D", 4), [(2, 1)]),
        ]:
            for mult in fermionic_decomp(spec, factors).values():
                assert mult > 0


def dominant_box(spec, factors):
    """(root coordinates, weight coefficients) of every dominant weight in the top weight's box."""
    rank = spec.rank
    top = FactorList(tuple(factors)).top_weight(rank).coeffs
    c = cartan_matrix(spec)
    cols = [[(j, c[j][k]) for j in range(rank) if c[j][k]] for k in range(rank)]
    box = [floor(f) for f in root_coords_of_weight_vector(spec, top)]
    for nvec in product(*(range(b + 1) for b in box)):
        coeffs = [top[k] - sum(nvec[j] * x for j, x in cols[k]) for k in range(rank)]
        if min(coeffs) >= 0:
            yield nvec, coeffs


def brute_force_decomp(spec, factors):
    """Walk the whole root-coordinate box and sum every dominant candidate."""
    out = {}
    for _, coeffs in dominant_box(spec, factors):
        lam = w(coeffs, spec.rank)
        mult = fermionic_multiplicity(spec, factors, lam)
        if mult:
            out[lam] = mult
    return out


@pytest.mark.parametrize(
    "family,rank,factors",
    [
        ("B", 4, [(1, 1), (2, 2)]),
        ("C", 4, [(1, 1), (1, 3), (2, 2)]),
        ("D", 5, [(1, 4), (1, 5), (2, 1)]),
        ("A", 4, [(2, 1), (1, 3)]),
        ("B", 5, [(2, 2), (1, 3)]),
        ("D", 4, [(1, 1), (1, 3), (1, 4)]),
        ("C", 4, [(1, 4), (2, 1)]),
    ],
)
def test_pruned_scan_matches_full_box(family, rank, factors):
    # sweep vs. the configuration-sum walk; the C case puts a factor on the stretched node
    spec = LieSpec(family, rank)
    assert fermionic_decomp(spec, factors) == brute_force_decomp(spec, factors)


def unpruned_config_sum(spec, factors, nvec):
    # every configuration, each the product of its node factors: no branch is cut
    total = 0
    for nus in product(*(_partitions_list(x) for x in nvec)):
        term = 1
        for k in range(spec.rank):
            term *= _node_factor(spec, factors, nus, k)
            if not term:
                break
        total += term
    return total


def small_factor_lists(spec):
    # single factors with m <= 3 and pairs with m1 + m2 <= 3, each with at
    # most 1,000 points in its root-coordinate box, so every configuration
    # can be summed
    singles = [(m, node) for m in (1, 2, 3) for node in range(1, spec.rank + 1)]
    lists = [[f] for f in singles]
    lists += [[f, g] for f, g in combinations_with_replacement(singles, 2) if f[0] + g[0] <= 3]
    return [factors for factors in lists if box_points(spec, factors) <= 1000]


def box_points(spec, factors):
    top = FactorList(tuple(factors)).top_weight(spec.rank).coeffs
    return prod(floor(f) + 1 for f in root_coords_of_weight_vector(spec, top))


@pytest.mark.parametrize(
    "family,rank", [(f, r) for f in "BC" for r in (3, 4, 5)] + [("D", 4), ("D", 5)]
)
def test_config_sum_matches_unpruned_sum(family, rank, monkeypatch):
    # the column bound cuts only branches that sum to 0, so the pruned sum is
    # exact at every dominant weight of the box, zero multiplicities included;
    # the sign tests make every cut, so no node factor computed there is 0
    spec = LieSpec(family, rank)
    factor_values = Counter()

    def counted_node_factor(*args):
        f = _node_factor(*args)
        factor_values[f == 0] += 1
        return f

    monkeypatch.setattr(fermionic, "_node_factor", counted_node_factor)
    seen = Counter()
    for factors in small_factor_lists(spec):
        fl = FactorList(tuple(factors))
        for nvec, _ in dominant_box(spec, factors):
            want = unpruned_config_sum(spec, fl, nvec)
            assert _config_sum(spec, fl, nvec) == want, (factors, nvec)
            seen[want > 0] += 1
    assert min(seen[False], seen[True]) >= 10, seen
    assert factor_values[True] == 0 and factor_values[False] > 0, factor_values


@pytest.mark.parametrize(
    "family,rank,factors", [("B", 7, [(3, 4)]), ("D", 7, [(4, 3)]), ("C", 5, [(2, 5)])]
)
def test_point_queries_match_sweep_on_rectangles(family, rank, factors):
    # the configuration sum at every component: the largest point queries,
    # where the column bound cuts the most; the C case puts its factor on the
    # long node n
    spec = LieSpec(family, rank)
    decomp = fermionic_decomp(spec, factors)
    for lam, mult in decomp.items():
        assert fermionic_multiplicity(spec, factors, lam) == mult, lam


@st.composite
def specs_with_factors(draw):
    family = draw(st.sampled_from("ABCD"))
    spec = LieSpec(family, draw(st.integers(MIN_RANK[family], 5)))
    budget, factors = 7, []  # sum of m * node stays <= 7
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.integers(1, min(spec.rank, budget)))
        m = draw(st.integers(1, budget // node))
        factors.append((m, node))
        budget -= m * node
        if not budget:
            break
    return spec, factors


@settings(derandomize=True, deadline=None, max_examples=100)
@given(specs_with_factors())
def test_sweep_matches_full_box_property(case):
    spec, factors = case
    assert fermionic_decomp(spec, factors) == brute_force_decomp(spec, factors)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(specs_with_factors(), st.data())
def test_alpha_coords_is_integral_nonnegative_solve(case, data):
    spec, factors = case
    rank = spec.rank
    top = [0] * rank  # the top weight: m varpi_node per factor
    for m, node in factors:
        top[node - 1] += m
    if data.draw(st.booleans()):  # a component, which lies below the top weight
        components = sorted(fermionic_decomp(spec, factors), key=lambda mu: mu.coeffs)
        lam = data.draw(st.sampled_from(components))
    else:
        lam = w(data.draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank)), rank)
    solve = integer_root_coords(spec, tuple(t - x for t, x in zip(top, lam.coeffs)))
    got = alpha_coords(spec, factors, lam)
    if solve is None or any(x < 0 for x in solve):
        assert got is None
    else:
        assert got == solve


PRODUCT_RECTANGLES = ((1,), (2,), (3,), (1, 1), (2, 2), (1, 1, 1))


@pytest.mark.parametrize("family", "BCD")
@pytest.mark.parametrize(
    "r1,r2",
    list(combinations_with_replacement(PRODUCT_RECTANGLES, 2)),
    ids=lambda r: "x".join(map(str, r)),
)
def test_two_factor_decomp_matches_family_products(family, r1, r2):
    # at a stable rank the tensor product of the two KR modules is
    # sum_nu c^nu_{R1 R2} * (family member of nu): an oracle with no fermionic code
    fam_tag = UNIVERSAL_FAMILY[family]
    rank = min_stable_rank(Partition([max(r1[0], r2[0])] * (len(r1) + len(r2))), family)
    want = {}
    for nu, c in mult(schur_basis(r1), schur_basis(r2)).terms.items():
        for mu, mult_mu in family_decomposition(nu, fam_tag).terms.items():
            key = weight_from_partition(mu, rank)
            want[key] = want.get(key, 0) + c * mult_mu
    factors = [(r1[0], len(r1)), (r2[0], len(r2))]
    assert fermionic_decomp(LieSpec(family, rank), factors) == want


def rectangle_lists():
    # every list of 2-3 rectangles m^a, each of at most 6 boxes, at most 7 in all
    rectangles = [(m, a) for a in range(1, 7) for m in range(1, 6 // a + 1)]
    return [
        factors
        for count in (2, 3)
        for factors in combinations_with_replacement(rectangles, count)
        if sum(m * a for m, a in factors) <= 7
    ]


def stable_product(family_tag, factors):
    # the product of the factors' family members, multiplied out with the
    # stable tensor coefficients in the family's basis
    prod = {EMPTY: 1}
    for m, a in factors:
        member = family_decomposition(Partition([m] * a), family_tag).terms
        out = Counter()
        for kap, c1 in prod.items():
            for kap2, c2 in member.items():
                for lam, c in stable_tensor_expansion(kap, kap2, family_tag).terms.items():
                    out[lam] += c1 * c2 * c
        prod = out
    return prod


@pytest.mark.parametrize("family", "BCD")
def test_multi_factor_decomp_matches_stable_products(family):
    # at a stable rank the tensor product of KR modules W^(a)_m decomposes as
    # the product of the rectangles' family members: an oracle with no
    # fermionic code; the rank is one (two on D) above the rows of all factors
    family_tag = UNIVERSAL_FAMILY[family]
    lists = rectangle_lists()
    mismatches = []
    for factors in lists:
        rank = min_stable_rank(Partition([1] * sum(a for _, a in factors)), family)
        want = {
            weight_from_partition(mu, rank): c
            for mu, c in stable_product(family_tag, factors).items()
        }
        if fermionic_decomp(LieSpec(family, rank), factors) != want:
            mismatches.append(factors)
    assert len(lists) == 76 and mismatches == []


@pytest.mark.parametrize("family", "BCD")
def test_family_member_is_bounded_by_its_kr_product(family):
    # the family member of lam lies inside the tensor product of one KR module
    # W^(a)_(m_a) per distinct column height a of lam, componentwise, and is
    # all of it exactly when lam is a rectangle: the conjecture's necessary bound
    family_tag = UNIVERSAL_FAMILY[family]
    equal, rectangles = [], []
    for lam in partitions_up_to(7):
        if not lam:
            continue
        rank = min_stable_rank(lam, family)
        coeffs = weight_from_partition(lam, rank).coeffs
        kr = fermionic_decomp(LieSpec(family, rank), [(m, a) for a, m in enumerate(coeffs, 1) if m])
        member = family_decomposition(lam, family_tag).terms
        for mu, c in member.items():
            assert c <= kr.get(weight_from_partition(mu, rank), 0), (lam, mu)
        if {weight_from_partition(mu, rank): c for mu, c in member.items()} == kr:
            equal.append(lam)
        if len(set(lam)) == 1:
            rectangles.append(lam)
    assert len(rectangles) == 16 and equal == rectangles


def rectangle_cases():
    # every m x ell rectangle with sides <= 4 at the minimal stable rank and,
    # for at most four boxes, one rank above it
    cases = []
    for family, fam_tag in UNIVERSAL_FAMILY.items():
        for m in range(1, 5):
            for ell in range(1, 5):
                rank = min_stable_rank(Partition([m] * ell), family)
                cases.append((family, rank, m, ell, fam_tag))
                if m * ell <= 4:
                    cases.append((family, rank + 1, m, ell, fam_tag))
    return cases


@pytest.mark.parametrize("family,rank,m,ell,fam_tag", rectangle_cases())
def test_rectangle_agreement(family, rank, m, ell, fam_tag):
    assert fermionic_rectangle_agreement([(family, rank, m, ell, fam_tag)]) == []


def test_rectangle_agreement_above_stable_rank():
    # one notch above the threshold the decomposition must not change shape
    assert fermionic_rectangle_agreement([("B", 4, 2, 2, "o")]) == []


def q_system_extra(family, rank, a, m):
    """The factors S of the Q-system relation at node a (ROADMAP item 1)."""
    half, rest = m // 2, m - m // 2
    if a <= rank - (3 if family == "D" else 2):
        return [(m, a - 1), (m, a + 1)]
    if family == "B" and a == rank - 1:
        return [(m, rank - 2), (2 * m, rank)]
    if family == "B":
        return [(half, rank - 1), (rest, rank - 1)]
    if family == "C" and a == rank - 1:
        return [(m, rank - 2), (half, rank), (rest, rank)]
    if family == "C":
        return [(2 * m, rank - 1)]
    if a == rank - 2:
        return [(m, rank - 3), (m, rank - 1), (m, rank)]
    return [(m, rank - 2)]


def decomp_counter(spec, factors):
    # factors with m = 0 or node 0 are trivial; no factor at all is the trivial module
    factors = [(m, a) for m, a in factors if m and a]
    if not factors:
        return Counter({(0,) * spec.rank: 1})
    return Counter(decomp_as_plain(spec, factors))


@pytest.mark.parametrize(
    "family,rank",
    [(f, r) for f in "BC" for r in range(2, 6)] + [("D", 4), ("D", 5)],
)
def test_q_system(family, rank):
    # Kirillov-Reshetikhin Q-system (Kirillov-Reshetikhin 1987; Hernandez 2006):
    # W(m,a) x W(m,a) = W(m+1,a) x W(m-1,a) + (x) S, as classical decompositions.
    # An oracle at every rank and on every node, end and spin nodes included.
    spec = LieSpec(family, rank)
    for a in range(1, rank + 1):
        for m in (1, 2):
            square = decomp_counter(spec, [(m, a), (m, a)])
            split = decomp_counter(spec, [(m + 1, a), (m - 1, a)])
            split.update(decomp_counter(spec, q_system_extra(family, rank, a, m)))
            assert square == split, (a, m)
