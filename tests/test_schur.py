import random
from itertools import accumulate

import pytest

from lrwkit.partitions import (
    Partition,
    contains,
    partitions_of,
    partitions_up_to,
    size,
    subpartitions,
)
from lrwkit.schur import (
    H_MONOMIAL,
    SCHUR,
    Expansion,
    _lr_candidates,
    _mult_basis,
    h_monomial_to_schur,
    jacobi_trudi,
    mult,
    omega,
    poly_mult,
    schur_basis,
    schur_polynomial,
    skew,
    skew_schur_expand,
)
from lrwkit.tableaux import lr_coefficient


def exp(terms, basis=SCHUR):
    return Expansion({Partition(p): c for p, c in terms.items()}, basis)


class TestExpansionType:
    def test_prunes_zeros(self):
        assert exp({(2, 1): 0, (1,): 3}).terms == {Partition([1]): 3}

    def test_equality_includes_basis(self):
        assert exp({(1,): 1}) != exp({(1,): 1}, H_MONOMIAL)

    def test_expansion_in_another_basis_keeps_its_terms(self):
        e = exp({(2,): 3, (1, 1): -1})
        h = Expansion(e, H_MONOMIAL)
        assert (h.basis, h.terms, e.basis) == (H_MONOMIAL, e.terms, SCHUR)

    def test_serialization_order_descending_lex(self):
        e = exp({(1, 1): 2, (2,): 1, (): -1})
        assert e.to_jsonable() == [
            {"partition": [2], "coeff": 1},
            {"partition": [1, 1], "coeff": 2},
            {"partition": [], "coeff": -1},
        ]


class TestMult:
    def test_square_of_one_box(self):
        assert mult(schur_basis([1]), schur_basis([1])) == exp({(2,): 1, (1, 1): 1})

    def test_unit(self):
        for lam in partitions_up_to(5):
            assert mult(schur_basis(lam), schur_basis([])) == schur_basis(lam)

    def test_row_times_box(self):
        assert mult(schur_basis([1]), schur_basis([2])) == exp({(3,): 1, (2, 1): 1})

    def test_basis_mismatch(self):
        with pytest.raises(ValueError):
            mult(schur_basis([1]), exp({(1,): 1}, H_MONOMIAL))

    def test_graded(self):
        prod = mult(schur_basis([3, 1]), schur_basis([2, 2]))
        assert all(size(lam) == 8 for lam in prod.terms)

    def test_commutative_exhaustive_small(self):
        # both orders of every pair against the listing search of
        # skew_schur_expand, which reads lam/mu for the one and lam/nu for
        # the other; mult itself keeps one _mult_basis entry per unordered pair
        parts = list(partitions_up_to(5))
        _mult_basis.cache_clear()
        for mu in parts:
            for nu in parts:
                scan = []
                for lam in partitions_of(size(mu) + size(nu)):
                    c = skew_schur_expand(lam, mu).coefficient(nu)
                    if c:
                        scan.append((lam, c))
                got = mult(schur_basis(mu), schur_basis(nu))
                assert list(got.terms.items()) == scan, (mu, nu)
        assert _mult_basis.cache_info().misses == len(parts) * (len(parts) + 1) // 2

    def test_candidates_are_the_bounded_partitions(self):
        # every lam of |mu|+|nu| holding mu and nu, dominated by the row sums
        # mu + nu, with at most len(mu) + len(nu) rows and within Weyl's
        # bounds lam_{i+j} <= mu_i + nu_j (0-indexed), in descending lex order
        parts = list(partitions_up_to(5))
        for mu in parts:
            for nu in parts:
                sums = [a + b for a, b in zip(mu + (0,) * len(nu), nu + (0,) * len(mu))]
                pad = len(mu) + len(nu)
                m, v = mu + (0,) * pad, nu + (0,) * pad
                want = [
                    tuple(lam)
                    for lam in partitions_of(size(mu) + size(nu))
                    if contains(lam, mu)
                    and contains(lam, nu)
                    and len(lam) <= len(mu) + len(nu)
                    and all(a <= b for a, b in zip(accumulate(lam), accumulate(sums)))
                    and all(
                        lam[i + j] <= m[i] + v[j]
                        for i in range(len(lam))
                        for j in range(len(lam) - i)
                    )
                ]
                assert _lr_candidates(mu, nu) == want, (mu, nu)

    def test_pruned_product_matches_full_scan(self):
        # the oracle scans every lam and reads its coefficient from the
        # listing search of skew_schur_expand, not from lr_coefficient
        parts = list(partitions_up_to(5))
        for mu in parts:
            for nu in parts:
                scan = []
                for lam in partitions_of(size(mu) + size(nu)):
                    c = skew_schur_expand(lam, mu).coefficient(nu)
                    if c:
                        scan.append((lam, c))
                assert list(_mult_basis(mu, nu).terms.items()) == scan, (mu, nu)

    def test_product_matches_lr_coefficient_scan(self):
        # every partition of |mu|+|nu| through lr_coefficient: all pairs of at
        # most six boxes, and a seeded sample the size of the lr-ring inputs
        # (7-10 boxes, at most 4 rows, parts at most 6)
        def scan(mu, nu):
            lams = partitions_of(size(mu) + size(nu))
            return [(lam, c) for lam in lams if (c := lr_coefficient(lam, mu, nu))]

        small = list(partitions_up_to(6))
        pairs = [(mu, nu) for mu in small for nu in small]
        large = [lam for n in range(7, 11) for lam in partitions_of(n, max_part=6, max_rows=4)]
        rng = random.Random(27)
        pairs += [(rng.choice(large), rng.choice(large)) for _ in range(12)]
        for mu, nu in pairs:
            assert list(_mult_basis(mu, nu).terms.items()) == scan(mu, nu), (mu, nu)

    def test_associative_exhaustive(self):
        parts = list(partitions_up_to(5))
        for a in parts:
            sa = schur_basis(a)
            for b in parts:
                ab = mult(sa, schur_basis(b))
                for c in parts:
                    sc = schur_basis(c)
                    assert mult(ab, sc) == mult(sa, mult(schur_basis(b), sc)), (
                        a,
                        b,
                        c,
                    )


class TestSkew:
    def test_paper_middle_row(self):
        got = skew(schur_basis([3, 2, 1]), Partition([1, 1]))
        assert got == exp({(3, 1): 1, (2, 2): 1, (2, 1, 1): 1})

    def test_empty_inner(self):
        for lam in partitions_up_to(5):
            assert skew(schur_basis(lam), Partition()) == schur_basis(lam)

    def test_not_contained_gives_zero(self):
        assert skew(schur_basis([2]), Partition([1, 1])).is_zero()

    def test_cached_terms_are_read_only(self):
        lam, nu = Partition([3, 2, 1]), Partition([1])
        with pytest.raises(TypeError):
            skew_schur_expand(lam, nu).terms[Partition([9])] = 5
        assert skew_schur_expand(lam, nu).coefficient(Partition([9])) == 0

    def test_skew_expand_cases(self):
        assert skew_schur_expand(Partition([3, 2, 1]), Partition([2, 2])) == exp(
            {(2,): 1, (1, 1): 1}
        )
        for lam in partitions_up_to(4):
            assert skew_schur_expand(lam, lam) == exp({(): 1})
        assert skew_schur_expand(Partition([2, 1]), Partition([1])) == exp(
            {(2,): 1, (1, 1): 1}
        )

    def test_requires_schur_tag(self):
        with pytest.raises(ValueError):
            skew(exp({(2, 1): 1}, H_MONOMIAL), Partition([1]))

    def test_adjointness_exhaustive(self):
        # coefficient of mu in skew(lam, nu) equals the LR coefficient
        for lam in partitions_up_to(8):
            for nu in subpartitions(lam):
                expansion = skew_schur_expand(lam, nu)
                for mu in partitions_of(size(lam) - size(nu)):
                    assert expansion.coefficient(mu) == lr_coefficient(lam, mu, nu)

    def test_expand_matches_grouped_tableaux(self):
        # grouping enumerated fillings by content reproduces the expansion
        from lrwkit.tableaux import SkewShape, content, enumerate_lr_tableaux

        for lam in partitions_up_to(8):
            for nu in subpartitions(lam):
                grouped = {}
                for t in enumerate_lr_tableaux(SkewShape(lam, nu)):
                    mu = content(t)
                    grouped[mu] = grouped.get(mu, 0) + 1
                assert grouped == skew_schur_expand(lam, nu).terms


class TestOmega:
    def test_rows_to_columns(self):
        for k in range(1, 6):
            assert omega(schur_basis([k])) == schur_basis([1] * k)

    def test_involution(self):
        for lam in partitions_up_to(6):
            assert omega(omega(schur_basis(lam))) == schur_basis(lam)

    def test_self_conjugate(self):
        assert omega(schur_basis([2, 1])) == schur_basis([2, 1])

    def test_ring_homomorphism(self):
        parts = list(partitions_up_to(5))
        for mu in parts:
            for nu in parts:
                lhs = omega(mult(schur_basis(mu), schur_basis(nu)))
                rhs = mult(omega(schur_basis(mu)), omega(schur_basis(nu)))
                assert lhs == rhs


class TestJacobiTrudi:
    def test_two_one(self):
        assert jacobi_trudi(Partition([2, 1])) == exp(
            {(2, 1): 1, (3,): -1}, H_MONOMIAL
        )

    def test_single_row(self):
        for k in range(1, 5):
            assert jacobi_trudi(Partition([k])) == exp({(k,): 1}, H_MONOMIAL)

    def test_column_pair(self):
        assert jacobi_trudi(Partition([1, 1])) == exp(
            {(1, 1): 1, (2,): -1}, H_MONOMIAL
        )

    def test_h_to_schur_cases(self):
        assert h_monomial_to_schur(jacobi_trudi(Partition([2, 1]))) == schur_basis(
            [2, 1]
        )
        assert h_monomial_to_schur(exp({(3,): 1}, H_MONOMIAL)) == schur_basis([3])
        assert h_monomial_to_schur(exp({(1, 1): 1}, H_MONOMIAL)) == exp(
            {(2,): 1, (1, 1): 1}
        )

    def test_requires_h_tag(self):
        with pytest.raises(ValueError):
            h_monomial_to_schur(schur_basis([2]))

    @pytest.mark.parametrize("lam, nu", [((1, 2), ()), ((2, 1), (1, 2)), ((2, -1), ())])
    def test_rejects_non_partitions(self, lam, nu):
        with pytest.raises(ValueError):
            jacobi_trudi(lam, nu)


class TestSchurPolynomial:
    def test_one_box_two_vars(self):
        assert schur_polynomial(Partition([1]), 2) == {(1, 0): 1, (0, 1): 1}

    def test_too_many_rows(self):
        assert schur_polynomial(Partition([1, 1, 1]), 2) == {}

    @pytest.mark.parametrize("lam", [(1, 2), (2, -1)])
    def test_rejects_non_partitions(self, lam):
        with pytest.raises(ValueError):
            schur_polynomial(lam, 2)

    def test_trailing_zeros_name_the_same_partition(self):
        assert schur_polynomial((2, 1, 0), 2) == schur_polynomial(Partition([2, 1]), 2)

    def test_row_two(self):
        assert schur_polynomial(Partition([2]), 2) == {
            (2, 0): 1,
            (1, 1): 1,
            (0, 2): 1,
        }

    def test_elementary_from_column(self):
        # a column selects square-free monomials
        assert schur_polynomial(Partition([1, 1]), 3) == {
            (1, 1, 0): 1,
            (1, 0, 1): 1,
            (0, 1, 1): 1,
        }

    def test_symmetric(self):
        poly = schur_polynomial(Partition([2, 1]), 3)
        for (a, b, c), coeff in poly.items():
            assert poly[(b, a, c)] == coeff
            assert poly[(c, b, a)] == coeff

    def test_poly_mult_matches_lr(self):
        mu, nu = Partition([2]), Partition([1, 1])
        nvars = 4
        lhs = poly_mult(schur_polynomial(mu, nvars), schur_polynomial(nu, nvars))
        rhs = {}
        from lrwkit.schur import poly_add_scaled

        for lam, c in mult(schur_basis(mu), schur_basis(nu)).terms.items():
            poly_add_scaled(rhs, schur_polynomial(lam, nvars), c)
        assert lhs == rhs
