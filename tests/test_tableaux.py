import pytest
from hypothesis import assume, given, settings, strategies as st

from lrwkit.partitions import (
    Partition,
    conjugate,
    contains,
    partitions_of,
    partitions_up_to,
    size,
)
from lrwkit.schur import poly_add_scaled, poly_mult, schur_polynomial
from lrwkit.tableaux import (
    SkewShape,
    SkewTableau,
    content,
    enumerate_lr_tableaux,
    is_ballot,
    lr_coefficient,
    reverse_row_word,
)


def shape(outer, inner=()):
    return SkewShape(Partition(outer), Partition(inner))


class TestShapesAndFillings:
    def test_shape_requires_containment(self):
        with pytest.raises(ValueError):
            shape([2], [1, 1])

    def test_tableau_validation(self):
        sh = shape([2, 2])
        SkewTableau(sh, ((1, 1), (2, 2)))
        with pytest.raises(ValueError):
            SkewTableau(sh, ((1, 2), (2, 1)))  # second row decreases
        with pytest.raises(ValueError):
            SkewTableau(sh, ((1, 1), (1, 2)))  # first column not strict
        with pytest.raises(ValueError):
            SkewTableau(sh, ((1, 1, 1), (2, 2)))  # wrong row length


class TestReverseRowWord:
    def test_first_paper_tableau(self):
        t = SkewTableau(shape([3, 2, 1]), ((1, 1, 1), (2, 2), (3,)))
        assert reverse_row_word(t) == (1, 1, 1, 2, 2, 3)

    def test_empty(self):
        t = SkewTableau(shape([]), ())
        assert reverse_row_word(t) == ()

    def test_single_cell(self):
        t = SkewTableau(shape([1]), ((1,),))
        assert reverse_row_word(t) == (1,)

    def test_reads_rows_right_to_left(self):
        t = SkewTableau(shape([2, 1], [1]), ((1,), (1,)))
        assert reverse_row_word(t) == (1, 1)


class TestBallot:
    def test_paper_word(self):
        assert is_ballot((1, 1, 1, 2, 2, 3))

    def test_two_before_one(self):
        assert not is_ballot((2, 1))

    def test_empty(self):
        assert is_ballot(())

    def test_prefix_failure_midway(self):
        assert not is_ballot((1, 2, 2))
        assert is_ballot((1, 2, 1, 2))

    @given(st.lists(st.integers(1, 4), max_size=10))
    def test_against_prefix_definition(self, word):
        def brute(seq):
            for k in range(1, len(seq) + 1):
                prefix = seq[:k]
                for i in range(1, max(seq, default=1) + 1):
                    if prefix.count(i + 1) > prefix.count(i):
                        return False
            return True

        assert is_ballot(word) == brute(word)


class TestContent:
    def test_first_paper_tableau(self):
        t = SkewTableau(shape([3, 2, 1]), ((1, 1, 1), (2, 2), (3,)))
        assert content(t) == Partition([3, 2, 1])

    def test_column_pair(self):
        t = SkewTableau(shape([1, 1]), ((1,), (2,)))
        assert content(t) == Partition([1, 1])

    def test_single_row(self):
        t = SkewTableau(shape([2]), ((1, 1),))
        assert content(t) == Partition([2])

    def test_non_partition_content_raises(self):
        t = SkewTableau(shape([1, 1], [1]), ((), (2,)))
        with pytest.raises(ValueError):
            content(t)


class TestEnumeration:
    def test_paper_counts(self):
        lam = [3, 2, 1]
        assert len(enumerate_lr_tableaux(shape(lam))) == 1
        assert len(enumerate_lr_tableaux(shape(lam, [1, 1]))) == 3
        assert len(enumerate_lr_tableaux(shape(lam, [2, 2]))) == 2

    def test_exact_fillings_golden(self):
        got = [t.entries for t in enumerate_lr_tableaux(shape([3, 2, 1], [1, 1]))]
        assert got == [
            ((1, 1), (2,), (1,)),
            ((1, 1), (2,), (2,)),
            ((1, 1), (2,), (3,)),
        ]
        got = [t.entries for t in enumerate_lr_tableaux(shape([3, 2, 1], [2, 2]))]
        assert got == [((1,), (), (1,)), ((1,), (), (2,))]

    def test_every_result_is_ballot_ssyt(self):
        for lam in partitions_up_to(7):
            from lrwkit.partitions import subpartitions

            for nu in subpartitions(lam):
                for t in enumerate_lr_tableaux(SkewShape(lam, nu)):
                    assert is_ballot(reverse_row_word(t))
                    content(t)  # raises if not a partition

    def test_seven_fillings_for_heights_2_and_4(self):
        from lrwkit.classical import even_column_heights
        from lrwkit.partitions import subpartitions

        lam = Partition([2, 2, 1, 1])
        total = 0
        inners = 0
        for nu in subpartitions(lam):
            if even_column_heights(nu):
                inners += 1
                total += len(enumerate_lr_tableaux(SkewShape(lam, nu)))
        assert inners == 5
        assert total == 7

    def test_empty_shape(self):
        ts = enumerate_lr_tableaux(shape([2, 1], [2, 1]))
        assert len(ts) == 1
        assert ts[0].entries == ((), ())


class TestLrCoefficient:
    def test_square_of_box(self):
        assert lr_coefficient(Partition([2]), Partition([1]), Partition([1])) == 1
        assert lr_coefficient(Partition([1, 1]), Partition([1]), Partition([1])) == 1

    def test_unit(self):
        for lam in partitions_up_to(5):
            assert lr_coefficient(lam, lam, Partition()) == 1
            assert lr_coefficient(lam, Partition(), lam) == 1

    def test_hook(self):
        assert lr_coefficient(Partition([2, 1]), Partition([1]), Partition([1, 1])) == 1

    def test_grading(self):
        assert lr_coefficient(Partition([3]), Partition([1]), Partition([1])) == 0

    def test_symmetry_exhaustive(self):
        for lam in partitions_up_to(8):
            n = size(lam)
            for k in range(n + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(n - k):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            lam, nu, mu
                        )

    def test_monomial_oracle(self):
        # product of specializations == specialization of the product
        for total in range(7):
            for k in range(total + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(total - k):
                        nvars = max(total, 1)
                        lhs = poly_mult(
                            schur_polynomial(mu, nvars), schur_polynomial(nu, nvars)
                        )
                        rhs = {}
                        for lam in partitions_of(total):
                            c = lr_coefficient(lam, mu, nu)
                            if c:
                                poly_add_scaled(
                                    rhs, schur_polynomial(lam, nvars), c
                                )
                        assert lhs == rhs, (mu, nu)


# Factors of lr-ring's products: at most 4 rows, parts at most 6.
ring_factors = st.lists(st.integers(1, 6), max_size=4).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(ring_factors, ring_factors)
def test_lr_symmetries_at_ring_sizes(mu, nu):
    n = size(mu) + size(nu)
    assume(9 <= n <= 16)
    # every lam that holds both factors, zero coefficients included
    for lam in partitions_of(n, max_rows=len(mu) + len(nu)):
        if contains(lam, mu) and contains(lam, nu):
            c = lr_coefficient(lam, mu, nu)
            assert c == lr_coefficient(lam, nu, mu), (lam, mu, nu)
            assert c == lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu)), (lam, mu, nu)
