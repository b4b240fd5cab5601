import pytest
from hypothesis import given, settings, strategies as st

from lrwkit.classical import (
    FAMILIES,
    FamilyDecomposition,
    _domino_subpartitions,
    branch_schur,
    even_column_heights,
    even_row_lengths,
    family_decomposition,
    min_stable_rank,
    stable_tensor_coefficient,
    stable_tensor_expansion,
    tensor_product_two_ways,
    to_schur,
)
from lrwkit.partitions import (
    Partition,
    conjugate,
    contains,
    partitions_of,
    partitions_up_to,
    size,
    subpartitions,
)
from lrwkit.lie import MIN_RANK, LieSpec
from lrwkit.schur import (
    ORTHOGONAL,
    SYMPLECTIC,
    Expansion,
    mult,
    schur_basis,
    skew_schur_expand,
)
from lrwkit.verify import orthogonal_stable_product


def exp(terms, basis):
    return Expansion({Partition(p): c for p, c in terms.items()}, basis)


class TestDominoClasses:
    def test_column_pair(self):
        p = Partition([1, 1])
        assert even_column_heights(p) and not even_row_lengths(p)

    def test_two_by_two(self):
        p = Partition([2, 2])
        assert even_column_heights(p) and even_row_lengths(p)

    def test_empty(self):
        assert even_column_heights(Partition()) and even_row_lengths(Partition())

    def test_conjugate_swaps_classes(self):
        for p in partitions_up_to(8):
            assert even_column_heights(p) == even_row_lengths(conjugate(p))

    def test_generated_inners_are_the_filtered_subpartitions(self):
        # the generator against a filter over subpartitions, order included
        for lam in partitions_up_to(12):
            for columns, test in ((True, even_column_heights), (False, even_row_lengths)):
                want = [nu for nu in subpartitions(lam) if test(nu)]
                assert list(_domino_subpartitions(lam, columns)) == want, (lam, columns)


class TestBranch:
    def test_column_pair_sp(self):
        got = branch_schur(Partition([1, 1]), SYMPLECTIC)
        assert got == exp({(1, 1): 1, (): 1}, SYMPLECTIC)

    def test_row_pair_o(self):
        got = branch_schur(Partition([2]), ORTHOGONAL)
        assert got == exp({(2,): 1, (): 1}, ORTHOGONAL)

    def test_one_box(self):
        assert branch_schur(Partition([1]), SYMPLECTIC) == exp({(1,): 1}, SYMPLECTIC)

    def test_cached_terms_are_read_only(self):
        lam = Partition([2, 1])
        with pytest.raises(TypeError):
            branch_schur(lam, SYMPLECTIC).terms[Partition([9])] = 5
        assert Partition([9]) not in branch_schur(lam, SYMPLECTIC).terms

    def test_bad_family(self):
        with pytest.raises(ValueError):
            branch_schur(Partition([1]), "x")

    def test_unitriangular_exhaustive(self):
        for lam in partitions_up_to(8):
            for family in (SYMPLECTIC, ORTHOGONAL):
                expansion = branch_schur(lam, family)
                assert expansion.coefficient(lam) == 1
                for mu, c in expansion.terms.items():
                    assert c > 0
                    assert contains(lam, mu)
                    if mu != lam:
                        assert size(mu) < size(lam)


class TestToSchur:
    def test_inversions(self):
        assert to_schur(exp({(1, 1): 1}, SYMPLECTIC)) == exp({(1, 1): 1, (): -1}, "schur")
        assert to_schur(exp({(1,): 1}, SYMPLECTIC)) == exp({(1,): 1}, "schur")
        assert to_schur(exp({(2,): 1}, ORTHOGONAL)) == exp({(2,): 1, (): -1}, "schur")

    def test_wrong_basis(self):
        with pytest.raises(ValueError):
            to_schur(schur_basis([1]))

    # The two round trips compare two formulas: restriction is the domino sum
    # of `branch_schur`, and `to_schur` is Littlewood's signed skew sum, which
    # is computed without calling `branch_schur`. Each fails if either one
    # takes the wrong domino class, sign or Frobenius shift.
    def test_round_trip_exhaustive(self):
        from lrwkit.classical import _branch_expansion

        for lam in partitions_up_to(10):
            for family in (SYMPLECTIC, ORTHOGONAL):
                start = exp({tuple(lam): 1}, family)
                assert _branch_expansion(to_schur(start), family) == start

    def test_branch_then_invert_exhaustive(self):
        for lam in partitions_up_to(10):
            for family in (SYMPLECTIC, ORTHOGONAL):
                assert to_schur(branch_schur(lam, family)) == schur_basis(lam)


class TestStableTensor:
    def test_square_of_vector(self):
        one = Partition([1])
        want = {Partition([2]): 1, Partition([1, 1]): 1, Partition(): 1}
        assert stable_tensor_expansion(one, one, SYMPLECTIC).terms == want
        assert stable_tensor_expansion(one, one, ORTHOGONAL).terms == want
        assert stable_tensor_coefficient(one, one, Partition()) == 1

    def test_unit(self):
        for lam in partitions_up_to(5):
            assert stable_tensor_coefficient(lam, Partition(), lam) == 1

    def test_cached_terms_are_read_only(self):
        one = Partition([1])
        with pytest.raises(TypeError):
            stable_tensor_expansion(one, one, SYMPLECTIC).terms[Partition([9])] = 5
        assert stable_tensor_coefficient(one, one, Partition([9])) == 0

    def test_one_entry_per_unordered_pair(self):
        mu, nu = Partition([2, 1]), Partition([3, 1])
        for family in FAMILIES:
            assert stable_tensor_expansion(mu, nu, family) is stable_tensor_expansion(
                nu, mu, family
            )

    @pytest.mark.parametrize("bad", [(1, 3), (2, -1), (-1,)])
    def test_not_a_partition(self, bad):
        for family in FAMILIES:
            with pytest.raises(ValueError):
                stable_tensor_expansion(bad, Partition([1]), family)
            with pytest.raises(ValueError):
                stable_tensor_expansion(Partition([1]), bad, family)

    def test_families_share_one_product(self):
        mu, nu = Partition([2, 1]), Partition([3, 1])
        for a, b in ((mu, nu), (nu, mu)):
            sp = stable_tensor_expansion(a, b, SYMPLECTIC)
            assert stable_tensor_expansion(a, b, ORTHOGONAL).terms is sp.terms


# Pairs of at most 8 boxes together: products cheap enough to draw many.
small_pairs = st.sampled_from(
    [(mu, nu) for mu in partitions_up_to(8) for nu in partitions_up_to(8 - size(mu))]
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_pairs)
def test_omega_duality(pair):
    # conjugating every partition swaps the two domino classes, so the
    # symplectic product of (mu, nu) is the orthogonal one of (mu', nu'),
    # read here through the orthogonal characters: a second route
    mu, nu = pair
    sp = stable_tensor_expansion(mu, nu, SYMPLECTIC).terms
    dual = orthogonal_stable_product(conjugate(mu), conjugate(nu)).terms
    assert sp == {conjugate(lam): c for lam, c in dual.items()}, pair


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_pairs, st.sampled_from(FAMILIES))
def test_grading(pair, family):
    # every lam has |mu| + |nu| - 2k boxes and a positive coefficient, and the
    # top degree is the LR product, read from the listing search
    mu, nu = pair
    n = size(mu) + size(nu)
    terms = stable_tensor_expansion(mu, nu, family).terms
    for lam, c in terms.items():
        assert c > 0 and size(lam) <= n and (n - size(lam)) % 2 == 0, (pair, lam)
    top = {lam: c for lam, c in terms.items() if size(lam) == n}
    scan = {lam: skew_schur_expand(lam, mu).coefficient(nu) for lam in partitions_of(n)}
    assert top == {lam: c for lam, c in scan.items() if c}, pair


class TestFamilyDecomposition:
    def test_six_components(self):
        decomp = family_decomposition(Partition([3, 2, 1]), ORTHOGONAL)
        assert decomp.terms == {
            Partition([3, 2, 1]): 1,
            Partition([3, 1]): 1,
            Partition([2, 2]): 1,
            Partition([2, 1, 1]): 1,
            Partition([2]): 1,
            Partition([1, 1]): 1,
        }

    def test_row_pair_sp(self):
        assert family_decomposition(Partition([2]), SYMPLECTIC).terms == {
            Partition([2]): 1,
            Partition(): 1,
        }

    def test_row_pair_o(self):
        assert family_decomposition(Partition([2]), ORTHOGONAL).terms == {
            Partition([2]): 1
        }

    def test_column_pair_o(self):
        assert family_decomposition(Partition([1, 1]), ORTHOGONAL).terms == {
            Partition([1, 1]): 1,
            Partition(): 1,
        }

    def test_is_an_expansion_in_its_family_basis(self):
        for family in FAMILIES:
            decomp = family_decomposition(Partition([2, 1]), family)
            assert isinstance(decomp, Expansion)
            assert decomp.basis == decomp.family == family
            assert decomp.multiplicity([1]) == decomp.coefficient([1])

    def test_type_invariants(self):
        with pytest.raises(ValueError):
            FamilyDecomposition(SYMPLECTIC, Partition([1]), {Partition([1]): 2})
        with pytest.raises(ValueError):
            FamilyDecomposition(
                SYMPLECTIC, Partition([1]), {Partition([1]): 1, Partition([2]): 1}
            )
        with pytest.raises(ValueError):
            terms = Expansion({Partition([1]): 1, Partition([2]): 1}, SYMPLECTIC)
            FamilyDecomposition(SYMPLECTIC, Partition([1]), terms)

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_multiplicity(self, m):
        # checked on the mapping passed in, before zero terms are dropped
        with pytest.raises(ValueError, match="positive"):
            FamilyDecomposition(SYMPLECTIC, Partition([1]), {Partition([1]): 1, Partition(): m})

    def test_cached_terms_are_read_only(self):
        lam = Partition([3, 2, 1])
        with pytest.raises(TypeError):
            family_decomposition(lam, ORTHOGONAL).terms[Partition([9])] = 5
        assert Partition([9]) not in family_decomposition(lam, ORTHOGONAL).terms

    def test_terms_are_copied_in(self):
        terms = {Partition([1]): 1}
        decomp = FamilyDecomposition(SYMPLECTIC, Partition([1]), terms)
        terms[Partition()] = 1
        assert decomp.terms == {Partition([1]): 1}

    def test_omega_duality_exhaustive(self):
        # transposition swaps even rows and even columns, so sp(lam) = conj o(lam')
        for lam in partitions_up_to(8):
            dual = family_decomposition(conjugate(lam), ORTHOGONAL).terms
            assert family_decomposition(lam, SYMPLECTIC).terms == {
                conjugate(mu): m for mu, m in dual.items()
            }, lam

    def test_serialization_order(self):
        decomp = family_decomposition(Partition([3, 2, 1]), ORTHOGONAL)
        payload = decomp.to_jsonable()
        assert payload["family"] == "O"
        assert payload["top"] == [3, 2, 1]
        assert [t["partition"] for t in payload["terms"]] == [
            [3, 2, 1],
            [3, 1],
            [2, 2],
            [2, 1, 1],
            [2],
            [1, 1],
        ]


class TestTensorRule:
    def test_vector_square(self):
        lhs, rhs = tensor_product_two_ways(Partition([1]), Partition([1]), SYMPLECTIC)
        assert lhs == rhs
        assert lhs.terms == {
            Partition([2]): 1,
            Partition([1, 1]): 1,
            Partition(): 1,
        }

    def test_tensor_with_unit(self):
        for lam in partitions_up_to(4):
            lhs, rhs = tensor_product_two_ways(lam, Partition(), ORTHOGONAL)
            assert lhs == rhs
            assert lhs.terms == family_decomposition(lam, ORTHOGONAL).terms

    def test_mixed_case(self):
        lhs, rhs = tensor_product_two_ways(Partition([1]), Partition([1, 1]), ORTHOGONAL)
        assert lhs == rhs


class TestMinStableRank:
    def test_cases(self):
        assert min_stable_rank(Partition([2, 1]), "C") == 3
        assert min_stable_rank(Partition([1, 1, 1]), "D") == 5
        assert min_stable_rank(Partition([1, 1, 1]), "B") == 4
        assert min_stable_rank(Partition([1, 1]), "D") == 4

    @pytest.mark.parametrize("lie_type", "BCD")
    def test_never_below_the_smallest_rank(self, lie_type):
        assert min_stable_rank(Partition(), lie_type) == MIN_RANK[lie_type]
        for rows in range(6):
            rank = min_stable_rank(Partition([1] * rows), lie_type)
            LieSpec(lie_type, rank)
            assert rank >= rows + (2 if lie_type == "D" else 1)

    def test_bad_family(self):
        # a family tag or a type other than B, C, D is refused
        for bad in ("o", "sp", "o_odd", "A"):
            with pytest.raises(ValueError):
                min_stable_rank(Partition([1]), bad)

    @pytest.mark.parametrize("bad", [(1, 3), (2, -1), (-1,)])
    def test_not_a_partition(self, bad):
        with pytest.raises(ValueError):
            min_stable_rank(bad, "B")


READ_ONLY_RESULTS = {
    "skew_schur_expand": lambda: skew_schur_expand(Partition([2, 1]), Partition([1])),
    "mult": lambda: mult(schur_basis([2, 1]), schur_basis([1])),
    "stable_tensor_expansion": lambda: stable_tensor_expansion(
        Partition([1]), Partition([1]), SYMPLECTIC
    ),
    "branch_schur": lambda: branch_schur(Partition([2, 2]), ORTHOGONAL),
    "family_decomposition": lambda: family_decomposition(Partition([3, 2, 1]), ORTHOGONAL),
}


def _state(e):
    return dict(e.terms), e.basis, getattr(e, "top", None)


@pytest.mark.parametrize("attr", ["terms", "basis", "top"])
@pytest.mark.parametrize("call", list(READ_ONLY_RESULTS.values()), ids=list(READ_ONLY_RESULTS))
def test_results_are_read_only(call, attr):
    # a cached result edited by one caller would be every later caller's answer
    want = _state(call())
    with pytest.raises(AttributeError):
        setattr(call(), attr, {Partition([9]): 5})
    assert _state(call()) == want
    with pytest.raises(AttributeError):
        delattr(call(), attr)
    assert _state(call()) == want
