import pytest

from lrwkit.classical import family_decomposition
from lrwkit.closed_forms import (
    closed_form_heights24,
    closed_form_rectangle,
    closed_form_three_row,
)
from lrwkit.partitions import Partition


class TestRectangle:
    def test_one_domino_step(self):
        assert closed_form_rectangle(1, 2, "o").terms == {
            Partition([1, 1]): 1,
            Partition(): 1,
        }

    def test_single_box_no_step(self):
        assert closed_form_rectangle(1, 1, "o").terms == {Partition([1]): 1}

    def test_two_by_two_matches_general(self):
        got = closed_form_rectangle(2, 2, "o")
        assert got.terms == family_decomposition(Partition([2, 2]), "o").terms

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_rectangle(0, 1, "o")
        with pytest.raises(ValueError):
            closed_form_rectangle(1, 1, "garbage")

    @pytest.mark.parametrize("family", ["sp", "o"])
    def test_matches_general_up_to_4(self, family):
        bad = [
            (m, ell)
            for m in range(1, 5)
            for ell in range(1, 5)
            if closed_form_rectangle(m, ell, family).terms
            != family_decomposition(Partition([m] * ell), family).terms
        ]
        assert bad == []


class TestThreeRow:
    def test_six_components(self):
        got = closed_form_three_row(1, 1, 1)
        assert got.terms == {
            Partition([3, 2, 1]): 1,
            Partition([2, 1, 1]): 1,
            Partition([2, 2]): 1,
            Partition([3, 1]): 1,
            Partition([1, 1]): 1,
            Partition([2]): 1,
        }

    def test_trivial_case(self):
        assert closed_form_three_row(0, 0, 0).terms == {Partition(): 1}

    def test_spot_against_general(self):
        got = closed_form_three_row(2, 1, 1)
        want = family_decomposition(Partition([4, 2, 1]), "o")
        assert got.terms == want.terms

    def test_matches_general_up_to_3(self):
        bad = [
            (a, b, c)
            for a in range(4)
            for b in range(4)
            for c in range(4)
            if closed_form_three_row(a, b, c).terms
            != family_decomposition(Partition([a + b + c, b + c, c]), "o").terms
        ]
        assert bad == []


class TestHeights24:
    def test_multiplicity_two(self):
        got = closed_form_heights24(1, 1)
        assert got.multiplicity(Partition([1, 1])) == 2
        assert sum(got.terms.values()) == 7

    def test_single_column_stack(self):
        got = closed_form_heights24(0, 1)
        want = family_decomposition(Partition([1, 1, 1, 1]), "o")
        assert got.terms == want.terms

    def test_matches_general_up_to_3(self):
        bad = [
            (a, b)
            for a in range(4)
            for b in range(4)
            if closed_form_heights24(a, b).terms
            != family_decomposition(Partition([a + b, a + b, b, b]), "o").terms
        ]
        assert bad == []
