import pytest
from hypothesis import given, strategies as st

from lrwkit.partitions import (
    DominantWeight,
    Partition,
    RootLatticeElement,
    conjugate,
    contains,
    partition_from_weight,
    partitions_of,
    partitions_up_to,
    size,
    subpartitions,
    weight_from_partition,
)


def partitions_strategy(max_part=6, max_rows=6):
    return st.lists(st.integers(1, max_part), max_size=max_rows).map(
        lambda xs: Partition(sorted(xs, reverse=True))
    )


class TestPartitionType:
    def test_canonical_form_strips_trailing_zeros(self):
        assert Partition([3, 1, 0, 0]) == Partition([3, 1])
        assert Partition([0, 0]) == Partition()
        assert hash(Partition([3, 1, 0])) == hash(Partition([3, 1]))
        assert type(Partition((3, 1, 0))) is Partition
        assert Partition((3, 1, 0)) == (3, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_is_usable_as_dict_key(self):
        d = {Partition([2, 1]): 5}
        assert d[Partition((2, 1, 0))] == 5

    def test_json_form(self):
        assert Partition([4, 3, 1]).to_jsonable() == [4, 3, 1]
        assert Partition().to_jsonable() == []

    def test_partition_input_is_returned_as_is(self):
        p = Partition([4, 3, 1])
        assert Partition(p) is p
        empty = Partition()
        assert Partition(empty) is empty


class TestWeightDictionary:
    def test_paper_display(self):
        w = DominantWeight((1, 2, 1), 3)
        assert partition_from_weight(w) == Partition([4, 3, 1])
        assert weight_from_partition(Partition([4, 3, 1]), 3) == w

    def test_zero_weight(self):
        assert partition_from_weight(DominantWeight((0,) * 5, 5)) == Partition()

    def test_single_row(self):
        assert partition_from_weight(DominantWeight((2, 0, 0, 0), 4)) == Partition([2])

    def test_two_columns_of_height_two(self):
        assert weight_from_partition(Partition([2, 2]), 4) == DominantWeight(
            (0, 2, 0, 0), 4
        )

    def test_staircase(self):
        assert weight_from_partition(Partition([3, 2, 1]), 5) == DominantWeight(
            (1, 1, 1, 0, 0), 5
        )

    def test_rank_too_small(self):
        with pytest.raises(ValueError):
            weight_from_partition(Partition([1, 1, 1]), 2)

    def test_round_trip_exhaustive(self):
        for p in partitions_up_to(8):
            rank = max(len(p), 1)
            assert partition_from_weight(weight_from_partition(p, rank)) == p
            assert partition_from_weight(weight_from_partition(p, rank + 3)) == p

    @given(partitions_strategy())
    def test_round_trip_property(self, p):
        rank = len(p) + 1
        assert partition_from_weight(weight_from_partition(p, rank)) == p

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DominantWeight((1, -1), 2)
        with pytest.raises(ValueError):
            DominantWeight((1,), 2)

    def test_root_lattice_element_validation(self):
        RootLatticeElement((1, -2, 0), 3)
        with pytest.raises(ValueError):
            RootLatticeElement((1, 2), 3)


class TestConjugate:
    def test_paper_shape(self):
        assert conjugate(Partition([4, 3, 1])) == Partition([3, 2, 2, 1])

    def test_empty(self):
        assert conjugate(Partition()) == Partition()

    def test_row_to_column(self):
        for k in range(1, 6):
            assert conjugate(Partition([k])) == Partition([1] * k)

    def test_involutive_exhaustive(self):
        for p in partitions_up_to(12):
            assert conjugate(conjugate(p)) == p


class TestContains:
    def test_paper_case(self):
        assert contains(Partition([3, 2, 1]), Partition([2, 2]))

    def test_reflexive(self):
        for p in partitions_up_to(6):
            assert contains(p, p)

    def test_row_count(self):
        assert not contains(Partition([2]), Partition([1, 1]))

    def test_partial_order_exhaustive(self):
        ps = list(partitions_up_to(8))
        related = {
            (a, b) for a in ps for b in ps if contains(a, b)
        }
        for a, b in related:
            if (b, a) in related:
                assert a == b
        # transitivity over comparable chains
        below = {}
        for a, b in related:
            below.setdefault(a, set()).add(b)
        for a, downs in below.items():
            for b in downs:
                assert below.get(b, set()) <= downs


class TestSize:
    def test_cases(self):
        assert size(Partition([4, 3, 1])) == 8
        assert size(Partition()) == 0
        assert size(Partition([2, 2, 1, 1])) == 6


class TestEnumeration:
    def test_partition_counts(self):
        wanted = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        got = [len(list(partitions_of(n))) for n in range(10)]
        assert got == wanted

    def test_partitions_respect_bounds(self):
        for p in partitions_of(8, max_part=3, max_rows=4):
            assert len(p) <= 4 and (not p or p[0] <= 3)
            assert size(p) == 8

    def test_subpartition_count_of_rectangle(self):
        # sub-diagrams of a 2x3 box = lattice paths = C(5,2)
        assert sum(1 for _ in subpartitions(Partition([3, 3]))) == 10

    def test_subpartitions_agree_with_filter(self):
        p = Partition([3, 2, 1])
        direct = set(subpartitions(p))
        brute = {q for q in partitions_up_to(size(p)) if contains(p, q)}
        assert direct == brute
