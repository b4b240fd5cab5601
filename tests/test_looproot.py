import pytest

from lrwkit.lie import (
    LieSpec,
    cartan_matrix,
    integer_root_coords,
    weight_of_root_vector,
)
from lrwkit.looproot import (
    beta_roots,
    commute_check,
    cone_membership,
    positive_roots,
    type_a_support,
)
from lrwkit.partitions import RootLatticeElement


def elem(coords):
    return RootLatticeElement(tuple(coords), len(coords))


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
        [(f, n) for f in "BCD" for n in range(4 if f == "D" else 2, 12)],
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

    def test_count_stability(self):
        for m in range(3, 9):
            assert len(beta_roots(LieSpec("B", m)).roots) == len(
                beta_roots(LieSpec("D", m + 1)).roots
            )

    def test_membership_in_positive_roots(self):
        for family in ("B", "C", "D"):
            for rank in range(4 if family == "D" else 2, 9):
                spec = LieSpec(family, rank)
                allowed = positive_roots(spec)
                roots = beta_roots(spec).roots
                assert len(set(roots)) == len(roots)
                for root in roots:
                    assert root in allowed

    def test_d5_weight_coordinates(self):
        spec = LieSpec("D", 5)
        bset = beta_roots(spec)
        weights = {
            label: weight_of_root_vector(spec, root.coords)
            for label, root in zip(bset.labels, bset.roots)
        }
        assert weights == {
            (1, 2): (0, 1, 0, 0, 0),
            (1, 3): (1, -1, 1, 0, 0),
            (2, 3): (-1, 0, 1, 0, 0),
        }

    def test_label_order_lexicographic(self):
        labels = beta_roots(LieSpec("C", 5)).labels
        assert list(labels) == sorted(labels)
        assert labels[0] == (1, 1)

    def test_serialization(self):
        payload = beta_roots(LieSpec("D", 5)).to_jsonable()
        assert payload["count"] == 3
        assert payload["roots"][0]["label"] == [1, 2]
        assert payload["roots"][0]["weight"] == [0, 1, 0, 0, 0]


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


class TestCommute:
    @pytest.mark.parametrize("family", ["B", "C", "D"])
    @pytest.mark.parametrize("rank", list(range(3, 9)))
    def test_zero_violations(self, family, rank):
        if family == "D" and rank < 4:
            pytest.skip("D starts at rank 4")
        report = commute_check(LieSpec(family, rank))
        assert report["ok"], report

    def test_report_fields(self):
        report = commute_check(LieSpec("C", 4))
        assert report["beta_count"] == 6
        assert report["pair_sum_violations"] == []
        assert report["pair_sum_minus_simple_violations"] == []
        assert report["lowering_violations"] == []
