from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lrwkit import lie
from lrwkit.lie import (
    MIN_RANK,
    LieSpec,
    cartan_matrix,
    couplings,
    integer_root_coords,
    root_coords_of_weight_vector,
    root_lengths,
    weight_of_root_vector,
)
from lrwkit.looproot import beta_roots


def solve_fractions(matrix, rhs):
    """Solve an invertible square system exactly by Gaussian elimination."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        tail = sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = (a[i][n] - tail) / a[i][i]
    return x


def root_coords_oracle(spec, weight):
    """Root coordinates by eliminating C^T b = w, with no closed form."""
    c = cartan_matrix(spec)
    n = spec.rank
    transpose = [[Fraction(c[i][k]) for i in range(n)] for k in range(n)]
    return tuple(solve_fractions(transpose, [Fraction(x) for x in weight]))


@st.composite
def weights(draw):
    family = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers(MIN_RANK[family], 12))
    weight = draw(st.lists(st.integers(-9, 9), min_size=rank, max_size=rank))
    return LieSpec(family, rank), tuple(weight)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(weights())
def test_closed_form_matches_elimination(case):
    spec, weight = case
    got = root_coords_of_weight_vector(spec, weight)
    want = root_coords_oracle(spec, weight)
    assert got == want
    assert all(type(x) is Fraction for x in got)
    c = cartan_matrix(spec)
    back = tuple(sum(got[i] * c[i][k] for i in range(spec.rank)) for k in range(spec.rank))
    assert back == weight
    integral = integer_root_coords(spec, weight)
    if any(x.denominator != 1 for x in want):
        assert integral is None
    else:
        assert integral == tuple(int(x) for x in want)


@pytest.mark.parametrize("family", "ABCD")
def test_fundamental_weights(family):
    # each fundamental weight, the column of C^-1 that carries the denominators
    for rank in range(MIN_RANK[family], 13):
        spec = LieSpec(family, rank)
        for k in range(rank):
            weight = tuple(int(i == k) for i in range(rank))
            assert root_coords_of_weight_vector(spec, weight) == root_coords_oracle(spec, weight)


def test_length_mismatch():
    with pytest.raises(ValueError):
        root_coords_of_weight_vector(LieSpec("B", 3), (1, 0))


def positive_root_vectors(spec):
    """Bourbaki's positive roots of B/C/D as orthogonal vectors, listed directly."""
    n = spec.rank
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    vectors = [
        tuple(a + sign * b for a, b in zip(unit[i], unit[j]))
        for i in range(n)
        for j in range(i + 1, n)
        for sign in (1, -1)
    ]
    if spec.family == "B":
        vectors += unit
    elif spec.family == "C":
        vectors += [tuple(2 * x for x in e) for e in unit]
    return vectors


@pytest.mark.parametrize("family", "BCD")
def test_orthogonal_round_trip(family):
    # the distinguished roots e_k + e_l (and C's 2e_l) are among the positive roots
    for rank in range(MIN_RANK[family], 13):
        spec = LieSpec(family, rank)
        for v in positive_root_vectors(spec):
            coords = lie._from_orthogonal(spec, list(v))
            assert all(x >= 0 for x in coords) and any(coords)
            assert tuple(lie._to_orthogonal(spec, coords)) == v
        for beta in beta_roots(spec).roots:
            v = lie._to_orthogonal(spec, beta.coords)
            assert lie._from_orthogonal(spec, v) == beta.coords


@settings(derandomize=True, deadline=None, max_examples=300)
@given(weights())
def test_weight_of_root_vector_matches_dense_sum(case):
    spec, x = case  # any integer vector, read here as root coordinates
    c = cartan_matrix(spec)
    n = spec.rank
    dense = tuple(sum(x[i] * c[i][k] for i in range(n)) for k in range(n))
    assert weight_of_root_vector(spec, x) == dense


@pytest.mark.parametrize("coords", [(1, 0), (1, 0, 0, 0)], ids=["short", "long"])
def test_weight_of_root_vector_length_mismatch(coords):
    with pytest.raises(ValueError, match="expected 3 root coordinates"):
        weight_of_root_vector(LieSpec("C", 3), coords)


@pytest.mark.parametrize("family", "ABCD")
def test_couplings_list_each_off_diagonal_entry_once(family):
    for rank in range(MIN_RANK[family], 13):
        spec = LieSpec(family, rank)
        c = cartan_matrix(spec)
        entries = [(k, j, a, b) for k, nbrs in enumerate(couplings(spec)) for j, a, b in nbrs]
        off_diagonal = {
            (k, j): -c[k][j] for k in range(rank) for j in range(rank) if j != k and c[k][j]
        }
        assert len(entries) == len(off_diagonal)
        assert {(k, j): a for k, j, a, _ in entries} == off_diagonal
        assert all(b == -c[j][k] for k, j, _, b in entries)


@pytest.mark.parametrize("family", "ABCD")
def test_root_lengths_symmetrize_the_cartan_matrix(family):
    for rank in range(MIN_RANK[family], 9):
        spec = LieSpec(family, rank)
        c, gamma = cartan_matrix(spec), root_lengths(spec)
        assert len(gamma) == rank and min(gamma) == 1
        assert all(
            c[i][j] * gamma[j] == c[j][i] * gamma[i] for i in range(rank) for j in range(rank)
        )
