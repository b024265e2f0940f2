"""Exact linear algebra: the fraction-free Gauss-Jordan inverse (int rows,
exact division by the previous pivot) against the Fraction Gauss-Jordan
oracle, and the oracle's own solver."""

from fractions import Fraction as Q
from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from lbldg.linalg import mat_inv
from oracles import identity, mat_mul, solve_combo

_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _matrices(draw):
    """Square matrices up to 4x4; about half are made singular by turning
    the last row into a rational multiple of the first (zero when n = 1)."""
    n = draw(st.integers(1, 4))
    m = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        c = draw(_ENTRIES)
        m[-1] = [c * x for x in m[0]] if n > 1 else [Q(0)]
    return m


def _leibniz(m):
    n = len(m)
    total = Q(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = Q(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= m[i][p[i]]
        total += term
    return total


@given(_matrices())
def test_inverse_or_singular(m):
    if _leibniz(m) == 0:
        with pytest.raises(ValueError):
            mat_inv(m)
    else:
        assert mat_mul(mat_inv(m), m) == identity(len(m))


@st.composite
def _sixths(draw):
    """Square matrices up to 5x5 with denominators up to 6; about a third
    get a last row that is a combination of two earlier ones."""
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 2 and draw(st.integers(0, 2)) == 0:
        a, b = draw(entry), draw(entry)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


@given(_sixths())
def test_inverse_matches_the_fraction_oracle(m):
    try:
        want = oracles.mat_inv(m)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            mat_inv(m)
    else:
        got = mat_inv(m)
        assert got == want
        assert all(type(v) is Q for row in got for v in row)


@st.composite
def _int_matrices(draw):
    """Square int matrices up to 5x5 with about half their entries zero, so
    that pivots often need a row swap; about a third get a last row that is
    an int combination of two earlier ones (n > 2) or zero."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 2)) == 0:
        if n > 2:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
        else:
            m[-1] = [0] * n
    return m


@given(_int_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 2], [0, 3, 0], [5, 0, 0]])
@example([[1, 2], [2, 4]])
@example([[0]])
def test_int_rows_match_fraction_rows(m):
    # gen_orthogonal hands mat_inv int rows; they read as the same Fractions
    try:
        want = mat_inv([[Q(x) for x in row] for row in m])
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            mat_inv(m)
    else:
        got = mat_inv(m)
        assert got == want
        assert all(type(v) is Q for row in got for v in row)


def test_rows_with_denominators():
    # rows scaled to ints by 6 and 12: the second is twice the first
    with pytest.raises(ValueError, match="singular matrix"):
        mat_inv([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 6)]])
    assert mat_inv([[2, 3], [4, 5]]) == [[Q(-5, 2), Q(3, 2)], [2, -1]]
    assert mat_inv([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 5)]]) == [[12, -20], [-15, 30]]


def test_inverse_needs_row_swaps():
    assert mat_inv([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert mat_inv([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == [
        [0, 0, Q(1, 5)],
        [0, Q(1, 3), 0],
        [Q(1, 2), 0, 0],
    ]


def _combine(basis, lam):
    return [sum(l * b[r] for l, b in zip(lam, basis)) for r in range(len(basis[0]))]


class TestSolveCombo:
    def test_vector_in_the_span(self):
        basis = [[Q(0), Q(1), Q(1)], [Q(2), Q(0), Q(1)]]
        v = _combine(basis, [Q(3), Q(-1, 2)])
        assert solve_combo(basis, v) == [Q(3), Q(-1, 2)]

    def test_dependent_basis_gives_a_valid_combination(self):
        basis = [[Q(1), Q(0), Q(0)], [Q(2), Q(0), Q(0)], [Q(0), Q(1), Q(0)]]
        v = [Q(3), Q(5), Q(0)]
        lam = solve_combo(basis, v)
        assert lam == [Q(3), Q(0), Q(5)]
        assert _combine(basis, lam) == v

    def test_inconsistent_system_is_none(self):
        basis = [[Q(1), Q(0), Q(1)], [Q(0), Q(1), Q(1)]]
        assert solve_combo(basis, [Q(1), Q(1), Q(3)]) is None
        assert solve_combo([], [Q(1)]) is None
