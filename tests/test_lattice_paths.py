"""The per-trial path on lattice ints against its direct forms in oracles:
act (upper triangle mirrored, exact zeros skipped) against two full matrix
products, the int Newton polygon against the Fraction one, trop and
trop_radius against negval entry by entry, and chart_image on one int
lattice against the maximum over those negvals.  Inputs are drawn at
n = 2..5, exact and floored, with rows of exact zeros and masked entries.

The package encodes Bottom, the valuation of 0, as None; phi, trop and the
half-apartment stabilizer shape are checked against the oracles' Lam
order, where Bottom lies below every finite value, at n = 2..4."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lbldg import building as bd
from lbldg import symspace as sym
from lbldg.apartment import ApartmentVec, HalfApartment
from lbldg.errors import PrecisionError
from lbldg.harness.generators import gen_diagonal, gen_group_elem, gen_unipotent, trial_rng
from lbldg.rootsys import type_A
from lbldg.valfield import series as fs

_EXPONENT = oracles.fractions(-4, 4, 4)
_COEF = st.sampled_from((Q(1), Q(-1), Q(2), Q(-3, 2), Q(1, 3)))


@st.composite
def _series(draw, floored):
    """Exact zero, a sum of up to three monomials, or (when floored) such a
    sum cut by with_floor, which masks it when the floor is at or above its
    lead."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return fs.ZERO
    a = fs.ZERO
    for _ in range(draw(st.integers(1, 3))):
        a = fs.add(a, fs.monomial(draw(_EXPONENT), draw(_COEF)))
    if floored and kind == 5:
        a = fs.with_floor(a, draw(_EXPONENT))
    return a


def _outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return "ok", fn(*args)
    except (PrecisionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _matrix(draw, n, floored, symmetric=False):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            rows[i][j] = draw(_series(floored))
            if symmetric:
                rows[j][i] = rows[i][j]
    # a row of exact zeros: Bottom in every column
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, n - 1))
        rows[i] = [fs.ZERO] * n
        if symmetric:
            for row in rows:
                row[i] = fs.ZERO
    return rows


@st.composite
def _act_inputs(draw):
    n = draw(st.integers(2, 5))
    floored = draw(st.booleans())
    g = sym.GroupElem(draw(_matrix(n, floored)), validate=False)
    x = sym.SPDPoint(draw(_matrix(n, floored, symmetric=True)), validate=False)
    return g, x, floored


class TestAct:
    @given(_act_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_two_full_products(self, inputs):
        g, x, floored = inputs
        got, want = sym.act(g, x).entries, oracles.act(g, x).entries
        n = g.n
        assert all(got[i][j] == got[j][i] for i in range(n) for j in range(i))
        if floored:
            # a floor may differ across the diagonal in the two products;
            # the upper triangle is summed the same way
            assert all(got[i][j] == want[i][j] for i in range(n) for j in range(i, n))
        else:
            assert got == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_group_elements_on_apartment_points(self, n):
        rng = trial_rng(14, "act-lattice", n)
        rs = type_A(n - 1)
        for _ in range(10):
            g = gen_group_elem(rng, n)
            mu = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n - 1)]
            x = bd.x_mu(ApartmentVec.from_mu(rs, mu + [-sum(mu)]))
            assert sym.act(g, x) == oracles.act(g, x)


@st.composite
def _pencils(draw):
    """Coefficient tuples of length n + 1: exact zeros, visible series and
    masked coefficients (a floor and no visible term) anywhere."""
    n = draw(st.integers(2, 5))
    return tuple(draw(_series(floored=True)) for _ in range(n + 1))


class TestNewtonPolygon:
    @given(_pencils())
    @settings(max_examples=400, deadline=None)
    def test_same_value_or_same_precision_error(self, q):
        want = _outcome(oracles.pencil_valuations, q)
        assert _outcome(sym._pencil_valuations, q) == want

    @given(_act_inputs())
    @settings(max_examples=100, deadline=None)
    def test_cartan_valuations_of_drawn_points(self, inputs):
        _, x, _ = inputs
        y = sym.SPDPoint.basepoint(x.n)
        for a, b in ((x, y), (y, x), (x, x)):
            want = _outcome(lambda: oracles.pencil_valuations(sym.char_pencil(a, b)))
            assert _outcome(sym.cartan_valuations, a, b) == want

    def test_masked_coefficient_message(self):
        # the degree-1 coefficient is masked at 5, above the chord at 0
        q = (fs.ONE, fs.with_floor(fs.monomial(4), 5), fs.ONE)
        want = "coefficient of degree 1 masked above the Newton polygon"
        with pytest.raises(PrecisionError, match=want):
            sym._pencil_valuations(q)
        assert _outcome(oracles.pencil_valuations, q) == ("PrecisionError", want)


_MU = oracles.fractions(-3, 3, 6)


@st.composite
def _charts(draw):
    """A chart of size 2..5, from a generator family or drawn entry by
    entry, with some entries floored (maybe masked) or a row zeroed, and a
    mu with denominators up to 6."""
    n = draw(st.integers(2, 5))
    family = draw(st.sampled_from(("group", "diagonal", "unipotent", "entries")))
    floored = draw(st.booleans())
    if family == "entries":
        rows = draw(_matrix(n, floored))
    else:
        rng = trial_rng(draw(st.integers(0, 10**6)), "chart-lattice", n)
        make = {"group": gen_group_elem, "diagonal": gen_diagonal, "unipotent": gen_unipotent}
        rows = [list(row) for row in make[family](rng, n).entries]
        if floored:
            for _ in range(draw(st.integers(1, 3))):
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                rows[i][j] = fs.with_floor(rows[i][j], draw(_EXPONENT))
        if draw(st.integers(0, 5)) == 0:
            rows[draw(st.integers(0, n - 1))] = [fs.ZERO] * n
    mu = [draw(_MU) for _ in range(n - 1)]
    vec = ApartmentVec.from_mu(type_A(n - 1), mu + [-sum(mu)])
    return sym.GroupElem(rows, validate=False), vec


class TestTrop:
    @given(_charts())
    @settings(max_examples=400, deadline=None)
    def test_entrywise_negval_on_one_lattice(self, chart):
        g, _ = chart
        # valuations in row-major order: the first masked entry raises,
        # named by its row and column
        want = _outcome(lambda: [[t.v for t in row] for row in oracles.valuations(g)])
        got = _outcome(bd.trop, g)
        if want[0] != "ok":
            assert got == want
            assert _outcome(bd.trop_radius, g) == want
            return
        assert got[0] == "ok"
        L, S = got[1]
        assert type(L) is int and L > 0
        assert all(v is None or type(v) is int for row in S for v in row)
        assert S == [[None if v is None else v * L for v in row] for row in want[1]]
        finite = [abs(v) for row in want[1] for v in row if v is not None]
        assert bd.trop_radius(g) == max(finite, default=0)


class TestChartImage:
    @given(_charts())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_trop_maximum(self, chart):
        g, mu = chart
        assert _outcome(bd.chart_image, g, mu) == _outcome(oracles.chart_image, g, mu)

    def test_points_inside_are_found(self):
        # diagonal charts hold every point, so the lattice path returns it
        for n in (2, 3, 4, 5):
            rng = trial_rng(14, "chart-inside", n)
            rs = type_A(n - 1)
            for _ in range(10):
                g = gen_diagonal(rng, n)
                mu = [Q(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n - 1)]
                vec = ApartmentVec.from_mu(rs, mu + [-sum(mu)])
                got = bd.chart_image(g, vec)
                assert got is not None and got == oracles.chart_image(g, vec)

    def test_first_masked_entry_in_row_major_order_is_reported(self):
        rows = [[fs.ONE, fs.ZERO], [fs.ZERO, fs.ONE]]
        rows[0][1] = fs.with_floor(fs.ZERO, 1)
        rows[1][0] = fs.with_floor(fs.ZERO, 2)
        g = sym.GroupElem(rows, validate=False)
        mu = ApartmentVec.from_mu(type_A(1), [0, 0])
        with pytest.raises(PrecisionError, match="^row 1, column 2: negval masked by floor 1$"):
            bd.chart_image(g, mu)
        # a row of exact zeros does not hide a masked entry further on
        rows[0] = [fs.ZERO, fs.ZERO]
        g = sym.GroupElem(rows, validate=False)
        with pytest.raises(PrecisionError, match="^row 2, column 1: negval masked by floor 2$"):
            bd.chart_image(g, mu)


@given(st.lists(oracles.fractions(-5, 5, 6), min_size=1, max_size=4))
def test_x_mu_entries_are_the_monomials(mu):
    mu = mu + [-sum(mu)]
    n = len(mu)
    x = bd.x_mu(ApartmentVec.from_mu(type_A(n - 1), mu))
    assert x.entries == tuple(
        tuple(fs.monomial(2 * mu[i]) if i == j else fs.ZERO for j in range(n)) for i in range(n)
    )


@st.composite
def _half_apartment_cases(draw):
    """A matrix of size 2..4, a root (i, j) and a threshold.  Half of the
    matrices are drawn entry by entry; the other half have the stabilizer's
    shape (identity diagonal, exact zeros) around a drawn wall entry g_ij,
    sometimes with one more drawn entry anywhere.  Every drawn entry is
    exact, floored, exactly zero or masked."""
    n = draw(st.integers(2, 4))
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    if draw(st.booleans()):
        rows = draw(_matrix(n, floored=True))
    else:
        rows = [[fs.ONE if a == b else fs.ZERO for b in range(n)] for a in range(n)]
        rows[i - 1][j - 1] = draw(_series(floored=True))
        if draw(st.integers(0, 3)) == 0:
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
                _series(floored=True)
            )
    return sym.GroupElem(rows, validate=False), (i, j), draw(_EXPONENT)


class TestBottomOrder:
    @given(_half_apartment_cases())
    @settings(max_examples=300, deadline=None)
    def test_phi_trop_and_half_apartment_shape(self, case):
        g, (i, j), ell = case
        s = g.entries[i - 1][j - 1]
        # phi: the Fraction or None, read as a Lam, or the same error
        kind, value = _outcome(bd.phi, bd.RootElem(g.n, i, j, s))
        got = (kind, oracles.Lam(value)) if kind == "ok" else (kind, value)
        assert got == _outcome(oracles.valuation, s)
        # trop: S_ij / L, None read as Bottom, or the first masked entry's error
        want = _outcome(lambda: [t for row in oracles.valuations(g) for t in row])
        got = _outcome(bd.trop, g)
        if got[0] == "ok":
            L, S = got[1]
            got = ("ok", [oracles.Lam(None if v is None else Q(v, L)) for row in S for v in row])
        assert got == want
        # the half-apartment stabilizer's shape, decided in Lam's order
        assert _outcome(bd.stab_half_apartment, g, HalfApartment((i, j), ell)) == _outcome(
            oracles.half_apartment_shape, g, (i, j), ell
        )
