"""Symmetric space: action, Cartan valuations, pseudo-distance, retraction."""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lbldg import symspace as sym
from lbldg.errors import PrecisionError
from lbldg.harness.generators import (
    gen_diagonal,
    gen_group_elem,
    gen_orthogonal,
    gen_point,
    trial_rng,
)
from lbldg.valfield import series as fs
from oracles import fractions


def _g(rows):
    return sym.GroupElem([[fs.parse(v) for v in row] for row in rows])


def _x(rows):
    return sym.SPDPoint([[fs.parse(v) for v in row] for row in rows])


def _diag_point(*exps):
    n = len(exps)
    return sym.SPDPoint(
        [
            [fs.monomial(Q(e)) if i == j else fs.ZERO for j, e in enumerate(exps)]
            for i in range(n)
        ],
        validate=False,
    )


class TestTypes:
    def test_group_det_check(self):
        _g([["1", "t"], ["0", "1"]])
        with pytest.raises(ValueError):
            _g([["t", "0"], ["0", "t"]])

    def test_point_invariants(self):
        _x([["1 + t^2", "t"], ["t", "1"]])
        with pytest.raises(ValueError):
            _x([["1", "t"], ["0", "1"]])  # not symmetric
        with pytest.raises(ValueError):
            _x([["-1", "0"], ["0", "-1"]])  # not positive definite
        with pytest.raises(ValueError):
            _x([["2", "0"], ["0", "1"]])  # det 2

    def test_masked_determinant_is_not_one(self):
        # det = 1 + O(t^(1)): no visible term confirms the t^0 coefficient
        with pytest.raises(PrecisionError):
            _g([["1 + O(t^(1))", "0"], ["0", "1"]])
        with pytest.raises(PrecisionError):
            _x([["1 + O(t^(0))", "0"], ["0", "1"]])

    def test_determinant_floored_below_t0_passes(self):
        # wall reflections with an inverted non-monomial entry look like this
        _g([["1 + O(t^(-1))", "0"], ["0", "1"]])
        _x([["1 + O(t^(-1/2))", "0"], ["0", "1"]])

    def test_inverse(self):
        rng = trial_rng(5, "inv", 0)
        for n in (2, 3, 4):
            for _ in range(5):
                g = gen_group_elem(rng, n)
                assert g @ g.inverse() == sym.GroupElem.identity(n)

    @pytest.mark.parametrize("n, m", [(3, 2), (2, 3)])
    def test_product_sizes_must_agree(self, n, m):
        g, h = sym.GroupElem.identity(n), sym.GroupElem.identity(m)
        with pytest.raises(ValueError, match=f"a {n} x {n} element by a {m} x {m} element"):
            g @ h

    def test_json_round_trip(self):
        g = _g([["1", "t^(1/2)"], ["0", "1"]])
        data = sym.matrix_to_json(g)
        assert data == [["1", "t^(1/2)"], ["0", "1"]]
        assert sym.group_from_json(data) == g

    @pytest.mark.parametrize("cls", [sym.GroupElem, sym.SPDPoint])
    @pytest.mark.parametrize("entry", ["1", 1, Q(1), 1.0], ids=["str", "int", "Fraction", "float"])
    def test_entries_are_series_only(self, cls, entry):
        """Text enters through the JSON readers or fs.parse, and rationals
        through fs.from_rational; a matrix takes no other entry type."""
        rows = [[entry, fs.ZERO], [fs.ZERO, fs.ONE]]
        msg = f"cannot use {type(entry).__name__} as a matrix entry"
        for validate in (True, False):
            with pytest.raises(TypeError, match=msg):
                cls(rows, validate=validate)

    @pytest.mark.parametrize("reader", [sym.point_from_json, sym.group_from_json])
    @pytest.mark.parametrize(
        "rows",
        [
            [["1", "0", "0"], ["0", "1", "0"]],  # wide
            [["1", "0"], ["0"]],  # ragged
            [["1", "0"], ["0", "1"], ["0", "0"]],  # tall
            [],  # empty
        ],
        ids=["wide", "ragged", "tall", "empty"],
    )
    def test_json_readers_reject_non_square(self, reader, rows):
        for validate in (True, False):
            with pytest.raises(ValueError, match="square"):
                reader(rows, validate=validate)

    @pytest.mark.parametrize("reader", [sym.point_from_json, sym.group_from_json])
    @pytest.mark.parametrize(
        "data",
        [["10", "01"], {"1": "x"}, [[1, 0], [0, 1]], [["1", 0], ["0", "1"]], "1", None],
        ids=["string-rows", "object", "numbers", "mixed", "string", "null"],
    )
    def test_json_readers_reject_non_string_rows(self, reader, data):
        for validate in (True, False):
            with pytest.raises(ValueError, match="list of rows, each a list of series strings"):
                reader(data, validate=validate)


class TestAct:
    def test_spec_examples(self):
        x = _x([["1 + t^2", "t"], ["t", "1"]])
        ident = sym.SPDPoint.basepoint(2)
        assert sym.act(sym.GroupElem.identity(2), x) == x
        a = _g([["t", "0"], ["0", "t^(-1)"]])
        assert sym.act(a, ident) == _diag_point(2, -2)
        u = _g([["1", "t"], ["0", "1"]])
        assert sym.act(u, ident) == x

    @pytest.mark.parametrize("gn, xn", [(2, 3), (3, 2)])
    def test_sizes_must_agree(self, gn, xn):
        g, x = sym.GroupElem.identity(gn), sym.SPDPoint.basepoint(xn)
        with pytest.raises(ValueError, match=f"{gn} x {gn} element on a {xn} x {xn} point"):
            sym.act(g, x)

    def test_action_law(self):
        rng = trial_rng(5, "actlaw", 1)
        for _ in range(10):
            g, h = gen_group_elem(rng, 3), gen_group_elem(rng, 3)
            x = gen_point(rng, 3)
            assert sym.act(g @ h, x) == sym.act(g, sym.act(h, x))

    def test_operands_of_the_wrong_type_are_refused(self):
        g, o = sym.GroupElem.identity(2), sym.SPDPoint.basepoint(2)
        for other in (o, 3):
            with pytest.raises(TypeError, match="unsupported operand"):
                g @ other
        for args in ((g, g), (o, o), (o, g)):
            with pytest.raises(TypeError, match="cannot act by a"):
                sym.act(*args)


class TestCartanValuations:
    def test_spec_examples(self):
        ident = sym.SPDPoint.basepoint(2)
        assert sym.cartan_valuations(ident, ident) == (Q(0), Q(0))
        y = _diag_point(2, -2)
        assert list(sym.cartan_valuations(ident, y)) == [1, -1]
        y2 = _x([["1 + t^2", "t"], ["t", "1"]])
        assert list(sym.cartan_valuations(ident, y2)) == [1, -1]

    def test_sorted_and_sum_zero(self):
        rng = trial_rng(5, "cart", 2)
        for _ in range(30):
            x, y = gen_point(rng, 3), gen_point(rng, 3)
            mu = list(sym.cartan_valuations(x, y))
            assert mu == sorted(mu, reverse=True)
            assert sum(mu) == 0

    def test_pencil_evaluates_to_the_determinant(self):
        rng = trial_rng(5, "pencil", 0)
        for _ in range(10):
            x, y = gen_point(rng, 3), gen_point(rng, 3)
            q = sym.char_pencil(x, y)
            for lam in (0, 1, 2):
                c = fs.from_rational(lam)
                at = fs.ZERO
                for k, coef in enumerate(q):
                    at = fs.add(at, fs.mul(fs.from_rational(lam**k), coef))
                pencil = tuple(
                    tuple(fs.sub(fs.mul(c, xe), ye) for xe, ye in zip(xr, yr))
                    for xr, yr in zip(x.entries, y.entries)
                )
                assert at == sym.mat_det(pencil)

    def test_newton_oracle_orthogonal_conjugation(self):
        # conjugating a diagonal point by a valuation-0 matrix preserves the
        # eigen-negval list, so the polygon must recover the diagonal exactly
        rng = trial_rng(5, "newton", 3)
        ident = sym.SPDPoint.basepoint(3)
        for _ in range(25):
            mu = sorted(
                (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))), reverse=True
            )
            mu = [mu[0], mu[1], -mu[0] - mu[1]]
            mu.sort(reverse=True)
            d = _diag_point(*[2 * m for m in mu])
            k = gen_orthogonal(rng, 3)
            got = list(sym.cartan_valuations(ident, sym.act(k, d)))
            assert got == mu

    def test_weyl_orbit_relation(self):
        rng = trial_rng(5, "orbit", 4)
        for _ in range(20):
            x, y = gen_point(rng, 2), gen_point(rng, 2)
            ab = list(sym.cartan_valuations(x, y))
            ba = list(sym.cartan_valuations(y, x))
            assert ba == [-v for v in reversed(ab)]

    def test_masked_coefficient_raises(self):
        # the (2,2) entry is unknown up to t^3: the trace coefficient is
        # masked strictly above the hull of the known points, so the
        # eigen-negvals are genuinely undeterminable
        ident = sym.SPDPoint.basepoint(2)
        bad = sym.SPDPoint(
            [
                [fs.ZERO, fs.ONE],
                [fs.ONE, fs.parse("0 + O(t^(3))")],
            ],
            validate=False,
        )
        with pytest.raises(PrecisionError):
            sym.cartan_valuations(ident, bad)

    def test_fully_masked_pencil_raises(self):
        # both points cut above every exponent: no coefficient is visible
        rng = trial_rng(7, "masked", 0)
        x, y = (
            sym.SPDPoint(
                [[fs.with_floor(e, 99) for e in row] for row in gen_point(rng, 3).entries],
                validate=False,
            )
            for _ in range(2)
        )
        with pytest.raises(PrecisionError):
            sym.cartan_valuations(x, y)
        with pytest.raises(PrecisionError):
            sym.distance(x, y)

    def test_benign_floor_is_tolerated(self):
        # a floor far below the hull leaves every slope determinable
        ident = sym.SPDPoint.basepoint(2)
        y = sym.SPDPoint(
            [
                [fs.parse("t^2 + O(t^(-9))"), fs.ZERO],
                [fs.ZERO, fs.parse("t^(-2)")],
            ],
            validate=False,
        )
        got = list(sym.cartan_valuations(ident, y))
        assert got == [1, -1]


_MAYBE_FLOOR = st.one_of(st.none(), fractions(-9, 6, 6))


@st.composite
def _cut_pairs(draw):
    """Two exact points of size 2 or 3, each with a copy whose entries are cut
    by with_floor (symmetric positions share a floor)."""
    n = draw(st.sampled_from((2, 3)))
    rng = trial_rng(draw(st.integers(0, 10**6)), "floors", 0)
    out = []
    for x in (gen_point(rng, n), gen_point(rng, n)):
        cut = [list(row) for row in x.entries]
        for i in range(n):
            for j in range(i, n):
                f = draw(_MAYBE_FLOOR)
                if f is not None:
                    cut[i][j] = fs.with_floor(cut[i][j], f)
                    cut[j][i] = fs.with_floor(cut[j][i], f)
        out.append((x, sym.SPDPoint(cut, validate=False)))
    return out


_MONOMIALS = st.builds(fs.monomial, fractions(-3, 3, 2), st.sampled_from((-2, -1, 1, 2)))
_LEADS = fractions(1, 8, 2)


@st.composite
def _masked_vertex_pairs(draw):
    """An exact point x and a symmetric y of size 2 or 3, exact and cut.

    y's first row is zero except its last entry, so the expansion of
    det(y) never multiplies y's last diagonal entry by anything but an
    exact zero; cutting that entry at or above its leading exponent masks
    pencil coefficients that contain it, while both endpoint coefficients,
    det(x) and det(-y), stay exact.  Only pairs where a masked coefficient
    is an interior vertex of the exact Newton polygon are kept."""
    n = draw(st.sampled_from((2, 3)))
    x = gen_point(trial_rng(draw(st.integers(0, 10**6)), "masked-vertex", 0), n)
    y = [[fs.ZERO] * n for _ in range(n)]
    y[0][n - 1] = y[n - 1][0] = draw(_MONOMIALS)
    for i in range(1, n):
        for j in range(i, n):
            y[i][j] = y[j][i] = draw(_MONOMIALS)
    lead = draw(_LEADS)
    y[n - 1][n - 1] = fs.add(fs.monomial(lead), draw(_MONOMIALS))
    cut = [list(row) for row in y]
    cut[n - 1][n - 1] = fs.with_floor(y[n - 1][n - 1], lead + draw(st.sampled_from((0, 1, 3))))
    y, cut = (sym.SPDPoint(m, validate=False) for m in (y, cut))
    q = sym.char_pencil(x, cut)
    hull = sym._upper_concave_hull(
        [(Q(k), fs.negval(c)) for k, c in enumerate(reversed(sym.char_pencil(x, y))) if c.pairs]
    )
    assert q[0].pairs and q[n].pairs
    assume(any(not q[n - int(k)].pairs for k, _ in hull[1:-1]))
    return x, y, cut


class TestMatrixFloorSoundness:
    """Floored matrix operations against exact arithmetic on the same points."""

    @given(_cut_pairs())
    @settings(max_examples=200, deadline=None)
    def test_det_agrees_above_its_floor(self, pairs):
        for x, cut in pairs:
            got, exact = sym.mat_det(cut.entries), sym.mat_det(x.entries)
            if got.floor is None:
                assert got == exact
            else:
                assert got.terms == tuple(t for t in exact.terms if t[0] > got.floor)

    @given(_masked_vertex_pairs())
    @settings(max_examples=100, deadline=None)
    def test_masked_interior_vertex_exact_or_precision_error(self, triple):
        x, y, cut = triple
        try:
            got = sym.cartan_valuations(x, cut)
        except PrecisionError:
            return
        assert got == sym.cartan_valuations(x, y)

    @given(_cut_pairs())
    @settings(max_examples=200, deadline=None)
    def test_cartan_valuations_exact_or_precision_error(self, pairs):
        (x, cut_x), (y, cut_y) = pairs
        try:
            got = sym.cartan_valuations(cut_x, cut_y)
        except PrecisionError:
            return
        assert got == sym.cartan_valuations(x, y)


class TestDistance:
    def test_spec_examples(self):
        ident = sym.SPDPoint.basepoint(2)
        assert sym.distance(ident, ident) == 0
        y = _x([["1 + t^2", "t"], ["t", "1"]])
        assert sym.distance(ident, y) == 4

    def test_value_is_a_fraction(self):
        """Lambda = Q: a distance is a Fraction, and its finite_value, which
        the benchmark workloads read, is the same value with the same text."""
        rng = trial_rng(5, "fraction", 0)
        x, y = gen_point(rng, 3), gen_point(rng, 3)
        d = sym.distance(x, y)
        assert isinstance(d, Q) and d > 0
        assert d.finite_value == d and str(d.finite_value) == str(d)
        assert sym.distance(x, x) == 0

    @pytest.mark.parametrize(
        "det, error, msg",
        [
            # no floor is involved, so the point is singular
            (fs.ZERO, ValueError, "an end coefficient of the pencil is zero, so a point is singular"),
            # a floor and no visible term: more precision could decide it
            (fs.with_floor(fs.monomial(4), 5), PrecisionError, "masked above the Newton polygon"),
        ],
        ids=["zero", "masked"],
    )
    def test_determinant_without_a_visible_term(self, det, error, msg):
        x = sym.SPDPoint([[fs.ONE, fs.ZERO], [fs.ZERO, det]], validate=False)
        o = sym.SPDPoint.basepoint(2)
        for a, b in ((x, o), (o, x)):
            with pytest.raises(error, match=msg):
                sym.distance(a, b)

    @pytest.mark.parametrize("xn, yn", [(2, 3), (3, 2)])
    def test_sizes_must_agree(self, xn, yn):
        x, y = sym.SPDPoint.basepoint(xn), sym.SPDPoint.basepoint(yn)
        msg = f"one size, got {xn} x {xn} and {yn} x {yn}"
        for fn in (sym.distance, sym.cartan_valuations, sym.char_pencil):
            with pytest.raises(ValueError, match=msg):
                fn(x, y)

    def test_g_invariance_100(self):
        rng = trial_rng(5, "ginv", 6)
        for _ in range(100):
            n = rng.choice([2, 3])
            g = gen_group_elem(rng, n)
            x, y = gen_point(rng, n), gen_point(rng, n)
            assert sym.distance(sym.act(g, x), sym.act(g, y)) == sym.distance(x, y)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_the_pairwise_sum(self, n):
        rng = trial_rng(5, "pairwise", n)
        for _ in range(8):
            x, y = gen_point(rng, n), gen_point(rng, n)
            mu = list(sym.cartan_valuations(x, y))
            pairwise = sum(abs(a - b) for a in mu for b in mu)
            assert sym.distance(x, y) == pairwise

    def test_pseudo_distance_axioms_sampled(self):
        rng = trial_rng(5, "axioms", 7)
        for _ in range(60):
            x, y, z = (gen_point(rng, 3) for _ in range(3))
            dxy, dyx = sym.distance(x, y), sym.distance(y, x)
            assert dxy == dyx
            assert not dxy < 0
            dxz, dyz = sym.distance(x, z), sym.distance(y, z)
            assert not dxz > dxy + dyz

    def test_equivalent(self):
        ident = sym.SPDPoint.basepoint(2)
        u = fs.parse("1 + t^(-1)")
        uinv = fs.inv(u, Q(-12))
        # build an exact det-1 diagonal with unit entries via the adjugate trick
        y = sym.SPDPoint([[u, fs.ZERO], [fs.ZERO, uinv]], validate=False)
        assert sym.distance(ident, _diag_point(0, 0)) == 0
        assert sym.distance(ident, _diag_point(2, -2)) != 0
        assert all(v == 0 for v in sym.cartan_valuations(ident, y))


class TestRetract:
    def test_spec_examples(self):
        assert list(sym.retract(_diag_point(2, -2)).to_mu()) == [Q(1), Q(-1)]
        x = _x([["1 + t^2", "t"], ["t", "1"]])
        assert list(sym.retract(x).to_mu()) == [Q(0), Q(0)]

    def test_fixes_apartment_points(self):
        rng = trial_rng(5, "fix", 8)
        for _ in range(20):
            a = gen_diagonal(rng, 3)
            x = sym.act(a, sym.SPDPoint.basepoint(3))
            mu = list(sym.retract(x).to_mu())
            want = [fs.negval(a.entries[i][i]) for i in range(3)]
            assert mu == want

    def test_a_equivariance(self):
        rng = trial_rng(5, "equiv", 9)
        for _ in range(30):
            a = gen_diagonal(rng, 3)
            x = gen_point(rng, 3)
            shift = [fs.negval(a.entries[i][i]) for i in range(3)]
            lhs = list(sym.retract(sym.act(a, x)).to_mu())
            rhs = [m + s for m, s in zip(sym.retract(x).to_mu(), shift)]
            assert lhs == rhs

    def test_determinant_not_a_unit(self):
        # an unvalidated point of determinant t: its mu would sum to 1/2
        x = sym.SPDPoint([[fs.monomial(1), fs.ZERO], [fs.ZERO, fs.ONE]], validate=False)
        msg = "the determinant is not a unit, so the point does not have determinant 1"
        with pytest.raises(ValueError, match=msg):
            sym.retract(x)

    def test_exactly_zero_trailing_minor(self):
        # an unvalidated point whose last diagonal entry is an exact zero
        x = sym.SPDPoint([[fs.ONE, fs.ZERO], [fs.ZERO, fs.ZERO]], validate=False)
        msg = "a trailing principal minor is zero, so the point is not positive definite"
        with pytest.raises(ValueError, match=msg):
            sym.retract(x)

    def test_distance_diminishing_200(self):
        rng = trial_rng(5, "dimin", 10)
        for _ in range(200):
            x, y = gen_point(rng, 3), gen_point(rng, 3)
            rx, ry = sym.retract(x), sym.retract(y)
            # apartment distance between retractions, in symspace normalization:
            # twice the sum of |d_i - d_j| over i < j, d the difference of mu
            d = [a - b for a, b in zip(rx.to_mu(), ry.to_mu())]
            dr = 2 * sum(abs(a - b) for k, a in enumerate(d) for b in d[k + 1 :])
            assert dr <= sym.distance(x, y)


def test_distance_matches_apartment_dist_on_monomials():
    # the factor-two dictionary between the two distance normalizations:
    # the apartment distance is the sum of |d_i - d_j| over i < j
    ident = sym.SPDPoint.basepoint(2)
    y = _diag_point(2, -2)
    d = [a - b for a, b in zip(sym.retract(y).to_mu(), sym.retract(ident).to_mu())]
    assert sym.distance(ident, y) == 2 * abs(d[0] - d[1])
