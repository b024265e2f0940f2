"""Valued-field layer: series arithmetic, valuation, parsing, value group."""

import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbldg.errors import (
    DigitLimit,
    DuplicateExponent,
    NegativeInput,
    NotASquare,
    NotInRing,
    PrecisionError,
    SeriesSyntaxError,
)
from lbldg.valfield import series as vf
from lbldg.valfield._backend import kernel_add, kernel_dot, kernel_mul
from oracles import parse_series, random_terms, series_from_terms, series_str, series_texts

# the distinguished element t
T = vf.monomial(1)


def _rand_exact(rng, max_terms=4):
    n = rng.randint(0, max_terms)
    pairs = []
    for _ in range(n):
        e = Q(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        c = Q(rng.randint(-9, 9), rng.randint(1, 5))
        pairs.append((e, c))
    return series_from_terms(pairs)


def _rand_nonzero(rng):
    while True:
        x = _rand_exact(rng)
        if not x.is_zero:
            return x


# Mixed lattices: exponent denominators 1-6.
_EXPS = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_COEFS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_TERMS = st.lists(st.tuples(_EXPS, _COEFS), max_size=5)
_FLOORS = st.fractions(min_value=-9, max_value=6, max_denominator=6)


def _naive_terms(acc):
    """An {exponent: coefficient} dict as a descending terms tuple."""
    return tuple(sorted(((e, c) for e, c in acc.items() if c), reverse=True))


def _assert_canonical(x):
    """e and d are minimal and the pairs are sorted, distinct and nonzero."""
    ks = [k for k, _ in x.pairs]
    ns = [n for _, n in x.pairs]
    assert ks == sorted(set(ks), reverse=True)
    assert all(ns)
    assert x.d > 0 and math.gcd(x.d, *ns) == 1
    assert x.e > 0 and math.gcd(x.e, *ks) == 1
    assert x.e == math.lcm(*(e.denominator for e, _ in x.terms))
    if x.floor is not None:
        assert all(e > x.floor for e, _ in x.terms)


# --- parse / print -----------------------------------------------------------


class TestParsePrint:
    def test_spec_encodings(self):
        x = vf.parse("3/2*t^(1/2) + 1")
        assert x.terms == ((Q(1, 2), Q(3, 2)), (Q(0), Q(1)))
        assert x.floor is None
        y = vf.parse("t^2 - t^(-1) + O(t^(-5))")
        assert y.terms == ((Q(2), Q(1)), (Q(-1), Q(-1)))
        assert y.floor == Q(-5)
        z = vf.parse("0")
        assert z.terms == () and z.floor is None

    def test_grammar_variants(self):
        assert vf.parse("t") == T
        assert vf.parse("t^3") == vf.monomial(3)
        assert vf.parse("t^-2") == vf.monomial(-2)
        assert vf.parse("  -5/3 * t ^ ( 7/2 ) ") == vf.monomial(Q(7, 2), Q(-5, 3))
        assert vf.parse("2 - t") == vf.sub(vf.from_rational(2), T)

    def test_syntax_errors_carry_offsets(self):
        with pytest.raises(SeriesSyntaxError) as ei:
            vf.parse("t^2 + + 3")
        assert isinstance(ei.value.offset, int)
        with pytest.raises(SeriesSyntaxError):
            vf.parse("1/0")
        with pytest.raises(SeriesSyntaxError):
            vf.parse("t + O(t^(0)) + 1")
        with pytest.raises(DuplicateExponent):
            vf.parse("t^2 + 3*t^2")

    @pytest.mark.parametrize(
        "text, offset",
        [("\u00b2", 0), ("t^(1/\u00b2)", 5), ("7" * 5000, 0), ("t + 3/" + "1" * 4301, 6)],
        ids=["superscript", "superscript-denominator", "long-literal", "long-denominator"],
    )
    def test_digits_int_cannot_read_are_syntax_errors(self, text, offset):
        """A superscript is no digit, and a literal past int()'s digit limit
        is refused at its offset, not by int()'s own ValueError."""
        with pytest.raises(SeriesSyntaxError) as ei:
            vf.parse(text)
        assert ei.value.offset == offset

    @pytest.mark.parametrize(
        "text, error, message, offset",
        [
            ("", SeriesSyntaxError, "expected an integer", 0),
            ("-", SeriesSyntaxError, "expected an integer", 1),
            ("3/", SeriesSyntaxError, "expected an integer", 2),
            ("3*t^", SeriesSyntaxError, "expected an integer", 4),
            ("3*t^(", SeriesSyntaxError, "expected an integer", 5),
            ("t^(1/", SeriesSyntaxError, "expected an integer", 5),
            ("3/ 0", SeriesSyntaxError, "denominator must be positive", 2),
            ("t^(1/-2)", SeriesSyntaxError, "denominator must be positive", 5),
            ("3 *", SeriesSyntaxError, "expected 't'", 3),
            ("t^(1", SeriesSyntaxError, "expected ')'", 4),
            ("t 1", SeriesSyntaxError, "expected '+' or '-'", 2),
            ("3t", SeriesSyntaxError, "expected '+' or '-'", 1),
            ("t + O(", SeriesSyntaxError, "expected 't^('", 6),
            ("t + O(t^(", SeriesSyntaxError, "expected an integer", 9),
            ("t + O(t^(1/", SeriesSyntaxError, "expected an integer", 11),
            ("t + O(t^(1/0))", SeriesSyntaxError, "denominator must be positive", 11),
            ("t + O(t^(1", SeriesSyntaxError, "expected ')'", 10),
            ("t + O(t^(1)", SeriesSyntaxError, "expected ')'", 11),
            ("t + O(t^(1)) x", SeriesSyntaxError, "text after O(...) tail", 13),
            ("BIG", SeriesSyntaxError, "integer has too many digits", 0),
            ("1/BIG", SeriesSyntaxError, "integer has too many digits", 2),
            ("t^(BIG)", SeriesSyntaxError, "integer has too many digits", 3),
            ("t^(1/BIG)", SeriesSyntaxError, "integer has too many digits", 5),
            ("t^BIG", SeriesSyntaxError, "integer has too many digits", 2),
            ("t + O(t^(BIG))", SeriesSyntaxError, "integer has too many digits", 9),
            ("t + O(t^(1/BIG))", SeriesSyntaxError, "integer has too many digits", 11),
            ("t + t", DuplicateExponent, "exponent 1 appears twice", 4),
            ("t - t", DuplicateExponent, "exponent 1 appears twice", 4),
            ("1 - 2", DuplicateExponent, "exponent 0 appears twice", 4),
            ("t +  t", DuplicateExponent, "exponent 1 appears twice", 5),
            ("t -  t", DuplicateExponent, "exponent 1 appears twice", 5),
            ("1 - -2", DuplicateExponent, "exponent 0 appears twice", 4),
        ],
    )
    def test_each_error_names_its_token_and_offset(self, text, error, message, offset):
        """One text per way parse turns text down; BIG is a literal one
        digit past int()'s limit."""
        text = text.replace("BIG", "9" * (sys.get_int_max_str_digits() + 1))
        with pytest.raises(error) as ei:
            vf.parse(text)
        assert type(ei.value) is error
        assert str(ei.value) == f"{message} (offset {offset})"
        assert ei.value.offset == offset

    @pytest.mark.parametrize(
        "head, offset", [("1/", 2), ("t ^", 3), ("t + O(t^(1", 10)]
    )
    def test_a_long_run_of_blanks_is_refused_in_linear_time(self, head, offset):
        """A pattern in which two whitespace repeats competed for one run of
        blanks would take minutes here."""
        blanks = 200_000
        start = time.perf_counter()
        with pytest.raises(SeriesSyntaxError) as ei:
            vf.parse(head + " " * blanks + "x")
        assert time.perf_counter() - start < 2
        assert ei.value.offset == offset + blanks

    @pytest.mark.parametrize(
        "text, printed", [("--3", "3"), ("t - -1", "t + 1"), ("+-3", "-3")]
    )
    def test_a_term_sign_and_its_coefficient_sign_both_apply(self, text, printed):
        assert vf.to_str(vf.parse(text)) == printed

    @pytest.mark.parametrize(
        "make",
        [
            vf.from_rational,
            lambda big: vf.from_rational(Q(1, big)),
            vf.monomial,
            lambda big: vf.monomial(Q(1, big)),
            lambda big: vf.with_floor(vf.ONE, -big),
        ],
        ids=["numerator", "denominator", "exponent", "exponent-denominator", "floor"],
    )
    def test_digits_int_cannot_print_raise_digit_limit(self, make):
        """An integer past int()'s digit limit is refused with a typed error
        naming the limit, not by int()'s own ValueError."""
        limit = sys.get_int_max_str_digits()
        with pytest.raises(DigitLimit, match=f"more than {limit} digits"):
            vf.to_str(make(10**limit))

    def test_integers_at_the_digit_limit_print_and_read_back(self):
        big = 10 ** (sys.get_int_max_str_digits() - 1)
        x = vf.add(vf.monomial(Q(1, big), big), vf.with_floor(vf.ZERO, -big))
        assert vf.parse(vf.to_str(x)) == x

    def test_round_trip_100_random(self):
        rng = random.Random(20260816)
        done = 0
        while done < 100:
            x = _rand_exact(rng)
            if rng.random() < 0.4:
                lo = min((e for e, _ in x.terms), default=Q(0))
                x = vf.with_floor(x, lo - rng.randint(1, 3))
            s = vf.to_str(x)
            assert vf.parse(s) == x, s
            done += 1

    def test_canonical_forms(self):
        assert vf.to_str(vf.monomial(1)) == "t"
        assert vf.to_str(vf.monomial(2)) == "t^2"
        assert vf.to_str(vf.monomial(-1)) == "t^(-1)"
        assert vf.to_str(vf.monomial(Q(1, 2), Q(3, 2))) == "3/2*t^(1/2)"
        assert vf.to_str(vf.ZERO) == "0"
        assert vf.to_str(vf.with_floor(vf.ZERO, Q(-5))) == "0 + O(t^(-5))"


# test_parse_fuzz's alphabet plus a tab, a no-break space, an Arabic-Indic
# digit, a superscript two, "O (", and literals at and past int()'s default
# limit of 4 300 digits
FUZZ_TOKENS = list("0123456789t^()/*+-O ") + [
    "t^(", "O(t^(", "3/2", "*t", " + ", "\t", "\xa0", "\u0663", "\u00b2", "O (",
    "9" * 4300, "7" * 5000,
]


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


class TestAgainstTheScanner:
    """parse and to_str against the Fraction scanner and printer they replaced."""

    def test_parse_on_20000_seeded_strings(self):
        rng = random.Random(20261021)
        refused = 0
        for text in series_texts(rng, 20000, FUZZ_TOKENS):
            want = _outcome(parse_series, text)
            got = _outcome(vf.parse, text)
            if isinstance(want, tuple) and want[0] is ValueError:
                # int() refused a digit run the scanner took: now a syntax
                # error, at the digit or at an earlier repeated exponent
                assert isinstance(got, tuple) and issubclass(got[0], SeriesSyntaxError), text
                refused += 1
            else:
                assert got == want, text
        assert refused > 100

    def test_to_str_and_from_terms_on_6000_seeded_elements(self):
        rng = random.Random(20261022)
        floors = 0
        for i in range(6000):
            pairs, floor = random_terms(rng)
            x = series_from_terms(pairs, floor)
            if i % 3 == 0:
                # products reach wider lattices than the drawn terms
                y = series_from_terms(*random_terms(rng))
                x = vf.mul(x, y)
            assert vf.to_str(x) == series_str(x)
            floors += x.floor is not None
        assert floors > 2000


# --- ring/field operations ---------------------------------------------------


class TestArithmetic:
    def test_trivial_products(self):
        t = T
        assert vf.mul(vf.add(t, vf.ONE), vf.sub(t, vf.ONE)) == vf.parse("t^2 - 1")
        assert vf.mul(vf.monomial(Q(1, 2)), vf.monomial(Q(1, 2))) == t

    def test_add_interval_semantics(self):
        a = vf.parse("t^2 + O(t^(0))")
        assert vf.to_str(vf.add(a, vf.ONE)) == "t^2 + O(t^(0))"

    def test_mul_floor_propagation(self):
        a = vf.parse("t + O(t^(-2))")
        b = vf.parse("t^3 + 1")
        out = vf.mul(a, b)
        # floor_a + negval(b) = -2 + 3 = 1 masks everything up to t^1
        assert out.floor == Q(1)
        assert out.terms == ((Q(4), Q(1)),)

    def test_field_laws_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (_rand_exact(rng) for _ in range(3))
            assert vf.add(a, b) == vf.add(b, a)
            assert vf.mul(a, b) == vf.mul(b, a)
            assert vf.add(vf.add(a, b), c) == vf.add(a, vf.add(b, c))
            assert vf.mul(vf.mul(a, b), c) == vf.mul(a, vf.mul(b, c))
            assert vf.mul(a, vf.add(b, c)) == vf.add(vf.mul(a, b), vf.mul(a, c))
            assert vf.add(a, vf.neg(a)).is_zero

    @given(_TERMS, _TERMS)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_naive_convolution(self, ta, tb):
        a = series_from_terms(ta)
        b = series_from_terms(tb)
        acc = {}
        for ea, ca in a.terms:
            for eb, cb in b.terms:
                acc[ea + eb] = acc.get(ea + eb, Q(0)) + ca * cb
        got = vf.mul(a, b)
        assert got.terms == _naive_terms(acc)
        _assert_canonical(got)

    @given(_EXPS, _COEFS.filter(bool), _EXPS, _COEFS.filter(bool))
    @settings(max_examples=200, deadline=None)
    # exponents that cancel to 0 and coefficients whose gcd reduces d to 1
    @example(Q(1, 2), Q(2, 3), Q(-1, 2), Q(3, 2))
    # mixed e (3 and 6) that reduce to 2, and a d that only shrinks
    @example(Q(1, 3), Q(5, 4), Q(1, 6), Q(2, 5))
    @example(Q(0), Q(1), Q(-5, 6), Q(-7, 6))
    def test_one_term_mul_matches_naive_product(self, ea, ca, eb, cb):
        # exact monomials take mul's one-term path
        got = vf.mul(vf.monomial(ea, ca), vf.monomial(eb, cb))
        assert got.terms == ((ea + eb, ca * cb),)
        assert got.floor is None
        _assert_canonical(got)

    @given(st.integers(-24, 24), st.integers(1, 12), st.integers(-36, 36), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    # a zero exponent reduces e to 1, and a zero coefficient gives ZERO
    @example(0, 5, 3, 1)
    @example(1, 1, 0, 3)
    # both gcds above one
    @example(6, 4, -4, 6)
    def test_int_monomial_equals_monomial(self, x, y, n, d):
        got = vf.int_monomial(x, y, n, d)
        assert got == vf.monomial(Q(x, y), Q(n, d))
        _assert_canonical(got)

    @given(_TERMS, _TERMS)
    @settings(max_examples=60, deadline=None)
    def test_add_matches_naive_sum(self, ta, tb):
        a = series_from_terms(ta)
        b = series_from_terms(tb)
        acc = dict(a.terms)
        for eb, cb in b.terms:
            acc[eb] = acc.get(eb, Q(0)) + cb
        got = vf.add(a, b)
        assert got.terms == _naive_terms(acc)
        _assert_canonical(got)


    @pytest.mark.parametrize("value, name", [(0.1, "float"), ("1/2", "str")])
    def test_rationals_are_int_or_fraction(self, value, name):
        # a float would become its binary expansion: monomial(0.1) would get
        # the exponent 3602879701896397/36028797018963968
        a = vf.parse("t + 1")
        calls = [
            lambda: vf.from_rational(value),
            lambda: vf.monomial(value),
            lambda: vf.monomial(1, value),
            lambda: vf.with_floor(a, value),
            lambda: vf.coef_at(a, value),
            lambda: vf.inv(a, value),
            lambda: vf.sqrt_pos(a, value),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=rf"^expected an int or a Fraction, not {name}$"):
                call()
        assert vf.monomial(Q(1, 10)).terms == ((Q(1, 10), Q(1)),)


# --- valuation and order -----------------------------------------------------


class TestValuation:
    def test_spec_values(self):
        assert vf.negval(vf.parse("t^(3/2) + 2")) == Q(3, 2)
        assert vf.negval(vf.ONE) == 0
        assert vf.negval(vf.ZERO) is None
        with pytest.raises(PrecisionError):
            vf.negval(vf.parse("0 + O(t^(0))"))

    def test_order_examples(self):
        assert vf.cmp(T, vf.from_rational(10**6)) == vf.GT
        assert vf.cmp(vf.monomial(-1), vf.ZERO) == vf.GT
        with pytest.raises(PrecisionError):
            vf.cmp(vf.parse("1 + O(t^(0))"), vf.ONE)

    def test_order_compatibility_random(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b = _rand_nonzero(rng), _rand_nonzero(rng)
            if vf.cmp(b, vf.ZERO) != vf.GT:
                b = vf.neg(b)
            big = vf.add(a if vf.cmp(a, vf.ZERO) == vf.GT else vf.neg(a), b)
            # big >= b > 0 so negval(big) >= negval(b)
            assert not vf.negval(big) < vf.negval(b)

    def test_multiplicativity_and_ultrametric(self):
        rng = random.Random(13)
        for _ in range(200):
            a, b = _rand_nonzero(rng), _rand_nonzero(rng)
            assert vf.negval(vf.mul(a, b)) == vf.negval(a) + vf.negval(b)
            s = vf.add(a, b)
            hi = max(vf.negval(a), vf.negval(b))
            assert not vf.negval(s) > hi
            if vf.negval(a) != vf.negval(b):
                assert vf.negval(s) == hi

    def test_ring_membership(self):
        assert vf.in_O(vf.parse("t^(-2) + 5"))
        assert not vf.in_O(T)
        assert not vf.is_unit(vf.monomial(-1))
        assert vf.is_unit(vf.parse("2 + t^(-1)"))
        assert vf.in_O(vf.ZERO) and not vf.is_unit(vf.ZERO)
        assert vf.in_O(vf.parse("0 + O(t^(0))"))
        with pytest.raises(PrecisionError):
            vf.in_O(vf.parse("0 + O(t^(2))"))

    def test_residue(self):
        assert vf.residue(vf.parse("3 + t^(-1)")) == 3
        assert vf.residue(vf.monomial(-5)) == 0
        with pytest.raises(NotInRing):
            vf.residue(T)
        with pytest.raises(PrecisionError):
            vf.residue(vf.parse("1 + O(t^(0))"))


# --- inverse and square root -------------------------------------------------


class TestInvSqrt:
    def test_inv_examples(self):
        assert vf.inv(T, Q(-99)) == vf.monomial(-1)
        got = vf.inv(vf.parse("1 - t^(-1)"), Q(-3))
        assert vf.to_str(got) == "1 + t^(-1) + t^(-2) + t^(-3) + O(t^(-4))"
        with pytest.raises(ZeroDivisionError):
            vf.inv(vf.ZERO, Q(-1))
        with pytest.raises(PrecisionError):
            vf.inv(vf.parse("0 + O(t^(3))"), Q(-1))

    def test_inv_without_target(self):
        # a monomial inverts exactly, as sqrt_pos(4*t^2, None) does
        assert vf.to_str(vf.inv(vf.parse("2*t^(-3/2)"), None)) == "1/2*t^(3/2)"
        assert vf.to_str(vf.sqrt_pos(vf.parse("4*t^2"), None)) == "2*t"
        with pytest.raises(TypeError, match="target_floor is required for non-monomial input"):
            vf.inv(vf.parse("1 - t^(-1)"), None)

    def test_inv_correctness_random(self):
        rng = random.Random(17)
        for _ in range(100):
            a = _rand_nonzero(rng)
            f = Q(rng.randint(-8, -2))
            b = vf.inv(a, f)
            assert b.floor is None or b.floor <= f
            r = vf.sub(vf.mul(a, b), vf.ONE)
            bound = f + vf.negval(a)
            if r.terms:
                assert r.terms[0][0] <= bound
            elif r.floor is not None:
                assert r.floor <= bound

    def test_sqrt_examples(self):
        assert vf.sqrt_pos(vf.monomial(2)) == T
        got = vf.sqrt_pos(vf.parse("1 + t^(-1)"), Q(-3))
        assert got.floor == Q(-7, 2)
        lead = dict(got.terms)
        assert lead[Q(0)] == 1 and lead[Q(-1)] == Q(1, 2) and lead[Q(-2)] == Q(-1, 8)
        with pytest.raises(NotASquare):
            vf.sqrt_pos(vf.from_rational(2), Q(-3))
        with pytest.raises(NegativeInput):
            vf.sqrt_pos(vf.neg(T), Q(-3))
        with pytest.raises(NegativeInput):
            vf.sqrt_pos(vf.ZERO, Q(-3))

    def test_sqrt_squares_back(self):
        rng = random.Random(19)
        for _ in range(50):
            x = _rand_nonzero(rng)
            a = vf.mul(x, x)
            b = vf.sqrt_pos(a, Q(-10))
            r = vf.sub(vf.mul(b, b), a)
            if not r.is_zero:
                ub = r.terms[0][0] if r.terms else r.floor
                assert ub <= Q(-10) + vf.negval(a) / 2

    def test_fractional_leading_exponent(self):
        # negval(result) = negval(a)/2 without any parity constraint
        a = vf.add(vf.monomial(Q(1, 3)), vf.ONE)
        b = vf.sqrt_pos(a, Q(-2))
        assert b.terms[0][0] == Q(1, 6)


# --- floor soundness -----------------------------------------------------------
#
# Each operand is an exact series a, shown to the operation as with_floor(a, f)
# (or exactly).  A decided answer must match the exact answer for a at every
# exponent above the floor it reports; PrecisionError is always allowed.

_MAYBE_FLOOR = st.one_of(st.none(), _FLOORS)
# offsets from a leading exponent, for floors and targets near it
_OFFSETS = st.fractions(min_value=-4, max_value=1, max_denominator=6)
_MAYBE_OFFSET = st.one_of(st.none(), _OFFSETS)


def _cut(a, f):
    return a if f is None else vf.with_floor(a, f)


def _visible(x):
    """The visible terms of x as an exact series."""
    return series_from_terms(x.terms)


def _agrees(got, exact):
    """got, with the floor it reports, matches exact above that floor."""
    _assert_canonical(got)
    if got.floor is None:
        return got.terms == exact.terms
    return got.terms == tuple(t for t in exact.terms if t[0] > got.floor)


def _decide(fn, *args):
    try:
        return fn(*args)
    except PrecisionError:
        return None


class TestFloorSoundness:
    @given(_TERMS, _TERMS, _MAYBE_FLOOR, _MAYBE_FLOOR)
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, ta, tb, fa, fb):
        a, b = series_from_terms(ta), series_from_terms(tb)
        x, y = _cut(a, fa), _cut(b, fb)
        assert _agrees(x, a)
        assert _agrees(vf.add(x, y), vf.add(a, b))
        assert _agrees(vf.sub(x, y), vf.sub(a, b))
        assert _agrees(vf.mul(x, y), vf.mul(a, b))
        assert _agrees(vf.neg(x), vf.neg(a))

    @given(_TERMS, _TERMS, _MAYBE_FLOOR, _MAYBE_FLOOR)
    @settings(max_examples=150, deadline=None)
    def test_decisions(self, ta, tb, fa, fb):
        a, b = series_from_terms(ta), series_from_terms(tb)
        x, y = _cut(a, fa), _cut(b, fb)
        for fn, args, exact in (
            (vf.cmp, (x, y), (a, b)),
            (vf.negval, (x,), (a,)),
            (vf.in_O, (x,), (a,)),
            (vf.is_unit, (x,), (a,)),
            (vf.provably_zero, (x,), (a,)),
        ):
            got = _decide(fn, *args)
            if got is not None:
                assert got == fn(*exact), fn.__name__
        if _decide(vf.in_O, x):
            got = _decide(vf.residue, x)
            if got is not None:
                assert got == vf.residue(a)

    @given(_TERMS, _MAYBE_FLOOR, _FLOORS)
    @settings(max_examples=150, deadline=None)
    def test_with_floor(self, ta, fa, f):
        a = series_from_terms(ta)
        got = vf.with_floor(_cut(a, fa), f)
        assert got.floor >= f
        assert _agrees(got, a)

    @given(_TERMS, _MAYBE_OFFSET, _OFFSETS)
    @settings(max_examples=200, deadline=None)
    @example([(Q(0), Q(1)), (Q(-1, 2), Q(-1))], None, Q(-1, 3))
    @example([(Q(1), Q(1)), (Q(-1, 2), Q(1))], Q(-4, 3), Q(-1))
    def test_inv(self, ta, fa, target):
        a = series_from_terms(ta)
        if a.is_zero:
            return
        # floor and target are drawn relative to the leading exponent
        lead = vf.negval(a)
        target -= lead
        got = _decide(vf.inv, _cut(a, None if fa is None else lead + fa), target)
        if got is None:
            return
        _assert_canonical(got)
        # got - 1/a has negval <= F exactly when a*got - 1 has negval <= F + negval(a)
        r = vf.sub(vf.mul(a, _visible(got)), vf.ONE)
        if got.floor is None:
            assert r.is_zero
        else:
            assert got.floor <= target
            assert r.is_zero or vf.negval(r) <= got.floor + lead

    @given(_TERMS, _MAYBE_OFFSET, _OFFSETS)
    @settings(max_examples=200, deadline=None)
    @example([(Q(1, 2), Q(1)), (Q(-1, 2), Q(1))], None, Q(-5, 6))
    def test_sqrt_pos(self, ta, fa, target):
        # squares have rational square roots of their leading coefficients
        x = series_from_terms(ta)
        a = vf.mul(x, x)
        if a.is_zero:
            return
        lead = vf.negval(a)
        target += lead / 2
        got = _decide(vf.sqrt_pos, _cut(a, None if fa is None else lead + fa), target)
        if got is None:
            return
        _assert_canonical(got)
        g = _visible(got)
        if g.terms:
            assert g.terms[0] == (lead / 2, abs(x.terms[0][1]))
        # with equal leading terms (or g = 0), g - sqrt(a) has negval <= F
        # exactly when g^2 - a has negval <= F + negval(a)/2
        r = vf.sub(vf.mul(g, g), a)
        if got.floor is None:
            assert r.is_zero
        else:
            assert got.floor <= target
            assert r.is_zero or vf.negval(r) <= got.floor + lead / 2


# --- the signed sum-of-products kernel -------------------------------------------


# numerators past 2^64, exponents packed in a short span or spread out
_NUMERATORS = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80)).filter(bool)
_EXPONENTS = st.one_of(st.integers(-6, 6), st.integers(-(10**6), 10**6))
_TERM_LISTS = st.dictionaries(_EXPONENTS, _NUMERATORS, max_size=5).map(
    lambda acc: tuple(sorted(acc.items(), reverse=True))
)


@st.composite
def _dot_terms(draw):
    """Signed products, sometimes with a drawn one repeated under the other
    sign so that its terms cancel."""
    terms = draw(st.lists(st.tuples(_TERM_LISTS, _TERM_LISTS, st.booleans()), max_size=6))
    if terms and draw(st.booleans()):
        a, b, negative = draw(st.sampled_from(terms))
        terms.insert(draw(st.integers(0, len(terms))), (b, a, not negative))
    return terms


_DENSE = ((2, 3), (1, -1), (0, 2**70))


def _dict_mul(a, b):
    """kernel_mul's reference: accumulate every product in a dict, sort, drop
    zeros."""
    acc = {}
    for ea, ca in a:
        for eb, cb in b:
            acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
    return tuple(sorted(((k, n) for k, n in acc.items() if n), reverse=True))


def _fold_dot(terms):
    """kernel_dot's reference: each product by _dict_mul, negated where
    asked, merged by kernel_add, in order."""
    acc = ()
    for a, b, negative in terms:
        p = _dict_mul(a, b)
        if negative:
            p = tuple([(k, -n) for k, n in p])
        acc = kernel_add(acc, p)
    return acc


# t^(10^6) + 1 and its square
_SPARSE = ((10**6, 1), (0, 1))
_SPARSE_SQUARE = ((2 * 10**6, 1), (10**6, 2), (0, 1))


def _traced(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        got = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak


class TestKernelMul:
    @given(_EXPONENTS, _NUMERATORS, _TERM_LISTS)
    @settings(max_examples=200, deadline=None)
    @example(0, 1, _DENSE)
    @example(-3, -(2**70), ((5, 1),))
    def test_one_term_operand_equals_the_dict_path(self, k, n, other):
        one = ((k, n),)
        want = _dict_mul(one, other)
        assert kernel_mul(one, other) == want
        assert kernel_mul(other, one) == want

    @given(_TERM_LISTS, _TERM_LISTS)
    @settings(max_examples=200, deadline=None)
    @example(_DENSE, _DENSE)
    # (t + 1)(t - 1): the t terms cancel
    @example(((1, 1), (0, 1)), ((1, 1), (0, -1)))
    def test_equals_the_dict_product(self, a, b):
        want = _dict_mul(a, b)
        assert kernel_mul(a, b) == want
        assert kernel_mul(b, a) == want

    def test_a_sparse_operand_allocates_no_dense_accumulator(self):
        got, peak = _traced(kernel_mul, _SPARSE, _SPARSE)
        assert got == _SPARSE_SQUARE
        # a list over the span would take about 16 MB
        assert peak < 64 * 1024


class TestKernelDot:
    @given(_dot_terms())
    @settings(max_examples=300, deadline=None)
    @example([(_DENSE, _DENSE, False), (_DENSE, ((1, 1),), True)])
    @example([(_DENSE, _DENSE, False), (_DENSE, _DENSE, True)])
    def test_equals_the_fold_of_mul_and_add(self, terms):
        assert kernel_dot(terms) == _fold_dot(terms)

    def test_a_sparse_operand_allocates_no_dense_accumulator(self):
        got, peak = _traced(kernel_dot, [(_SPARSE, _SPARSE, False)])
        assert got == _SPARSE_SQUARE
        # a list over the span would take about 16 MB
        assert peak < 64 * 1024
