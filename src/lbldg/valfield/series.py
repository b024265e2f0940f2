"""Truncated Puiseux series over Q with valuation onto Lambda = Q.

An element is a finite sum of terms c*t^x plus a floor: None means the element
is exact; a rational floor f means an unknown tail h with negval(h) <= f may
exist. Visible exponents lie strictly above the floor, so the leading exponent
(when terms exist) is the exact negval. ``negval`` returns that exponent as a
Fraction, and None for the exact zero: None is Bottom, the value of 0, below
every Fraction. The distinguished element t (exponent 1) is infinite: t > r
for every rational r.

Terms live on an integer lattice. An element stores

- ``e``: the ramification index; every exponent is k/e for an int k;
- ``d``: the positive common denominator of the coefficients;
- ``pairs``: a tuple of (k, n) int pairs in strictly descending k with no zero
  n, standing for the terms (n/d)*t^(k/e);
- ``floor``: a Fraction, or None.

Every element is canonical. ``e`` is minimal, the lcm of the exponent
denominators of the visible terms (gcd(e, k, ...) = 1), and ``d`` is minimal
(gcd(d, n, ...) = 1); both are 1 without visible terms. So equality and
hashing compare the ints directly. Each operation brings its operands to a
common e (and, for addition, a common d) before the kernel call in
``_backend`` and divides the gcds out after it. Fractions appear only at the
boundary: ``from_terms``, ``parse``, ``to_str``, the ``terms`` view, floors
and the values of ``negval``, ``residue``, ``lead_exp`` and ``coef_at``.

Minor tables skip that per-operation bookkeeping. ``to_lattice`` puts a whole
matrix on one ramification index and one integer scale per row,
``lattice_ring`` builds each sum of signed products of the resulting bare
(pairs, floor) values with one ``kernel_dot`` call, and ``from_lattice``
makes each result canonical once. Between the two conversions an element is
not canonical, and no Fraction appears except in floors.

All operations are pure; results are immutable.
"""

import math
from fractions import Fraction
from math import gcd, lcm

from ..errors import (
    DuplicateExponent,
    NegativeInput,
    NotASquare,
    NotInRing,
    PrecisionError,
    SeriesSyntaxError,
)
from ._backend import kernel_add, kernel_dot, kernel_mul

LT, EQ, GT = -1, 0, 1


def _q(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class PuiseuxElem:
    __slots__ = ("e", "d", "pairs", "floor")

    def __init__(self, e, d, pairs, floor):
        # Assumes canonical data; use from_terms for raw input.
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "floor", floor)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxElem is immutable")

    @classmethod
    def from_terms(cls, pairs, floor=None):
        """Build from (exponent, coefficient) pairs, combining duplicates."""
        acc = {}
        for x, c in pairs:
            x, c = _q(x), _q(c)
            acc[x] = acc.get(x, Fraction(0)) + c
        floor = None if floor is None else _q(floor)
        visible = [(x, c) for x, c in acc.items() if c and (floor is None or x > floor)]
        # lcms of reduced denominators are already minimal
        e = lcm(*(x.denominator for x, _ in visible))
        d = lcm(*(c.denominator for _, c in visible))
        kn = sorted(
            (
                (x.numerator * (e // x.denominator), c.numerator * (d // c.denominator))
                for x, c in visible
            ),
            reverse=True,
        )
        return cls(e, d, tuple(kn), floor)

    @property
    def terms(self):
        """The visible terms as ((exponent, coefficient), ...) Fractions,
        exponents descending."""
        e, d = self.e, self.d
        return tuple([(Fraction(k, e), Fraction(n, d)) for k, n in self.pairs])

    @property
    def is_zero(self):
        return not self.pairs and self.floor is None

    def __eq__(self, other):
        if not isinstance(other, PuiseuxElem):
            if isinstance(other, (int, Fraction)):
                other = from_rational(other)
            else:
                return NotImplemented
        return (
            self.pairs == other.pairs
            and self.e == other.e
            and self.d == other.d
            and self.floor == other.floor
        )

    def __hash__(self):
        return hash((self.e, self.d, self.pairs, self.floor))

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        return f"PuiseuxElem({to_str(self)!r})"


# --- the integer lattice ----------------------------------------------------
#
# Term tuples are built from lists, never from generators. CPython's
# tuple(generator) takes a length-10 tuple and shrinks it, so each such tuple
# is freed onto another length's free list than it came from; those lists
# then only fill (up to 2000 tuples per length) and hold megabytes.


def _canon(e, d, pairs, floor):
    """The canonical element for terms (n/d)*t^(k/e): divides the gcds of the
    numerators with d and of the exponents with e out."""
    if not pairs:
        return PuiseuxElem(1, 1, (), floor)
    if d != 1:
        g = d
        for _, n in pairs:
            g = gcd(g, n)
            if g == 1:
                break
        if g != 1:
            d //= g
            pairs = tuple([(k, n // g) for k, n in pairs])
    if e != 1:
        g = e
        for k, _ in pairs:
            g = gcd(g, k)
            if g == 1:
                break
        if g != 1:
            e //= g
            pairs = tuple([(k // g, n) for k, n in pairs])
    return PuiseuxElem(e, d, pairs, floor)


def _rescale(pairs, s, u):
    """pairs with every k multiplied by s and every n by u."""
    if s == 1 and u == 1:
        return pairs
    return tuple([(k * s, n * u) for k, n in pairs])


def _above(pairs, e, floor):
    """The leading pairs whose exponents k/e lie strictly above floor."""
    cut = floor.numerator * e // floor.denominator  # k/e > floor iff k > cut
    for i, (k, _) in enumerate(pairs):
        if k <= cut:
            return pairs[:i]
    return pairs


def lead_exp(a):
    """Exponent of the leading visible term, or None when no term is visible."""
    return Fraction(a.pairs[0][0], a.e) if a.pairs else None


def coef_at(a, x):
    """Coefficient of t^x among the visible terms; 0 when there is none."""
    x = _q(x)
    s, r = divmod(a.e, x.denominator)
    if not r:
        k = x.numerator * s
        for kk, n in a.pairs:
            if kk == k:
                return Fraction(n, a.d)
    return Fraction(0)


# --- constructors ------------------------------------------------------------


def from_rational(q):
    q = _q(q)
    if not q:
        return ZERO
    return PuiseuxElem(1, q.denominator, ((0, q.numerator),), None)


def monomial(exp, coef=1):
    exp, coef = _q(exp), _q(coef)
    if not coef:
        return ZERO
    return PuiseuxElem(
        exp.denominator, coef.denominator, ((exp.numerator, coef.numerator),), None
    )


def with_floor(a, f):
    """Widen a to floor at least f (interval semantics: coarser is honest)."""
    f = _q(f)
    if a.floor is not None and a.floor >= f:
        return a
    return _canon(a.e, a.d, _above(a.pairs, a.e, f), f)


def _negval_ub(a):
    """Upper bound for negval; None only for the exact zero."""
    lead = lead_exp(a)
    return a.floor if lead is None else lead


# --- arithmetic --------------------------------------------------------------


def add(a, b):
    fa, fb = a.floor, b.floor
    if fa is None:
        floor = fb
    elif fb is None:
        floor = fa
    else:
        floor = max(fa, fb)
    pa, pb = a.pairs, b.pairs
    # an operand without visible terms whose floor does not win adds nothing
    if not pb and floor == fa:
        return a
    if not pa and floor == fb:
        return b
    e, d = a.e, a.d
    if e != b.e or d != b.d:
        e, d = lcm(e, b.e), lcm(d, b.d)
        pa = _rescale(pa, e // a.e, d // a.d)
        pb = _rescale(pb, e // b.e, d // b.d)
    pairs = kernel_add(pa, pb)
    if floor is not None:
        pairs = _above(pairs, e, floor)
    return _canon(e, d, pairs, floor)


def neg(a):
    return PuiseuxElem(a.e, a.d, tuple([(k, -n) for k, n in a.pairs]), a.floor)


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    if a.is_zero or b.is_zero:
        return ZERO
    pa, pb = a.pairs, b.pairs
    e = 1
    pairs = ()
    if pa and pb:
        e = a.e
        if e != b.e:
            e = lcm(e, b.e)
            pa = _rescale(pa, e // a.e, 1)
            pb = _rescale(pb, e // b.e, 1)
        pairs = kernel_mul(pa, pb)
    if a.floor is None and b.floor is None:
        return _canon(e, a.d * b.d, pairs, None)
    ub_a, ub_b = _negval_ub(a), _negval_ub(b)
    floors = []
    if a.floor is not None:
        floors.append(a.floor + ub_b)
    if b.floor is not None:
        floors.append(b.floor + ub_a)
    floor = max(floors)
    return _canon(e, a.d * b.d, _above(pairs, e, floor), floor)


# --- minor tables on one lattice -------------------------------------------
#
# A term of a Laplace minor is a product of one entry from each row the minor
# spans. With one ramification index E for the whole matrix and one integer
# scale D_i per row, every term of a minor lives on exponents k/E with
# coefficients n/(product of its rows' D_i). So a minor table can build each
# minor, a signed sum of products of bare (pairs, floor) values, with one
# kernel call and convert back once per result, where add and mul would
# rescale and divide the gcds out at every step.


def to_lattice(rows):
    """(E, scales, values) for a matrix of series: E is the lcm of every
    entry's e, scales[i] the lcm of row i's d, and values[i][j] the pair
    (pairs, floor) of entry (i, j) with exponents over E and numerators over
    scales[i]."""
    e = lcm(*[a.e for row in rows for a in row])
    scales = [lcm(*[a.d for a in row]) for row in rows]
    values = tuple(
        [
            tuple([(_rescale(a.pairs, e // a.e, d // a.d), a.floor) for a in row])
            for row, d in zip(rows, scales)
        ]
    )
    return e, scales, values


def from_lattice(e, scale, v):
    """The series of lattice value v whose numerators are over scale."""
    pairs, floor = v
    return _canon(e, scale, pairs, floor)


def lattice_ring(e):
    """(zero, is_zero, dot) on lattice values over ramification index e.
    dot takes (a, b, negative) triples whose products share one scale (the
    product of a's and b's) and returns the sum of a*b, or of -a*b where
    negative is set.  Its floor is the largest product floor, each product
    floor following mul and the sum's following add (floors only depend on
    exponents), so every result has the value and floor of the same sum of
    products in series: a term that add or mul would cut at an earlier,
    lower floor is cut at the final one as well."""
    zero = ((), None)

    def is_zero(a):
        return not a[0] and a[1] is None

    def lat_dot(terms):
        products = []
        floor = None
        for (pa, fa), (pb, fb), negative in terms:
            if not pa and fa is None or not pb and fb is None:
                continue
            if pa and pb:
                products.append((pa, pb, negative))
            if fa is not None:
                f = fa + (Fraction(pb[0][0], e) if pb else fb)
                if floor is None or f > floor:
                    floor = f
            if fb is not None:
                f = fb + (Fraction(pa[0][0], e) if pa else fa)
                if floor is None or f > floor:
                    floor = f
        pairs = kernel_dot(products)
        if floor is not None:
            pairs = _above(pairs, e, floor)
        return pairs, floor

    return zero, is_zero, lat_dot


# --- valuation and order -------------------------------------------------------


def negval(a):
    """The leading exponent as a Fraction, None for the exact zero (Bottom,
    below every value); PrecisionError when the floor masks the lead."""
    if a.pairs:
        return Fraction(a.pairs[0][0], a.e)
    if a.floor is None:
        return None
    raise PrecisionError(f"negval masked by floor {a.floor}")


def cmp(a, b):
    d = sub(a, b)
    if d.pairs:
        return GT if d.pairs[0][1] > 0 else LT
    if d.floor is None:
        return EQ
    raise PrecisionError(f"sign masked by floor {d.floor}")


def in_O(a):
    if a.pairs:
        return a.pairs[0][0] <= 0
    if a.floor is None or a.floor <= 0:
        return True
    raise PrecisionError(f"membership in O masked by floor {a.floor}")


def is_unit(a):
    if a.pairs:
        return a.pairs[0][0] == 0
    if a.floor is None or a.floor < 0:
        return False
    raise PrecisionError(f"unit test masked by floor {a.floor}")


def provably_zero(a):
    """True iff a is exactly zero; PrecisionError when its floor hides that."""
    if a.pairs:
        return False
    if a.floor is not None:
        raise PrecisionError("cannot decide whether a truncated entry vanishes")
    return True


def residue(a):
    if not in_O(a):
        raise NotInRing("residue requires an element of O")
    if a.floor is not None and a.floor >= 0:
        raise PrecisionError(f"t^0 coefficient masked by floor {a.floor}")
    return coef_at(a, 0)


# --- inverse and square root ---------------------------------------------------


def _scale(a, q):
    """a times the nonzero rational q; the floor is unchanged."""
    pairs = tuple([(k, n * q.numerator) for k, n in a.pairs])
    return _canon(a.e, a.d * q.denominator, pairs, a.floor)


def _sqrt_rational(q):
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise NotASquare(f"{q} is not the square of a rational")
    return Fraction(rn, rd)


def _power(a, p, target_floor):
    """a^p for p = -1 or 1/2, a with a visible leading term, by the binomial
    expansion: a = c t^e (1 + r) with negval(r) < 0, and

        a^p = c^p t^(pe) sum_k binom(p, k) r^k,

    summed while the terms reach target_floor.  The result lives on the
    lattice of spacing 1/(e_a denominator(p)), so its floor is the lattice
    point below target_floor (one step below it when target_floor is a
    lattice point), or the floor the dropped terms carry when that is
    higher.  An exact monomial needs no target."""
    k, n = a.pairs[0]
    e, c = Fraction(k, a.e), Fraction(n, a.d)
    lead = monomial(p * e, c**p if p.denominator == 1 else _sqrt_rational(c))
    if len(a.pairs) == 1 and a.floor is None:
        return lead
    if target_floor is None:
        raise TypeError("target_floor is required for non-monomial input")
    target_floor = _q(target_floor)
    if a.floor is not None and a.floor - (1 - p) * e > target_floor:
        raise PrecisionError("floor of operand too coarse for requested precision")
    r = mul(monomial(-e, 1 / c), _canon(a.e, a.d, a.pairs[1:], a.floor))
    cutoff = target_floor - p * e
    s = term = ONE
    i = 0
    while True:
        # term is binom(p, i) r^i; the next one is term * r * (p - i)/(i + 1)
        term = mul(term, r)
        ub = _negval_ub(term)
        if ub is None or ub < cutoff:
            break
        term = _scale(term, Fraction(p.numerator - i * p.denominator, p.denominator * (i + 1)))
        i += 1
        s = add(s, term)
    step = Fraction(1, a.e * p.denominator)
    floor = (math.ceil(target_floor / step) - 1) * step
    if ub is not None and ub + p * e > floor:
        floor = ub + p * e
    return with_floor(mul(lead, s), floor)


def inv(a, target_floor):
    """Multiplicative inverse; every exponent >= target_floor is computed.
    The result floor is the lattice point below target_floor (one lattice step
    below it when target_floor is a lattice point), or the operand's floor
    carried through when that is higher.  target_floor may be None only
    when a is an exact monomial."""
    if not a.pairs:
        if a.floor is None:
            raise ZeroDivisionError("inverse of zero")
        raise PrecisionError(f"leading term masked by floor {a.floor}")
    return _power(a, Fraction(-1), target_floor)


def sqrt_pos(a, target_floor=None):
    """Square root of a positive element, binomial expansion to target_floor.
    target_floor may be omitted only when a is an exact monomial."""
    if cmp(a, ZERO) != GT:
        raise NegativeInput("sqrt_pos requires a positive element")
    return _power(a, Fraction(1, 2), target_floor)


# --- canonical text form ---------------------------------------------------


def _fmt_exp(e):
    if e == 1:
        return "t"
    if e.denominator == 1 and e >= 2:
        return f"t^{e}"
    return f"t^({e})"


def to_str(a):
    parts = []
    for e, c in a.terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = _fmt_exp(e)
        else:
            body = f"{mag}*{_fmt_exp(e)}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        text = "0"
    else:
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
    if a.floor is not None:
        text += f" + O(t^({a.floor}))"
    return text


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal):
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal):
        if not self.take(literal):
            raise SeriesSyntaxError(f"expected {literal!r}", self.pos)

    def parse_int(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise SeriesSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def parse_rat(self):
        num = self.parse_int()
        if self.take("/"):
            start = self.pos
            den = self.parse_int()
            if den <= 0:
                raise SeriesSyntaxError("denominator must be positive", start)
            return Fraction(num, den)
        return Fraction(num)


def _parse_tpow(sc):
    sc.expect("t")
    if sc.take("^"):
        if sc.take("("):
            e = sc.parse_rat()
            sc.expect(")")
        else:
            e = Fraction(sc.parse_int())
        return e
    return Fraction(1)


def _parse_term(sc):
    if sc.peek() == "t":
        return _parse_tpow(sc), Fraction(1)
    coef = sc.parse_rat()
    if sc.take("*"):
        return _parse_tpow(sc), coef
    return Fraction(0), coef


def parse(text):
    """Parse series text.  Accepts the grammar plus a leading sign, which the
    canonical printer emits for a negative leading coefficient."""
    sc = _Scanner(text)
    seen = {}
    floor = None

    def record(e, c, where):
        if e in seen:
            raise DuplicateExponent(f"exponent {e} appears twice", where)
        seen[e] = c

    sign = -1 if sc.take("-") else 1
    if sign == 1:
        sc.take("+")
    where = sc.pos
    e, c = _parse_term(sc)
    record(e, sign * c, where)
    while not sc.at_end():
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            raise SeriesSyntaxError("expected '+' or '-'", sc.pos)
        if sign == 1 and sc.take("O("):
            sc.expect("t^(")
            floor = sc.parse_rat()
            sc.expect(")")
            sc.expect(")")
            if not sc.at_end():
                raise SeriesSyntaxError("text after O(...) tail", sc.pos)
            break
        where = sc.pos
        e, c = _parse_term(sc)
        record(e, sign * c, where)
    return PuiseuxElem.from_terms(seen.items(), floor)


ZERO = PuiseuxElem(1, 1, (), None)
ONE = from_rational(1)
