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
``_backend`` and divides the gcds out after it. The one exception is ``mul``
of two exact monomials, the suites' commonest product: it adds the exponents
over the lcm of the two e, multiplies the coefficients, and reduces each by
one gcd, with no kernel call. ``int_monomial`` builds a monomial from ints
the same way, and ``monomial`` is its front end for Fractions. Fractions
appear only at the boundary: constructor arguments, the ``terms`` view,
floors and the values of ``negval``, ``residue`` and ``coef_at``.

Series text does not go through Fractions either. ``parse`` matches one term
at a time with a compiled regex whose every token is a group of its own, and
reads the groups in text order: the integers go to the int-term builder
``_from_ints``, and the first token missing or out of range names the
error and its offset. ``to_str`` prints from ``pairs``, reducing each
coefficient and exponent by one gcd, and raises ``DigitLimit`` for an integer
with more digits than ``int()`` turns into text, which ``parse`` could not
read back either.

Minor tables skip that per-operation bookkeeping. ``to_lattice`` puts a whole
matrix on one ramification index and one integer scale per row,
``lattice_ring`` builds each sum of signed products of the resulting bare
(pairs, floor) values with one ``kernel_dot`` call, and ``from_lattice``
makes each result canonical once. Between the two conversions an element is
not canonical, and no Fraction appears except in floors.

All operations are pure; results are immutable.
"""

import math
import re
import sys
from fractions import Fraction
from math import gcd, lcm

from ..errors import (
    DigitLimit,
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
    """x as a Fraction; TypeError unless it is an int or a Fraction, so a
    float never becomes its binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, not {type(x).__name__}")


class PuiseuxElem:
    __slots__ = ("e", "d", "pairs", "floor")

    def __init__(self, e, d, pairs, floor):
        # Assumes canonical data; parse, from_rational and monomial take raw input.
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "floor", floor)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxElem is immutable")

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


def _from_ints(terms, floor):
    """The canonical element of the terms (n/d)*t^(x/y), given as (x, y, n, d)
    ints with y, d > 0, plus floor: equal exponents are summed, and terms at
    or below the floor dropped."""
    e = lcm(*[y for _, y, _, _ in terms])
    d = lcm(*[dd for _, _, _, dd in terms])
    acc = {}
    for x, y, n, dd in terms:
        k = x * (e // y)
        acc[k] = acc.get(k, 0) + n * (d // dd)
    cut = None if floor is None else floor.numerator * e // floor.denominator
    pairs = [(k, n) for k, n in acc.items() if n and (cut is None or k > cut)]
    pairs.sort(reverse=True)
    return _canon(e, d, tuple(pairs), floor)


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


def int_monomial(x, y, n, d):
    """The exact monomial (n/d)*t^(x/y) for ints x, n and positive ints y,
    d, reduced by one gcd for the exponent and one for the coefficient."""
    if not n:
        return ZERO
    g, h = gcd(x, y), gcd(n, d)
    return PuiseuxElem(y // g, d // h, ((x // g, n // h),), None)


def monomial(exp, coef=1):
    exp, coef = _q(exp), _q(coef)
    return int_monomial(exp.numerator, exp.denominator, coef.numerator, coef.denominator)


def with_floor(a, f):
    """Widen a to floor at least f (interval semantics: coarser is honest)."""
    f = _q(f)
    if a.floor is not None and a.floor >= f:
        return a
    return _canon(a.e, a.d, _above(a.pairs, a.e, f), f)


def _negval_ub(a):
    """Upper bound for negval; None only for the exact zero."""
    return Fraction(a.pairs[0][0], a.e) if a.pairs else a.floor


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
    pa, pb = a.pairs, b.pairs
    if len(pa) == 1 and len(pb) == 1 and a.floor is None and b.floor is None:
        # two exact monomials: the canonical product needs one gcd per int
        (ka, na), (kb, nb) = pa[0], pb[0]
        e = a.e
        if e == b.e:
            k = ka + kb
        else:
            e = lcm(e, b.e)
            k = ka * (e // a.e) + kb * (e // b.e)
        n, d = na * nb, a.d * b.d
        g, h = gcd(k, e), gcd(n, d)
        return PuiseuxElem(e // g, d // h, ((k // g, n // h),), None)
    if a.is_zero or b.is_zero:
        return ZERO
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
    """(is_zero, dot) on lattice values over ramification index e.
    dot takes (a, b, negative) triples whose products share one scale (the
    product of a's and b's) and returns the sum of a*b, or of -a*b where
    negative is set.  Its floor is the largest product floor, each product
    floor following mul and the sum's following add (floors only depend on
    exponents), so every result has the value and floor of the same sum of
    products in series: a term that add or mul would cut at an earlier,
    lower floor is cut at the final one as well."""

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

    return is_zero, lat_dot


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


def _ratio(n, d):
    """The reduced rational n/d (d > 0) as text: "n" or "n/d"."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


def to_str(a):
    """The canonical text of a, which parse reads back to a.  DigitLimit
    when an integer of it has more digits than int() turns into text."""
    e, d = a.e, a.d
    parts = []
    try:
        for k, n in a.pairs:
            coef = _ratio(abs(n), d)
            if k == 0:
                body = coef
            else:
                if k == e:
                    body = "t"
                elif k % e == 0 and k > e:
                    body = f"t^{k // e}"
                else:
                    body = f"t^({_ratio(k, e)})"
                if coef != "1":
                    body = f"{coef}*{body}"
            if not parts:
                parts.append("-" + body if n < 0 else body)
            else:
                parts.append(("- " if n < 0 else "+ ") + body)
        text = " ".join(parts) if parts else "0"
        if a.floor is not None:
            text += f" + O(t^({a.floor}))"
    except ValueError:
        raise DigitLimit(
            f"a series integer has more than {sys.get_int_max_str_digits()} digits, "
            "the limit of int() text conversion"
        ) from None
    return text


# A term is a coefficient n or n/d, a power t, t^k or t^(n/d), or both joined
# by '*'; whitespace may come before every token, but not inside an integer,
# 'O(' or the tail's 't^('. \s is what str.isspace accepts and \d what int()
# reads. Each token is an optional group of its own, so a _TERM match always
# succeeds, as does a _TAIL match once '+ O(' opens it, and runs as far as the
# grammar allows; parse reads the groups in text order and names the first one
# missing. No two \s* ever compete for one run of whitespace, so a match takes
# time linear in it.
_INT = r"\s*([+-]?\d+)"
_TERM = re.compile(
    r"\s*(?:([+-])\s*)?"  # 1: sign
    rf"(?:{_INT}(?:\s*(/)(?:{_INT})?)?(?:\s*(\*))?)?"  # 2: n; 3: '/'; 4: d; 5: '*'
    r"(?:\s*(t)(?:\s*(\^)(?:\s*(\()"  # 6: t; 7: '^'; 8: '('
    rf"(?:{_INT}(?:\s*(/)(?:{_INT})?)?(?:\s*(\)))?)?"  # 9: n; 10: '/'; 11: d; 12: ')'
    rf"|{_INT})?)?)?"  # 13: k
)
_TAIL = re.compile(
    r"\s*\+\s*O\((?:\s*(t\^\()"  # 1: 't^('
    rf"(?:{_INT}(?:\s*(/)(?:{_INT})?)?"  # 2: n; 3: '/'; 4: d
    r"(?:\s*(\))(?:\s*(\))\s*)?)?)?)?"  # 5, 6: ')'
)
_END = re.compile(r"\s*\Z")
_SPACE = re.compile(r"\s*")


def _expected(text, at, what):
    """The SeriesSyntaxError for a missing token: what was expected, at the
    first non-blank offset from at."""
    return SeriesSyntaxError(f"expected {what}", _SPACE.match(text, at).end())


def parse(text):
    """Parse series text: terms joined by '+' or '-', then optionally the
    tail '+ O(t^(q))' that gives the floor q.  A term is a coefficient n or
    n/d, a power t, t^k or t^(n/d), or a coefficient and a power joined by
    '*'.  The first term may carry a sign as well; the canonical printer
    emits '-' for a negative leading coefficient.  Every integer may carry
    its own sign right before its digits, and a term's sign and its
    coefficient's sign both apply: "--3" is 3, "t - -1" is t + 1 and "+-3"
    is -3.  Whitespace may come before any token, but not inside an
    integer, 'O(' or 't^('.  Denominators must be positive, and no exponent
    may appear twice.  Other text raises SeriesSyntaxError with the offset
    of the first token out of place, or DuplicateExponent with the offset
    of the repeated term's first token."""
    terms = []
    seen = set()
    pos = 0
    try:
        while True:
            m = _TERM.match(text, pos)
            sign, cn, cs, cd, star, t, caret, paren, xn, xs, xd, close, xk = m.groups()
            if sign is None and pos:
                raise _expected(text, pos, "'+' or '-'")
            n = d = x = y = 1
            end = m.end()
            if cn is not None:
                n = int(cn)
                if cs:
                    if cd is None:
                        raise _expected(text, m.end(3), "an integer")
                    d = int(cd)
                    if d < 1:
                        raise SeriesSyntaxError("denominator must be positive", m.end(3))
                if star is None:
                    # a bare coefficient: the term ends with it
                    t = None
                    end = m.end(4 if cs else 2)
                elif t is None:
                    raise _expected(text, m.end(5), "'t'")
            elif t is None:
                raise _expected(text, m.end(1) if sign else 0, "an integer")
            if t is None:
                x = 0
            elif paren:
                if xn is None:
                    raise _expected(text, m.end(8), "an integer")
                x = int(xn)
                if xs:
                    if xd is None:
                        raise _expected(text, m.end(10), "an integer")
                    y = int(xd)
                    if y < 1:
                        raise SeriesSyntaxError("denominator must be positive", m.end(10))
                if close is None:
                    raise _expected(text, m.end(11 if xs else 9), "')'")
            elif xk is not None:
                x = int(xk)
            elif caret:
                raise _expected(text, m.end(7), "an integer")
            g = gcd(x, y)
            key = (x // g, y // g)
            if key in seen:
                # at the term's first token, after its sign and any blanks
                at = _SPACE.match(text, m.end(1)).end()
                raise DuplicateExponent(f"exponent {Fraction(x, y)} appears twice", at)
            seen.add(key)
            terms.append((x, y, -n if sign == "-" else n, d))
            if _END.match(text, end):
                return _from_ints(terms, None)
            m = _TAIL.match(text, end)
            if m:
                tp, fn, fs, fd, close, last = m.groups()
                if tp is None:
                    raise _expected(text, m.end(), "'t^('")
                if fn is None:
                    raise _expected(text, m.end(1), "an integer")
                n = int(fn)
                d = 1
                if fs:
                    if fd is None:
                        raise _expected(text, m.end(3), "an integer")
                    d = int(fd)
                    if d < 1:
                        raise SeriesSyntaxError("denominator must be positive", m.end(3))
                if close is None:
                    raise _expected(text, m.end(4 if fs else 2), "')'")
                if last is None:
                    raise _expected(text, m.end(5), "')'")
                if m.end() < len(text):
                    raise SeriesSyntaxError("text after O(...) tail", m.end())
                return _from_ints(terms, Fraction(n, d))
            pos = end
    except SeriesSyntaxError:
        raise
    except ValueError:
        # int() turned down a literal past its digit limit.  The literals are
        # the groups that end in a digit (\d is what str.isdecimal accepts),
        # and every one before it in the match was read.
        for i, s in enumerate(m.groups(), 1):
            if s and s[-1].isdecimal():
                try:
                    int(s)
                except ValueError:
                    raise SeriesSyntaxError("integer has too many digits", m.start(i)) from None
        raise


ZERO = PuiseuxElem(1, 1, (), None)
ONE = from_rational(1)
