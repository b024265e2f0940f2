"""Reference oracles for the tests: a brute-force membership search, a
greedy Iwasawa witness search, Fraction Gauss-Jordan elimination, the
direct forms of act, the Newton polygon, chart_image, the overlap's
difference systems, the region witness and the half-apartment stabilizer
shape that the package computes on lattice ints, from shared blocks or with
explicit None checks, and a character scanner and printer for series text on
Fractions, each independent of the algorithm it checks.  fractions is the
one Hypothesis strategy here: st.fractions' draws, from strategies built
once.

Valuations here are Lam values: Lambda = Q with Bottom as a value of its
own, below every finite value and absorbing under addition.  The package
encodes Bottom as None and handles it at each call site; Lam(v) lifts such
a value, so the two encodings can be compared.

The witness search factors g = u . n . k with u upper unipotent, n a diagonal
monomial matrix of determinant one, and k a matrix over O.  It runs a greedy
leading-vector elimination: rows are finalized bottom up, and while the top
coefficient vector of row i at its peak exponent lies in the rational span
of the lower rows' top vectors, the matching monomial combination of lower
rows is subtracted.  When every row's top vector escapes that span the top
vectors are linearly independent, so the determinant's leading exponent is
the sum of the row peaks; det g = 1 then forces the peaks to sum to zero,
making diag(t^peak) special and leaving the scaled rows over O.
"""

from fractions import Fraction
from functools import total_ordering
from itertools import permutations, product
from math import lcm

from hypothesis import strategies as st

from lbldg.apartment import ApartmentVec
from lbldg.errors import DuplicateExponent, PrecisionError, SeriesSyntaxError
from lbldg.symspace import GroupElem, SPDPoint
from lbldg.valfield import series as fs

MAX_STEPS = 500


# --- Lambda with Bottom ------------------------------------------------------------


@total_ordering
class Lam:
    """A value of Lambda = Q with Bottom: Lam(None) is Bottom, and Lam(q)
    for a Fraction q is finite."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        if self.v is None or other.v is None:
            return BOTTOM
        return Lam(self.v + other.v)

    def __eq__(self, other):
        return isinstance(other, Lam) and self.v == other.v

    def __lt__(self, other):
        if self.v is None:
            return other.v is not None
        return other.v is not None and self.v < other.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return "Bottom" if self.v is None else f"Lam({self.v})"


BOTTOM = Lam(None)


def valuation(a):
    """-v(a) as a Lam, read from the visible terms: the leading exponent, or
    Bottom for the exact zero; PrecisionError when the floor masks it."""
    if a.terms:
        return Lam(a.terms[0][0])
    if a.floor is None:
        return BOTTOM
    raise PrecisionError(f"negval masked by floor {a.floor}")


def valuations(g):
    """valuation of every entry of g, row by row; the first masked entry's
    error is led by its 1-based row and column."""
    rows = []
    for i, row in enumerate(g.entries, 1):
        out = []
        for j, e in enumerate(row, 1):
            try:
                out.append(valuation(e))
            except PrecisionError as exc:
                raise PrecisionError(f"row {i}, column {j}: {exc}") from exc
        rows.append(out)
    return rows


# --- Fraction linear algebra ----------------------------------------------------


def identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][p] * b[p][j] for p in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def row_reduce(a, ncols):
    """Gauss-Jordan elimination in place on the rows of a (lists of
    Fraction) over its first ncols columns, leaving them in reduced row
    echelon form; later columns ride along as augmented columns.

    Returns the pivot columns in order."""
    nrows = len(a)
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv_p = 1 / a[row][col]
        a[row] = [x * inv_p for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    return pivots


def mat_inv(m):
    """Gauss-Jordan inverse over Fraction; ValueError on a singular matrix."""
    n = len(m)
    a = [[Fraction(x) for x in row] + ident_row for row, ident_row in zip(m, identity(n))]
    if len(row_reduce(a, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in a]


# --- act, the Newton polygon and chart_image in their direct forms ------------


def act(g, x):
    """g x g^T as two full matrix products, every product summed left to
    right, exact zeros included."""

    def product(a, b):
        out = []
        for row in a:
            out_row = []
            for col in zip(*b):
                acc = fs.ZERO
                for v, w in zip(row, col):
                    acc = fs.add(acc, fs.mul(v, w))
                out_row.append(acc)
            out.append(tuple(out_row))
        return tuple(out)

    gx = product(g.entries, x.entries)
    return SPDPoint(product(gx, tuple(zip(*g.entries))), validate=False)


def pencil_valuations(q):
    """Half the slopes of the upper Newton polygon of the pencil q (low
    degree first), with every point, height and slope a Fraction.  An
    exactly-zero end coefficient is a singular point."""
    n = len(q) - 1
    if any(c.is_zero for c in (q[0], q[n])):
        raise ValueError("an end coefficient of the pencil is zero, so a point is singular")
    known = []
    masked = []
    for k in range(n + 1):
        c = q[n - k]
        if c.pairs:
            known.append((Fraction(k), fs.negval(c)))
        elif c.floor is not None:
            masked.append((Fraction(k), c.floor))
    hull = []
    for p in known:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    if not hull:
        raise PrecisionError("no coefficient of the pencil has a visible term")

    def height(k):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= k <= x2:
                return y1 + (y2 - y1) * (k - x1) / (x2 - x1)
        raise ValueError("k outside hull span")

    for k, bound in masked:
        if k > hull[-1][0] or k < hull[0][0] or bound > height(k):
            raise PrecisionError(
                f"coefficient of degree {n - int(k)} masked above the Newton polygon"
            )
    mu = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        mu.extend([slope / 2] * int(x2 - x1))
    return tuple(mu)


def chart_image(g, mu):
    """r_i = max_j (valuation(g_ij) + mu_j) in Lam, with the valuations
    read entry by entry in row-major order; the point when the r_i sum to
    zero, else None."""
    rs = mu.rs
    if g.n != rs.rank + 1:
        raise ValueError(f"chart size {g.n} and point size {rs.rank + 1} disagree")
    T = valuations(g)
    mv = [Lam(m) for m in mu.to_mu()]
    r = []
    for row in T:
        best = BOTTOM
        for t, m in zip(row, mv):
            if best < t + m:
                best = t + m
        r.append(best)
    total = r[0]
    for v in r[1:]:
        total = total + v
    if total != Lam(Fraction(0)):
        return None
    return ApartmentVec.from_mu(rs, [v.v for v in r])


def overlap_systems(S):
    """The optimal permutations' difference systems for trop's int matrix S
    (None for Bottom): when the tropical permanent is 0, one per optimal
    permutation sigma in lex order, each built on its own as the triples
    (sigma(i) + 1, j + 1, S_ij - S_i,sigma(i)) over rows i and then columns
    j != sigma(i) with S_ij finite; otherwise none.  apartment_overlap
    returns the first one's region, which every optimal system presents
    (test_building.TestOptimalRegionsAgree)."""
    tots = {}
    for sigma in permutations(range(len(S))):
        picked = [row[a] for row, a in zip(S, sigma)]
        if None not in picked:
            tots[sigma] = sum(picked)
    if not tots or max(tots.values()) != 0:
        return []
    return [
        [
            (a + 1, j + 1, s - row[a])
            for row, a in zip(S, sigma)
            for j, s in enumerate(row)
            if j != a and s is not None
        ]
        for sigma, tot in tots.items()
        if tot == 0
    ]


def fraction_witness(s):
    """wconvex_witness as the package computed it on Fraction thresholds:
    Bellman-Ford from Fraction zeros on the region's (i, j, ell) triples,
    then the potentials minus their mean, or None for an infeasible
    region."""
    m = s.rs.rank + 1
    cons = [s.rs.alpha(*h.root) + (Fraction(h.threshold),) for h in s.constraints]
    d = [Fraction(0)] * m
    for _ in range(m):
        for i, j, ell in cons:
            d[j - 1] = min(d[j - 1], d[i - 1] - ell)
    if any(d[i - 1] - d[j - 1] < ell for i, j, ell in cons):
        return None
    shift = Fraction(sum(d), m)
    return tuple(v - shift for v in d)


def half_apartment_shape(g, root, ell):
    """Whether g has the shape of the stabilizer of {mu_i - mu_j >= ell},
    root = (i, j): units on the diagonal, valuation(g_ij) <= ell in Lam's
    order, and every other entry provably zero.  Entries are read in
    row-major order, and the first that fails decides."""
    wall = (root[0] - 1, root[1] - 1)
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            if i == j:
                ok = fs.is_unit(e)
            elif (i, j) == wall:
                ok = valuation(e) <= Lam(ell)
            else:
                ok = fs.provably_zero(e)
            if not ok:
                return False
    return True


# --- membership and Iwasawa witnesses -------------------------------------------


def brute_membership(g, mu, denom=2):
    """Independent membership oracle: search for a diagonal monomial witness
    c with c^(-1) . g . diag(t^mu) entrywise in O, scanning candidate
    exponent tuples on the (1/denom)-integer grid inside a negval-derived box.

    Any witness exponent is at least -B with B = max|negval(g_ij)| + max|mu|
    (rows are not identically zero), and the sum-zero condition then caps it
    by (n-1)B, so the box [-B-1, (n-1)B+1]^n holds every witness."""
    n = g.n
    mv = mu.to_mu()
    a = GroupElem(
        [
            [fs.monomial(mv[i]) if i == j else fs.ZERO for j in range(n)]
            for i in range(n)
        ],
        validate=False,
    )
    m = g @ a
    vals = (valuation(e) for row in g.entries for e in row)
    finite = [abs(v.v) for v in vals if v != BOTTOM]
    b = max(finite) + max(abs(x) for x in mv)
    lo, hi = -b - 1, (n - 1) * b + 1
    axis = [Fraction(k, denom) for k in range(int(denom * lo), int(denom * hi) + 1)]
    for head in product(axis, repeat=n - 1):
        nu = list(head) + [-sum(head)]
        if not lo <= nu[-1] <= hi:
            continue
        if all(
            fs.in_O(fs.mul(fs.monomial(-nu[i]), m.entries[i][j]))
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def solve_combo(basis, v):
    """Rationals lam with sum(lam_k * basis[k]) = v, or None."""
    if not basis:
        return None
    m = len(basis)
    aug = [[b[r] for b in basis] + [v[r]] for r in range(len(v))]
    pivots = row_reduce(aug, m)
    if any(row[m] for row in aug[len(pivots):]):
        return None
    lam = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        lam[col] = aug[r][m]
    return lam


def iwasawa_witness(g):
    """(u, n, k) with g = u @ n @ k exactly, or None if the greedy search
    stalls.  Requires exact entries."""
    size = g.n
    for r in g.entries:
        for e in r:
            if e.floor is not None:
                raise ValueError("the witness search needs exact entries")
    rows = [list(r) for r in g.entries]
    uinv = [[fs.ONE if i == j else fs.ZERO for j in range(size)] for i in range(size)]
    peaks = [None] * size
    tops = [None] * size
    for i in range(size - 1, -1, -1):
        for _ in range(MAX_STEPS):
            peak = max(valuation(e) for e in rows[i])
            if peak == BOTTOM:
                return None
            m = peak.v
            v = [fs.coef_at(e, m) for e in rows[i]]
            lower = list(range(i + 1, size))
            lam = solve_combo([tops[k] for k in lower], v)
            if lam is None:
                peaks[i], tops[i] = m, v
                break
            for k, l in zip(lower, lam):
                if not l:
                    continue
                shift = fs.monomial(m - peaks[k], l)
                for j in range(size):
                    rows[i][j] = fs.sub(rows[i][j], fs.mul(shift, rows[k][j]))
                    uinv[i][j] = fs.sub(uinv[i][j], fs.mul(shift, uinv[k][j]))
        else:
            return None
    if sum(peaks) != 0:
        return None
    u = GroupElem(uinv).inverse()
    n_elem = GroupElem(
        [
            [fs.monomial(peaks[i]) if i == j else fs.ZERO for j in range(size)]
            for i in range(size)
        ]
    )
    k = n_elem.inverse() @ GroupElem(rows, validate=False)
    return u, n_elem, k


# --- series text on Fractions ---------------------------------------------------
#
# The scanner parser and the printer that series.parse and series.to_str
# replaced: one Fraction per token and per printed term, and the canonical
# element built from a Fraction dict.


def series_from_terms(pairs, floor=None):
    """The canonical element of (exponent, coefficient) pairs, equal
    exponents summed, terms at or below floor dropped."""
    acc = {}
    for x, c in pairs:
        x, c = Fraction(x), Fraction(c)
        acc[x] = acc.get(x, Fraction(0)) + c
    floor = None if floor is None else Fraction(floor)
    visible = [(x, c) for x, c in acc.items() if c and (floor is None or x > floor)]
    e = lcm(*(x.denominator for x, _ in visible))
    d = lcm(*(c.denominator for _, c in visible))
    kn = sorted(
        ((x.numerator * (e // x.denominator), c.numerator * (d // c.denominator)) for x, c in visible),
        reverse=True,
    )
    return fs.PuiseuxElem(e, d, tuple(kn), floor)


def _fmt_exp(e):
    if e == 1:
        return "t"
    if e.denominator == 1 and e >= 2:
        return f"t^{e}"
    return f"t^({e})"


def series_str(a):
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


def parse_series(text):
    """Series text read one character at a time.  A run of digits is what
    str.isdigit accepts, so a superscript or an over-long literal reaches
    int() and raises its plain ValueError."""
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
        sc.skip_ws()
        where = sc.pos
        e, c = _parse_term(sc)
        record(e, sign * c, where)
    return series_from_terms(seen.items(), floor)


def random_terms(rng):
    """Seeded (pairs, floor): up to five (exponent, coefficient) pairs over
    exponent denominators 1-6, some coefficients zero and some exponents
    repeated, and by turns no floor or one below, between or above them."""
    pairs = [
        (
            Fraction(rng.randint(-12, 12), rng.choice([1, 1, 1, 2, 3, 4, 6])),
            Fraction(rng.choice([-1, 1]) * rng.randint(0, 12), rng.choice([1, 1, 2, 3, 5])),
        )
        for _ in range(rng.randint(0, 5))
    ]
    floor = None
    if rng.random() < 0.4:
        floor = Fraction(rng.randint(-14, 6), rng.choice([1, 2, 3]))
    return pairs, floor


def fractions(lo, hi, max_denominator):
    """st.fractions(lo, hi, max_denominator=...) for int bounds, with the
    same two draws: a denominator d, then a numerator between lo * d and
    hi * d.  Hypothesis's own builds a new numerator strategy for every
    value it draws and validates it again; these are built once."""
    by_denominator = {
        d: st.integers(lo * d, hi * d).map(lambda k, d=d: Fraction(k, d))
        for d in range(1, max_denominator + 1)
    }
    return st.integers(1, max_denominator).flatmap(by_denominator.__getitem__)


def random_series(rng):
    """The canonical element of random_terms(rng)."""
    return series_from_terms(*random_terms(rng))


def series_texts(rng, count, tokens):
    """count seeded strings: half of them concatenate up to 12 of tokens; the
    other half print a random_series and then insert, delete or replace up
    to two characters, with whitespace and tokens drawn from tokens."""
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append("".join(rng.choice(tokens) for _ in range(rng.randint(0, 12))))
            continue
        text = series_str(random_series(rng))
        for _ in range(rng.choice([0, 0, 1, 2])):
            at = rng.randint(0, len(text))
            how = rng.randrange(3)
            if how == 0:
                text = text[:at] + rng.choice(tokens) + text[at:]
            elif how == 1:
                text = text[:at] + text[at + 1 :]
            else:
                text = text[:at] + rng.choice(tokens) + text[at + 1 :]
        out.append(text)
    return out
