"""The nonstandard symmetric space for SL(n) over truncated Puiseux series.

Points are symmetric positive-definite determinant-1 matrices; the group acts
by g.x = g x g^T. Cartan-projection valuations come from the Newton polygon of
det(lambda*x - y), and the Iwasawa retraction from trailing-principal-minor
ratios. No field division and no square roots anywhere in this pipeline.

Every determinant is read from one minor table (_minors), the first-row
Laplace expansion with each sub-minor computed once: the full minor for
mat_det and char_pencil, all trailing principal minors for retract and for
point validation (det = 1, then Sylvester's criterion), and a row's
cofactors, from the matrix without that row, for mat_adjugate.  Each table
runs on one integer lattice (series.to_lattice): one ramification index E
for the matrix and one integer scale per row, so every term of a minor
shares exponent denominator and coefficient denominator, and the table
builds each minor, a signed sum of products of bare integer pairs, with one
kernel call (series.lattice_ring).  Each result is put in canonical form
once, at the end (series.from_lattice), with the product of its rows'
scales; retract needs only the minors' lead exponents, ints over E, and
reads them off the lattice instead.  char_pencil substitutes
lambda = t^(B/E) in an exact pencil, so det(lambda*x - y) is one series
determinant whose terms split back into the coefficients of lambda by
exponent window; a floored pencil runs the table on polynomials in lambda
over the lattice.
"""

from fractions import Fraction
from math import lcm, prod

from .apartment import ApartmentVec
from .errors import PrecisionError, SeriesSyntaxError
from .rootsys import type_A
from .valfield import series as fs

# --- series matrices ---------------------------------------------------------


def mat_from_rows(rows):
    """A non-empty square matrix of PuiseuxElem entries; ValueError for any
    other shape and TypeError for any other entry."""
    m = tuple([tuple(row) for row in rows])
    for row in m:
        for v in row:
            if not isinstance(v, fs.PuiseuxElem):
                raise TypeError(f"cannot use {type(v).__name__} as a matrix entry")
    if not m or any(len(row) != len(m) for row in m):
        raise ValueError(
            f"matrix must be square and non-empty, got rows of lengths {[len(r) for r in m]}"
        )
    return m


def mat_identity(n):
    return tuple(
        [tuple([fs.ONE if i == j else fs.ZERO for j in range(n)]) for i in range(n)]
    )


def _nonzero(row):
    """(p, entry) for the entries of row that are not exactly zero."""
    return [(p, v) for p, v in enumerate(row) if v.pairs or v.floor is not None]


def _row_dot(nz, col):
    """sum_p v * col[p] over nz = _nonzero(row), left to right, skipping
    exact zeros of col.  An exactly-zero product adds nothing (add returns
    its other operand unchanged), so the sum is the full one byte for byte."""
    acc = fs.ZERO
    for p, v in nz:
        w = col[p]
        if w.pairs or w.floor is not None:
            acc = fs.add(acc, fs.mul(v, w))
    return acc


def mat_mul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        nz = _nonzero(row)
        out.append(tuple([_row_dot(nz, col) for col in cols]))
    return tuple(out)


def _minors(m, ring, masks):
    """The minors of m named by masks, from one bottom-up table.

    m has r <= c rows of c entries over the ring (is_zero, dot), where
    dot takes (a, b, negative) triples and returns the sum of a*b, or of
    -a*b where negative is set.  A mask with k set bits names the minor on
    the last k rows and the columns it sets: (1 << c) - 1 is the full minor of a square m, and
    (1 << c) - (1 << i) its trailing principal minor on rows and columns i..
    Each minor is expanded along its first row, columns ascending with sign
    (-1)^position, exactly-zero entries skipped.  A top-down pass marks every
    minor those expansions reach; a bottom-up pass builds each once, however
    many expansions share it.  For a dense square matrix that is
    sum_{k=2..c} C(c, k) * k ring products where the recursive expansion
    makes sum_{k=2..c} c!/(k - 1)!, and it is never more on any input.  Each
    minor is one dot call on the signed products its recursive expansion
    sums, so results are identical even on floored operands: the floor of a
    sum of products is the largest product floor, however the sum is
    grouped.

    The callers hand it series.lattice_ring on values from series.to_lattice
    (or, for a floored pencil, polynomials over it), so each minor is one
    kernel call on one lattice (one per degree on polynomials) and each
    result is read once, after the table.
    """
    is_zero, dot = ring
    rows = len(m)
    # levels[k]: the wanted or reached minors on the last k rows
    levels = [set() for _ in range(rows + 1)]
    for mask in masks:
        levels[mask.bit_count()].add(mask)
    # nonzero[k]: (bit, entry) for the nonzero entries of the row that
    # expands the minors on k rows
    nonzero = [None] * (rows + 1)
    for k in range(rows, 1, -1):
        nz = nonzero[k] = [(1 << j, v) for j, v in enumerate(m[rows - k]) if not is_zero(v)]
        below = levels[k - 1]
        for mask in levels[k]:
            for bit, _ in nz:
                if mask & bit:
                    below.add(mask ^ bit)
    last = m[-1]
    table = {mask: last[mask.bit_length() - 1] for mask in levels[1]}
    for k in range(2, rows + 1):
        nz = nonzero[k]
        for mask in levels[k]:
            # the sign is (-1)^(columns of mask left of this one)
            table[mask] = dot(
                [
                    (v, table[mask ^ bit], (mask & (bit - 1)).bit_count() & 1)
                    for bit, v in nz
                    if mask & bit
                ]
            )
    return [table[mask] for mask in masks]


def _series_minors(m, masks):
    """The minors of the series matrix m named by masks, from one table on
    one lattice.  A minor on the last k rows has the product of those rows'
    scales as its scale."""
    e, scales, rows = fs.to_lattice(m)
    minors = _minors(rows, fs.lattice_ring(e), masks)
    r = len(rows)
    return [
        fs.from_lattice(e, prod(scales[r - mask.bit_count() :]), v)
        for mask, v in zip(masks, minors)
    ]


def mat_det(a):
    """The full minor of the table: first-row Laplace expansion with shared
    sub-minors; exact, division-free."""
    return _series_minors(a, [(1 << len(a)) - 1])[0]


def mat_adjugate(a):
    """Transposed cofactors, division-free: one minor table per deleted
    row i holds all n cofactors of row i as its full-width minors."""
    n = len(a)
    if n == 1:
        return ((fs.ONE,),)
    full = (1 << n) - 1
    masks = [full ^ (1 << j) for j in range(n)]
    cof = []
    for i in range(n):
        minors = _series_minors(a[:i] + a[i + 1 :], masks)
        cof.append([d if (i + j) % 2 == 0 else fs.neg(d) for j, d in enumerate(minors)])
    return tuple(zip(*cof))


def _trailing_minors(m):
    """The trailing principal minors of m on rows and columns i.., i = 0..n-1,
    from one table; the first is det m."""
    n = len(m)
    return _series_minors(m, [(1 << n) - (1 << i) for i in range(n)])


def _is_one(d):
    r = fs.sub(d, fs.ONE)
    if r.pairs:
        return False
    if r.floor is not None and r.floor >= 0:
        raise PrecisionError(f"determinant's t^0 coefficient masked by floor {r.floor}")
    return True  # exactly zero, or masked only below t^0


# --- group and point types ---------------------------------------------------


class GroupElem:
    __slots__ = ("entries",)

    def __init__(self, entries, validate=True):
        self.entries = mat_from_rows(entries)
        if validate and not _is_one(mat_det(self.entries)):
            raise ValueError("determinant must be exactly 1")

    @property
    def n(self):
        return len(self.entries)

    @classmethod
    def identity(cls, n):
        return cls(mat_identity(n), validate=False)

    def __matmul__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        n, m = len(self.entries), len(other.entries)
        if n != m:
            raise ValueError(f"cannot multiply a {n} x {n} element by a {m} x {m} element")
        return GroupElem(mat_mul(self.entries, other.entries), validate=False)

    def inverse(self):
        # det = 1, so the inverse is the adjugate; stays division-free
        return GroupElem(mat_adjugate(self.entries), validate=False)

    def __eq__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"GroupElem({[[fs.to_str(v) for v in row] for row in self.entries]})"


class SPDPoint:
    __slots__ = ("entries",)

    def __init__(self, entries, validate=True):
        self.entries = mat_from_rows(entries)
        if validate:
            n = len(self.entries)
            for i in range(n):
                for j in range(i + 1, n):
                    if self.entries[i][j] != self.entries[j][i]:
                        raise ValueError("point must be symmetric")
            trailing = _trailing_minors(self.entries)
            if not _is_one(trailing[0]):
                raise ValueError("determinant must be exactly 1")
            # Sylvester's criterion (Horn and Johnson, Matrix Analysis,
            # ch. 7) on the row- and column-reversed matrix, which is
            # positive definite iff x is: all trailing principal minors are
            # positive, checked smallest first.  The proof by symmetric
            # elimination holds over any ordered field.
            for d in reversed(trailing):
                if fs.cmp(d, fs.ZERO) != fs.GT:
                    raise ValueError("point must be positive definite")

    @property
    def n(self):
        return len(self.entries)

    @classmethod
    def basepoint(cls, n):
        return cls(mat_identity(n), validate=False)

    def __eq__(self, other):
        if not isinstance(other, SPDPoint):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SPDPoint({[[fs.to_str(v) for v in row] for row in self.entries]})"


def act(g, x):
    """g.x = g x g^T; preserves all point invariants exactly.  Entry (i, j)
    for i <= j is sum_p (g x)_ip g_jp, summed as mat_mul sums it, and entry
    (j, i) is the same series."""
    if not (isinstance(g, GroupElem) and isinstance(x, SPDPoint)):
        raise TypeError(f"cannot act by a {type(g).__name__} on a {type(x).__name__}")
    n = g.n
    if x.n != n:
        raise ValueError(f"cannot act by a {n} x {n} element on a {x.n} x {x.n} point")
    g_rows = g.entries
    rows = [[None] * n for _ in range(n)]
    for i, left in enumerate(mat_mul(g_rows, x.entries)):
        nz = _nonzero(left)
        for j in range(i, n):
            rows[i][j] = rows[j][i] = _row_dot(nz, g_rows[j])
    return SPDPoint(rows, validate=False)


# --- Cartan valuations via Newton polygon ------------------------------------


def _polynomials(ring):
    """The ring (is_zero, dot) of polynomials, tuples of coefficients
    low degree first, over the given coefficient ring.  dot makes one
    coefficient dot call per degree, on the products of the nonzero
    coefficients whose degrees sum to it."""
    is_zero, dot = ring

    def poly_dot(terms):
        size = max([len(p) + len(q) - 1 for p, q, _ in terms], default=1)
        by_degree = [[] for _ in range(size)]
        for p, q, negative in terms:
            for i, a in enumerate(p):
                if is_zero(a):
                    continue
                for j, b in enumerate(q):
                    if not is_zero(b):
                        by_degree[i + j].append((a, b, negative))
        return tuple([dot(products) for products in by_degree])

    def poly_is_zero(p):
        return all(is_zero(a) for a in p)

    return poly_is_zero, poly_dot


def char_pencil(x, y):
    """Coefficients of q(lambda) = det(lambda*x - y), low degree first.  Row
    i of y and row i of x share one lattice scale, the scale of row i of the
    pencil.

    An exact pencil is one series determinant (Kronecker substitution in
    lambda alone; Harvey, J. Symbolic Comput. 44, 2009): lambda = t^(B/E),
    B one more than the sum of the rows' exponent spans, puts entry (i, j)
    at x_ij t^(B/E) - y_ij with the x terms above the y terms.  A product of
    one entry per row then has its exponent in the window d*B + [lo, lo + B),
    lo the sum of the row minima and d its degree in lambda, so the terms of
    det split back into q's coefficients by d = (k - lo) // B.  The
    substitution is a ring map and the windows are disjoint, so each
    coefficient is the one a polynomial table would build, term for term.
    A floored entry's floor bounds one lambda-coefficient only, so a floored
    pencil runs the table on polynomials in lambda instead."""
    n = x.n
    if y.n != n:
        raise ValueError(f"the pencil needs points of one size, got {n} x {n} and {y.n} x {y.n}")
    e, scales, rows = fs.to_lattice([y.entries[i] + x.entries[i] for i in range(n)])
    scale = prod(scales)
    full = [(1 << n) - 1]
    if any(f is not None for row in rows for _, f in row):
        # entry (i, j) of the pencil is the polynomial (-y_ij, x_ij)
        m = tuple(
            [
                tuple([((tuple([(k, -c) for k, c in yp]), yf), xv) for (yp, yf), xv in zip(row, row[n:])])
                for row in rows
            ]
        )
        q = _minors(m, _polynomials(fs.lattice_ring(e)), full)[0]
        return tuple([fs.from_lattice(e, scale, c) for c in q]) + (fs.ZERO,) * (n + 1 - len(q))
    b, lo = 1, 0
    for row in rows:
        ks = [k for pairs, _ in row if pairs for k in (pairs[0][0], pairs[-1][0])]
        if ks:
            b += max(ks) - min(ks)
            lo += min(ks)
    m = tuple(
        [
            tuple(
                [
                    (tuple([(k + b, c) for k, c in xp] + [(k, -c) for k, c in yp]), None)
                    for (yp, _), (xp, _) in zip(row, row[n:])
                ]
            )
            for row in rows
        ]
    )
    q = [[] for _ in range(n + 1)]
    for k, c in _minors(m, fs.lattice_ring(e), full)[0][0]:
        d = (k - lo) // b
        q[d].append((k - d * b, c))
    return tuple([fs.from_lattice(e, scale, (tuple(c), None)) for c in q])


def _upper_concave_hull(points):
    """Monotone chain over (k, v) with k increasing; keeps the upper hull."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop middle point when it lies on or below the chord
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def cartan_valuations(x, y):
    """Half the root negvals of det(lambda*x - y), sorted descending, as a
    tuple of Fractions: each is a slope of the Newton polygon, so none is
    Bottom."""
    return _pencil_valuations(char_pencil(x, y))


def _pencil_valuations(q):
    """Half the slopes of the upper Newton polygon of the pencil whose
    coefficients q holds low degree first, descending.  The polygon's points (k, lead exponent of q[n - k]) lie
    on one int lattice: E is the lcm of the visible coefficients' e, and
    each leading exponent is an int over E, so the hull compares ints and
    each slope makes one Fraction.  A masked coefficient is checked
    against the polygon as a Fraction.  The end coefficients are det(-y)
    and det(x), so an exactly-zero one is a singular point."""
    n = len(q) - 1
    if any(not c.pairs and c.floor is None for c in (q[0], q[n])):
        raise ValueError("an end coefficient of the pencil is zero, so a point is singular")
    e = lcm(*[c.e for c in q if c.pairs])
    known = []
    masked = []
    for k in range(n + 1):
        c = q[n - k]
        if c.pairs:
            known.append((k, c.pairs[0][0] * (e // c.e)))
        elif c.floor is not None:
            masked.append((k, c.floor))
        # exactly-zero coefficients contribute no Newton-polygon point
    hull = _upper_concave_hull(known)
    if not hull:
        raise PrecisionError("no coefficient of the pencil has a visible term")
    for k, bound in masked:
        if k < hull[0][0] or k > hull[-1][0] or bound > _hull_value_at(hull, k, e):
            raise PrecisionError(f"coefficient of degree {n - k} masked above the Newton polygon")
    mu = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        v = Fraction(y2 - y1, 2 * e * (x2 - x1))
        mu.extend([v] * (x2 - x1))
    return tuple(mu)


def _hull_value_at(hull, k, e):
    """The height of the int hull at x = k, over E = e, as a Fraction; k
    lies strictly between the first and the last hull point."""
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if k <= x2:
            return Fraction(y1 * (x2 - x1) + (y2 - y1) * (k - x1), e * (x2 - x1))


class _Distance(Fraction):
    """distance's value: a Fraction that is its own ``finite_value``."""

    __slots__ = ()

    @property
    def finite_value(self):
        return self


def distance(x, y):
    """Sum over ordered pairs i != j of |mu_i - mu_j|; a pseudo-distance,
    returned as a Fraction (Lambda = Q).  The mu are sorted descending, so
    mu_i enters n - 1 - i pairs i < j with sign + and i pairs j < i with
    sign -, twice each.  The Fraction subclass exists only for perfbench's
    two ``finite_value`` reads."""
    mu = cartan_valuations(x, y)
    n = len(mu)
    total = sum([(n - 1 - 2 * i) * v for i, v in enumerate(mu)], Fraction(0))
    return _Distance(2 * total)


# --- Iwasawa retraction ------------------------------------------------------


def retract(x):
    """Apartment coordinates of the upper-unipotent/diagonal factorization,
    read off trailing principal minors: mu_i = (negval M_i - negval M_{i+1})/2.
    The minors come from one table on one lattice, left there: each negval
    is its lead exponent k_i, an int over the lattice's E, so mu_i is
    (k_i - k_{i+1}) / 2E with k_n = 0.  The mu sum to negval(det x)/2.  An
    exactly-zero minor or a determinant that is not a unit, possible only on
    a point built without validation, raises ValueError; a minor whose
    floor masks its lead raises PrecisionError, as negval does."""
    n = x.n
    e, _, rows = fs.to_lattice(x.entries)
    lead = []
    for pairs, floor in _minors(rows, fs.lattice_ring(e), [(1 << n) - (1 << i) for i in range(n)]):
        if not pairs:
            if floor is None:
                raise ValueError(
                    "a trailing principal minor is zero, so the point is not positive definite"
                )
            raise PrecisionError(f"negval masked by floor {floor}")
        lead.append(pairs[0][0])
    if lead[0] != 0:
        raise ValueError("the determinant is not a unit, so the point does not have determinant 1")
    lead.append(0)
    mu = [Fraction(lead[i] - lead[i + 1], 2 * e) for i in range(n)]
    return ApartmentVec.from_mu(type_A(n - 1), mu)


# --- JSON --------------------------------------------------------------------


def matrix_to_json(obj):
    """The entries of a GroupElem or SPDPoint as rows of series strings."""
    return [[fs.to_str(v) for v in row] for row in obj.entries]


def _rows_from_json(data):
    """Series rows of decoded JSON; ValueError unless it is a list of lists of
    strings, for a 1 x 1 matrix (n must be at least 2), and one naming the
    1-based row and column of an entry that does not parse."""
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(isinstance(s, str) for s in row) for row in data
    ):
        raise ValueError("matrix must be a JSON list of rows, each a list of series strings")
    if len(data) == 1 and len(data[0]) == 1:
        raise ValueError("matrix is 1 x 1, but n must be at least 2")
    rows = []
    for i, row in enumerate(data, 1):
        out = []
        for j, s in enumerate(row, 1):
            try:
                out.append(fs.parse(s))
            except SeriesSyntaxError as exc:
                raise ValueError(f"row {i}, column {j}: {exc}") from exc
        rows.append(out)
    return rows


def group_from_json(data, validate=True):
    return GroupElem(_rows_from_json(data), validate=validate)


def point_from_json(data, validate=True):
    return SPDPoint(_rows_from_json(data), validate=validate)
