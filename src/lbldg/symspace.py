"""The nonstandard symmetric space for SL(n) over truncated Puiseux series.

Points are symmetric positive-definite determinant-1 matrices; the group acts
by g.x = g x g^T. Cartan-projection valuations come from the Newton polygon of
det(lambda*x - y), and the Iwasawa retraction from trailing-principal-minor
ratios. No field division and no square roots anywhere in this pipeline.
"""

from fractions import Fraction
from operator import attrgetter

from .apartment import ApartmentVec
from .errors import PrecisionError
from .rootsys import type_A
from .valfield import series as fs
from .valfield.lam import LambdaVal

# --- series matrices ---------------------------------------------------------


def _coerce_entry(v):
    if isinstance(v, fs.PuiseuxElem):
        return v
    if isinstance(v, str):
        return fs.parse(v)
    if isinstance(v, (int, Fraction)):
        return fs.from_rational(v)
    raise TypeError(f"cannot use {type(v).__name__} as a matrix entry")


def mat_from_rows(rows):
    """A non-empty square matrix of series; ValueError for any other shape."""
    m = tuple(tuple(_coerce_entry(v) for v in row) for row in rows)
    if not m or any(len(row) != len(m) for row in m):
        raise ValueError(
            f"matrix must be square and non-empty, got rows of lengths {[len(r) for r in m]}"
        )
    return m


def mat_identity(n):
    return tuple(
        tuple(fs.ONE if i == j else fs.ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    n, m = len(a), len(b[0])
    k = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = fs.ZERO
            for p in range(k):
                acc = fs.add(acc, fs.mul(a[i][p], b[p][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_transpose(a):
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def _laplace(m, ring):
    """Determinant by Laplace expansion along the first row over the
    commutative ring given by ring = (zero, is_zero, add, neg, mul); exact
    and division-free.  Exactly-zero first-row entries contribute no term."""
    n = len(m)
    if n == 1:
        return m[0][0]
    zero, is_zero, add, neg, mul = ring
    acc = zero
    for j in range(n):
        if is_zero(m[0][j]):
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        term = mul(m[0][j], _laplace(minor, ring))
        acc = add(acc, term if j % 2 == 0 else neg(term))
    return acc


def mat_det(a):
    """Laplace expansion along the first row; exact, division-free."""
    # the series operations are looked up per call, so wrappers placed on
    # the series module (as perfbench's tracer does) see every product
    return _laplace(a, (fs.ZERO, attrgetter("is_zero"), fs.add, fs.neg, fs.mul))


def mat_adjugate(a):
    n = len(a)
    if n == 1:
        return ((fs.ONE,),)
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                r[:j] + r[j + 1 :] for k, r in enumerate(a) if k != i
            )
            d = mat_det(minor)
            row.append(d if (i + j) % 2 == 0 else fs.neg(d))
        cof.append(tuple(row))
    return mat_transpose(tuple(cof))


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
        return GroupElem(mat_mul(self.entries, other.entries), validate=False)

    def transpose(self):
        return GroupElem(mat_transpose(self.entries), validate=False)

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
            if not _is_one(mat_det(self.entries)):
                raise ValueError("determinant must be exactly 1")
            for k in range(1, n + 1):
                lead = tuple(row[:k] for row in self.entries[:k])
                if fs.cmp(mat_det(lead), fs.ZERO) != fs.GT:
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
    """g.x = g x g^T; preserves all point invariants exactly."""
    gx = mat_mul(g.entries, x.entries)
    return SPDPoint(mat_mul(gx, mat_transpose(g.entries)), validate=False)


# --- Cartan valuations via Newton polygon ------------------------------------


def _poly_add(p, q):
    n = max(len(p), len(q))
    p = p + (fs.ZERO,) * (n - len(p))
    q = q + (fs.ZERO,) * (n - len(q))
    return tuple(fs.add(a, b) for a, b in zip(p, q))


def _poly_neg(p):
    return tuple(fs.neg(a) for a in p)


def _poly_mul(p, q):
    out = [fs.ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero:
            continue
        for j, b in enumerate(q):
            if b.is_zero:
                continue
            out[i + j] = fs.add(out[i + j], fs.mul(a, b))
    return tuple(out)


def _poly_is_zero(p):
    return all(a.is_zero for a in p)


_POLYNOMIALS = ((fs.ZERO,), _poly_is_zero, _poly_add, _poly_neg, _poly_mul)


def char_pencil(x, y):
    """Coefficients of q(lambda) = det(lambda*x - y), low degree first."""
    n = x.n
    m = tuple(
        tuple((fs.neg(y.entries[i][j]), x.entries[i][j]) for j in range(n))
        for i in range(n)
    )
    q = _laplace(m, _POLYNOMIALS)
    return q + (fs.ZERO,) * (n + 1 - len(q))


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


def _hull_value_at(hull, k):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= k <= x2:
            return y1 + (y2 - y1) * (k - x1) / (x2 - x1)
    raise ValueError("k outside hull span")


class CartanVals(tuple):
    """Sorted (descending) eigen-negval halves, as LambdaVal entries."""

    __slots__ = ()

    @property
    def mu(self):
        return tuple(self)


def cartan_valuations(x, y):
    """Half the root negvals of det(lambda*x - y), sorted descending."""
    q = char_pencil(x, y)
    n = x.n
    known = []
    masked = []
    for k in range(n + 1):
        c = q[n - k]
        lead = fs.lead_exp(c)
        if lead is not None:
            known.append((Fraction(k), lead))
        elif c.floor is not None:
            masked.append((Fraction(k), c.floor))
        # exactly-zero coefficients contribute no Newton-polygon point
    hull = _upper_concave_hull(known)
    if not hull:
        raise PrecisionError("no coefficient of the pencil has a visible term")
    for k, bound in masked:
        if k > hull[-1][0] or k < hull[0][0] or bound > _hull_value_at(hull, k):
            raise PrecisionError(
                f"coefficient of degree {n - int(k)} masked above the Newton polygon"
            )
    if hull[0][0] != 0 or hull[-1][0] != n:
        raise PrecisionError("endpoint coefficient of the pencil is masked")
    mu = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        mu.extend([slope / 2] * int(x2 - x1))
    return CartanVals(LambdaVal.of(v) for v in mu)


def distance(x, y):
    """Sum over ordered pairs i != j of |mu_i - mu_j|; a pseudo-distance."""
    mu = [v.finite_value for v in cartan_valuations(x, y)]
    total = Fraction(0)
    for i in range(len(mu)):
        for j in range(len(mu)):
            if i != j:
                total += abs(mu[i] - mu[j])
    return LambdaVal.of(total)


def equivalent(x, y):
    return distance(x, y) == LambdaVal.of(0)


# --- Iwasawa retraction ------------------------------------------------------


def retract(x):
    """Apartment coordinates of the upper-unipotent/diagonal factorization,
    read off trailing principal minors: mu_i = (negval M_i - negval M_{i+1})/2."""
    n = x.n
    nv = []
    for i in range(n):
        block = tuple(row[i:] for row in x.entries[i:])
        nv.append(fs.negval(mat_det(block)).finite_value)
    nv.append(Fraction(0))
    mu = [(nv[i] - nv[i + 1]) / 2 for i in range(n)]
    return ApartmentVec.from_mu(type_A(n - 1), mu)


# --- JSON --------------------------------------------------------------------


def matrix_to_json(obj):
    entries = obj.entries if hasattr(obj, "entries") else obj
    return [[fs.to_str(v) for v in row] for row in entries]


def _rows_from_json(data):
    """Series rows of decoded JSON; ValueError unless it is a list of lists of strings."""
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(isinstance(s, str) for s in row) for row in data
    ):
        raise ValueError("matrix must be a JSON list of rows, each a list of series strings")
    return [[fs.parse(s) for s in row] for row in data]


def group_from_json(data, validate=True):
    return GroupElem(_rows_from_json(data), validate=validate)


def point_from_json(data, validate=True):
    return SPDPoint(_rows_from_json(data), validate=validate)
