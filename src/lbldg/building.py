"""Charts of the affine building for SL(n): tropical membership, the
apartment-overlap algorithm, root subgroups, rank-one reflections, and
stabilizer shape predicates.

A chart is a group element g read as the map mu -> g . x_mu, where
x_mu = diag(t^(2 mu_1), ..., t^(2 mu_n)) and mu has exact sum zero.  The
standard apartment is the chart of the identity.  Everything here is exact:
the only series operations used are negval, products by monomials, and the
ring-membership tests.  trop reads a chart's negvals once, as ints on one
lattice, for chart_image, apartment_overlap and trop_radius, and x_mu builds
each monomial t^(k/e) from ints.  Apartment coordinates, thresholds and
valuations are plain Fractions, and the valuation of 0 (Bottom) is None.
"""

from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import NamedTuple

from .apartment import (
    ApartmentVec,
    HalfApartment,
    WConvexSet,
    affine_from_mu,
    difference_potentials,
    wconvex_to_json,
)
from .errors import AmbiguousWeyl, ConfigError, EnumerationBound, IdentityElement
from .rootsys import type_A
from .symspace import GroupElem, SPDPoint
from .valfield import series as fs

# Permutation enumeration stays exhaustive up to this matrix size.
PERM_BOUND = 5

# Lattice room kept past the pole when a reflection needs a truncated inverse.
INV_TAIL = 6


# --- charts and apartment points ----------------------------------------------


def x_mu(mu):
    """The apartment point diag(t^(2 mu_i)) as a symmetric-space point; mu
    is an ApartmentVec or a list read by ApartmentVec.from_mu."""
    if not isinstance(mu, ApartmentVec):
        mu = ApartmentVec.from_mu(type_A(len(mu) - 1), mu)
    n = mu.rs.rank + 1
    rows = [[fs.ZERO] * n for _ in range(n)]
    for i, m in enumerate(mu.to_mu()):
        # t^(2 m) = t^(k/e) in lowest terms, for m = p/q in lowest terms
        p, q = m.numerator, m.denominator
        e, k = (q // 2, p) if q % 2 == 0 else (q, 2 * p)
        rows[i][i] = fs.PuiseuxElem(e, 1, ((k, 1),), None)
    return SPDPoint(rows, validate=False)


def trop(g):
    """The tropical matrix of a group element on one lattice, as (L, S).

    L is the lcm of the entries' exponent denominators e, and S[i][j] is the
    int k with negval(g_ij) = k / L, or None for an exact zero (Bottom).  A
    masked entry raises negval's PrecisionError, for the first one in
    row-major order.
    """
    L = lcm(*(a.e for row in g.entries for a in row))
    # an entry with no visible term is an exact zero, whose negval is None
    # (Bottom), or masked, and then negval raises
    return L, [
        [a.pairs[0][0] * (L // a.e) if a.pairs else fs.negval(a) for a in row]
        for row in g.entries
    ]


def trop_radius(g):
    """The largest |negval| over the finite entries of g, 0 when there is
    none; masked entries raise as in trop."""
    L, S = trop(g)
    return Fraction(max((abs(v) for row in S for v in row if v is not None), default=0), L)


def chart_image(g, mu):
    """Coordinates of g . x_mu in the standard apartment, or None.

    With T = trop(g) and r_i = max_j (T_ij + mu_j), the point lies in the
    standard apartment iff sum_i r_i = 0, and then its coordinates are r.
    r_i is the least exponent a diagonal monomial witness can carry in row
    i, and det g = 1 forces sum_i r_i >= 0; see apartment_overlap for the
    full membership argument.

    r is computed on the lattice 1/scale, scale the lcm of trop's L and of
    mu's denominators.  An exact zero (Bottom) enters no maximum, a masked
    entry raises trop's PrecisionError, and a row of exact zeros makes r_i
    Bottom, so the point lies outside.
    """
    rs = mu.rs
    n = rs.rank + 1
    if g.n != n:
        raise ValueError("chart size and apartment rank disagree")
    L, S = trop(g)
    mv = mu.to_mu()
    scale = lcm(L, *[m.denominator for m in mv])
    m_int = [m.numerator * (scale // m.denominator) for m in mv]
    up = scale // L
    r = []
    for row in S:
        best = None
        for s, m in zip(row, m_int):
            if s is not None:
                cand = s * up + m
                if best is None or cand > best:
                    best = cand
        r.append(best)
    if None in r or sum(r) != 0:
        return None
    return ApartmentVec.from_mu(rs, [Fraction(v, scale) for v in r])


def apartment_overlap(g):
    """Overlap of the chart of g with the standard apartment, as a pair
    (region, weyl), or None when they are disjoint.

    Membership of mu is sum_i max_j (T_ij + mu_j) = 0 with T = trop(g)
    (chart_image).  Each summand is >= T_{i sigma(i)} + mu_{sigma(i)} for
    every permutation sigma, so the total is >= P := max_sigma sum_i
    T_{i sigma(i)}, the tropical permanent.  Expanding det g = 1 shows some
    permutation's entries multiply to a series of negval >= 0, hence P >= 0.
    If P > 0 the overlap is empty.  If every permutation meets an exact
    zero there is no P: g is singular and ValueError is raised.  P < 0
    forces negval(det g) < 0, so det g != 1 and g (built without
    validation) is not in SL(n): ValueError again.  If P = 0,
    membership holds exactly when some optimal sigma attains every row
    maximum, i.e. on

        region(sigma) = {mu : T_ij + mu_j <= T_{i sigma(i)} + mu_{sigma(i)}},

    and there chart_image agrees with the affine map
    nu_i = T_{i sigma(i)} + mu_{sigma(i)}.

    Distinct optimal permutations present the same region: for mu in
    region(sigma) the row maxima sum to P + sum(mu) = 0, and for any other
    optimal tau the terms T_{i tau(i)} + mu_{tau(i)} also sum to 0 while
    each is bounded by the row maximum, forcing termwise equality; so mu
    satisfies region(tau) as well.  The coverage check below verifies this
    on computed witnesses instead of trusting the argument, and raises
    AmbiguousWeyl on any counterexample.  The returned weyl element uses
    the lexicographically smallest optimal permutation.

    The search runs on trop's int matrix S = L T (None for Bottom).  Scaling
    by L > 0 keeps every sum, difference and comparison, so S has the same
    optimal permutations, and region(sigma) becomes the int difference
    system d_{sigma(i)} - d_j >= S_ij - S_{i sigma(i)}, whose Bellman-Ford
    potentials are exactly L times the rational ones.  The coverage check
    asks, for each optimal sigma in lex order, whether every witness
    satisfies that system; this is the test in_wconvex(region(sigma), w) on
    the rational witnesses, since shifting a witness to sum zero cancels in
    every difference.  Only the returned permutation's system, divided by
    L, and its affine map are built as apartment objects.
    """
    n = g.n
    if n > PERM_BOUND:
        raise EnumerationBound(f"permutation enumeration capped at n = {PERM_BOUND}")
    rs = type_A(n - 1)
    L, S = trop(g)
    best = None
    opt = []
    for sigma in permutations(range(n)):
        tot = 0
        for row, a in zip(S, sigma):
            if row[a] is None:
                break
            tot += row[a]
        else:
            if best is None or tot > best:
                best = tot
                opt = [sigma]
            elif tot == best:
                opt.append(sigma)
    if not opt:
        raise ValueError("no permutation has a finite tropical product, so g is singular")
    if best > 0:
        return None
    if best < 0:
        raise ValueError("the tropical permanent is negative, so g is not in SL(n)")
    # region(sigma) as triples (i, j, ell): d_i - d_j >= ell, labels 1-based
    systems = [
        [
            (a + 1, j + 1, s - row[a])
            for row, a in zip(S, sigma)
            for j, s in enumerate(row)
            if j != a and s is not None
        ]
        for sigma in opt
    ]
    points = [d for d in (difference_potentials(n, cons) for cons in systems) if d is not None]
    if not points:
        raise AmbiguousWeyl("no feasible region despite a zero tropical permanent")
    for sigma, cons in zip(opt, systems):
        if all(d[i - 1] - d[j - 1] >= ell for d in points for i, j, ell in cons):
            region = WConvexSet(
                rs, tuple(HalfApartment(rs.alpha(i, j), Fraction(ell, L)) for i, j, ell in cons)
            )
            c = [Fraction(row[a], L) for row, a in zip(S, sigma)]
            return region, affine_from_mu(rs, [a + 1 for a in sigma], c)
    raise AmbiguousWeyl("no optimal permutation's region covers all witnesses")


def overlap_to_json(result):
    if result is None:
        return {"empty": True}
    region, w = result
    return {
        "constraints": wconvex_to_json(region),
        "weyl": {
            "perm": list(w.perm),
            "translation": [str(v) for v in w.translation.to_mu()],
        },
    }


# --- stabilizers ----------------------------------------------------------------


def stab_o(g):
    """True iff g fixes the base point: every entry lies in O."""
    return all(fs.in_O(e) for row in g.entries for e in row)


POINT_O = "PointO"
APARTMENT_POINTWISE = "ApartmentPointwise"
CHAMBER_C0 = "ChamberC0"


def _stab_shape(g, off_diagonal):
    """Row-major scan: diagonal entries are units, and off_diagonal(i, j, e)
    holds for every other entry (0-based i, j)."""
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            if not (fs.is_unit(e) if i == j else off_diagonal(i, j, e)):
                return False
    return True


def stab_predicates(g, target):
    """Matrix-shape membership tests for the four stabilizer groups: the
    base-point stabilizer, the pointwise apartment stabilizer, the pointwise
    chamber stabilizer, and a half-apartment stabilizer (target a
    HalfApartment, whose root must be one of type_A(n - 1))."""
    if target == POINT_O:
        return stab_o(g)
    if target == APARTMENT_POINTWISE:
        return _stab_shape(g, lambda i, j, e: fs.provably_zero(e))
    if target == CHAMBER_C0:
        return _stab_shape(g, lambda i, j, e: fs.provably_zero(e) if i > j else fs.in_O(e))
    if isinstance(target, HalfApartment):
        i, j = type_A(g.n - 1).alpha(*target.root)
        ell = target.threshold
        wall = (i - 1, j - 1)

        def off_diagonal(i, j, e):
            if (i, j) != wall:
                return fs.provably_zero(e)
            v = fs.negval(e)
            return v is None or v <= ell  # Bottom lies below every threshold

        return _stab_shape(g, off_diagonal)
    raise ConfigError(f"unknown stabilizer target: {target!r}")


# --- root subgroups --------------------------------------------------------------


class RootElem(NamedTuple):
    """The root subgroup element Id + s E_{ij} inside SL(n); 1-based i != j."""

    n: int
    i: int
    j: int
    s: object

    def as_group(self):
        type_A(self.n - 1).alpha(self.i, self.j)  # NotARoot for any other pair
        rows = [
            [fs.ONE if a == b else fs.ZERO for b in range(self.n)]
            for a in range(self.n)
        ]
        rows[self.i - 1][self.j - 1] = self.s
        return GroupElem(rows, validate=False)


def phi(u):
    """Root group valuation: negval of the parameter, None (Bottom) iff u is
    Id.  A pair (i, j) that names no root raises NotARoot before s is read."""
    type_A(u.n - 1).alpha(u.i, u.j)
    return fs.negval(u.s)


def fixed_set_root(u):
    """Half-apartment fixed by u: {mu_i - mu_j >= phi(u)}."""
    ell = phi(u)
    if ell is None:
        raise IdentityElement("the identity fixes every point")
    return HalfApartment((u.i, u.j), ell)  # phi checked that (i, j) is a root


def m_of(u):
    """Rank-one reflection representative: embeds [[0, s], [-1/s, 0]] into
    rows and columns (i, j) of the identity.

    Returns (element, root, level), the level a Fraction.  The element is
    exact when s is a monomial; otherwise the inverse is truncated INV_TAIL
    lattice steps past what the level requires.  Its apartment action is
    the affine reflection in the wall {mu_i - mu_j = level}: it fixes the
    wall pointwise and swaps the two half-apartments.  A pair (i, j) that
    names no root raises NotARoot before s is read.
    """
    n = u.n
    level = phi(u)
    if level is None:
        raise IdentityElement("no reflection datum for the identity")
    root = (u.i, u.j)  # phi checked that it is a root
    s = u.s
    if len(s.pairs) == 1 and s.floor is None:
        e = fs.lead_exp(s)
        c = fs.coef_at(s, e)
        minus_sinv = fs.monomial(-e, Fraction(-1, 1) / c)
    else:
        minus_sinv = fs.neg(fs.inv(s, -level - INV_TAIL))
    rows = [[fs.ONE if a == b else fs.ZERO for b in range(n)] for a in range(n)]
    i, j = u.i - 1, u.j - 1
    rows[i][i] = fs.ZERO
    rows[j][j] = fs.ZERO
    rows[i][j] = s
    rows[j][i] = minus_sinv
    return GroupElem(rows), root, level


# --- normalizer realizations ------------------------------------------------------


def _perm_sign(sigma):
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


def normalizer_of(w, n):
    """Monomial matrix realizing an affine Weyl element: row i holds
    +-t^(c_i) in column sigma(i), one sign flipped when sigma is odd so the
    determinant is one.  Acting on x_mu points it implements
    apply_weyl(w, .)."""
    sigma = w.perm
    if len(sigma) != n:
        raise ValueError("affine element size and matrix size disagree")
    c = [Fraction(v) for v in w.translation.to_mu()]
    sign = _perm_sign(sigma)
    rows = [[fs.ZERO] * n for _ in range(n)]
    for i in range(n):
        coef = -1 if (sign < 0 and i == 0) else 1
        rows[i][sigma[i] - 1] = fs.monomial(c[i], coef)
    return GroupElem(rows)
