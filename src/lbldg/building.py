"""Charts of the affine building for SL(n): tropical membership, the
apartment-overlap algorithm, root subgroups, rank-one reflections, and
stabilizers.  Each stabilizer is one shape predicate of a group element:
stab_o for the base point, and stab_apartment, stab_chamber and
stab_half_apartment for the pointwise stabilizers of the standard
apartment, the chamber C0 and a half-apartment.

A chart is a group element g read as the map mu -> g . x_mu, where
x_mu = diag(t^(2 mu_1), ..., t^(2 mu_n)) and mu has exact sum zero.  The
standard apartment is the chart of the identity.  Everything here is exact:
the only series operations used are negval, coef_at, the ring-membership
tests and building monomials, so m_of refuses a parameter s whose -1/s is
no monomial.  trop reads a chart's negvals once, as ints on one lattice, for
chart_image, apartment_overlap and trop_radius, and x_mu builds each
monomial t^(k/e) from ints.  apartment_overlap finds the lexicographically
first optimal permutation by one O(n^3) assignment solve and returns the
region every optimal one shares, with that permutation's Weyl element.
Apartment coordinates, thresholds and valuations are plain Fractions, and
the valuation of 0 (Bottom) is None.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .apartment import (
    ApartmentVec,
    HalfApartment,
    WConvexSet,
    affine_from_mu,
    wconvex_to_json,
)
from .errors import IdentityElement, PrecisionError
from .rootsys import type_A
from .symspace import GroupElem, SPDPoint
from .valfield import series as fs


# --- charts and apartment points ----------------------------------------------


def x_mu(mu):
    """The apartment point diag(t^(2 mu_i)) of the ApartmentVec mu, as a
    symmetric-space point."""
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
    row-major order, its text led by the entry's 1-based row and column.
    """
    L = lcm(*(a.e for row in g.entries for a in row))
    # an entry with no visible term is an exact zero, whose negval is None
    # (Bottom), or masked, and then negval raises
    try:
        return L, [
            [a.pairs[0][0] * (L // a.e) if a.pairs else fs.negval(a) for a in row]
            for row in g.entries
        ]
    except PrecisionError:
        # off the hot path: let negval find the first masked entry again
        for i, row in enumerate(g.entries, 1):
            for j, a in enumerate(row, 1):
                try:
                    fs.negval(a)
                except PrecisionError as exc:
                    raise PrecisionError(f"row {i}, column {j}: {exc}") from exc
        raise


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
        raise ValueError(f"chart size {g.n} and point size {n} disagree")
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


def _lex_first_assignment(S):
    """(total, sigma) for the lexicographically first permutation sigma of
    largest total sum_i S[i][sigma(i)] over the finite entries of the int
    matrix S, or None when every permutation meets a None.

    One assignment solve on the cost c_ij = j n^(n-1-i) - S_ij n^n, whose
    unique minimum is that sigma (see apartment_overlap): Kuhn's Hungarian
    method by shortest augmenting paths with potentials (Kuhn, 1955), all
    on ints, O(n^3).  Rows enter one at a time; each grows a Dijkstra tree
    over the columns on the reduced costs c_ij - u_i - v_j >= 0 until it
    reaches a free column, and a tree that stops short of one is a set of
    rows with too few finite columns (Hall), so no perfect matching.
    """
    n = len(S)
    top = n**n
    cost = []
    w = top
    for row in S:
        w //= n
        cost.append([None if s is None else j * w - s * top for j, s in enumerate(row)])
    cols = range(1, n + 1)
    u = [0] * n  # row potentials
    v = [0] * (n + 1)  # column potentials; column 0 is the entering row's root
    owner = [-1] * (n + 1)  # the row matched to column j (1-based), -1 if free
    way = [0] * (n + 1)  # the previous column on the shortest path to j
    for i in range(n):
        owner[0] = i
        j0 = 0
        dist = [None] * (n + 1)
        tree = [0]
        free = list(cols)
        while True:
            r = owner[j0]
            row, ur = cost[r], u[r]
            delta = None
            for j in free:
                c = row[j - 1]
                if c is not None:
                    c -= ur + v[j]
                    if dist[j] is None or c < dist[j]:
                        dist[j] = c
                        way[j] = j0
                d = dist[j]
                if d is not None and (delta is None or d < delta):
                    delta, j1 = d, j
            if delta is None:
                return None
            for j in tree:
                u[owner[j]] += delta
                v[j] -= delta
            for j in free:
                if dist[j] is not None:
                    dist[j] -= delta
            free.remove(j1)
            tree.append(j1)
            j0 = j1
            if owner[j0] < 0:
                break
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    sigma = [0] * n
    for j in cols:
        sigma[owner[j]] = j - 1
    return sum([row[a] for row, a in zip(S, sigma)]), tuple(sigma)


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
    satisfies region(tau) as well (Butkovic, Max-linear Systems, 2010).
    Nor is it empty: the assignment problem's dual gives u and v with
    T_ij + v_j <= u_i, equal on every optimal sigma (Kuhn, 1955), so v
    shifted to sum zero lies in it.  So the overlap is region(sigma) for
    any optimal sigma, and the one returned, with its weyl element, is the
    lexicographically smallest.

    The solve runs on trop's int matrix S = L T (None for Bottom).  Scaling
    by L > 0 keeps every sum, difference and comparison, so S has the same
    optimal permutations.  _lex_first_assignment minimizes the perturbed
    cost c_ij = j n^(n-1-i) - S_ij n^n over permutations, Bottom a
    forbidden edge.  sigma's cost is its base-n number
    sum_i sigma(i) n^(n-1-i), which lies in [0, n^n), minus n^n times its
    total.  Totals are ints, so a larger total always costs less, and
    between equal totals the lexicographically smaller sigma has the
    smaller base-n number.  Distinct permutations have distinct base-n
    numbers, so the minimum is attained once, by the lexicographically
    first optimal sigma, whatever ties the solve meets on its way.  Only
    its system, divided by L, and its affine map are built as apartment
    objects.
    """
    rs = type_A(g.n - 1)
    L, S = trop(g)
    found = _lex_first_assignment(S)
    if found is None:
        raise ValueError("no permutation has a finite tropical product, so g is singular")
    best, sigma = found
    if best > 0:
        return None
    if best < 0:
        raise ValueError("the tropical permanent is negative, so g is not in SL(n)")
    # region(sigma): mu_{sigma(i)} - mu_j >= (S_ij - S_{i sigma(i)}) / L
    region = WConvexSet(
        rs,
        tuple([
            HalfApartment(rs.alpha(a + 1, j + 1), Fraction(s - row[a], L))
            for row, a in zip(S, sigma)
            for j, s in enumerate(row)
            if j != a and s is not None
        ]),
    )
    c = [Fraction(row[a], L) for row, a in zip(S, sigma)]
    return region, affine_from_mu(rs, [a + 1 for a in sigma], c)


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


def _stab_shape(g, off_diagonal):
    """Row-major scan: diagonal entries are units, and off_diagonal(i, j, e)
    holds for every other entry (0-based i, j)."""
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            if not (fs.is_unit(e) if i == j else off_diagonal(i, j, e)):
                return False
    return True


def stab_apartment(g):
    """True iff g fixes the standard apartment pointwise: g is diagonal with
    unit entries."""
    return _stab_shape(g, lambda i, j, e: fs.provably_zero(e))


def stab_chamber(g):
    """True iff g has the shape of the pointwise stabilizer of the standard
    chamber C0: upper triangular over O with unit diagonal."""
    return _stab_shape(g, lambda i, j, e: fs.provably_zero(e) if i > j else fs.in_O(e))


def stab_half_apartment(g, h):
    """True iff g has the shape of the pointwise stabilizer of the
    half-apartment h: unit diagonal, and off it only the entry on h's root,
    of negval at most h's threshold.  A root that is not one of
    type_A(n - 1) raises NotARoot."""
    i, j = type_A(g.n - 1).alpha(*h.root)
    ell = h.threshold
    wall = (i - 1, j - 1)

    def off_diagonal(i, j, e):
        if (i, j) != wall:
            return fs.provably_zero(e)
        v = fs.negval(e)
        return v is None or v <= ell  # Bottom lies below every threshold

    return _stab_shape(g, off_diagonal)


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
    """Rank-one reflection representative: embeds the exact [[0, s],
    [-1/s, 0]] into rows and columns (i, j) of the identity.

    Returns (element, root, level), the level a Fraction.  The parameter s
    must be a monomial with no floor, so that -1/s is one too; any other s
    raises ValueError.  The element's apartment action is the affine
    reflection in the wall {mu_i - mu_j = level}: it fixes the wall
    pointwise and swaps the two half-apartments.  A pair (i, j) that names
    no root raises NotARoot before s is read.

    The element is built unvalidated: det [[0, s], [-1/s, 0]] = 1 for the
    exact monomial s, and i != j puts that block in the identity.
    """
    n = u.n
    level = phi(u)
    if level is None:
        raise IdentityElement("no reflection datum for the identity")
    root = (u.i, u.j)  # phi checked that it is a root
    s = u.s
    if len(s.pairs) != 1 or s.floor is not None:
        raise ValueError(f"m(u) needs a monomial parameter with no floor, got {fs.to_str(s)}")
    minus_sinv = fs.monomial(-level, Fraction(-1) / fs.coef_at(s, level))
    rows = [[fs.ONE if a == b else fs.ZERO for b in range(n)] for a in range(n)]
    i, j = u.i - 1, u.j - 1
    rows[i][i] = fs.ZERO
    rows[j][j] = fs.ZERO
    rows[i][j] = s
    rows[j][i] = minus_sinv
    return GroupElem(rows, validate=False), root, level


# --- normalizer realizations ------------------------------------------------------


def _perm_sign(sigma):
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


def normalizer_of(w):
    """Monomial matrix realizing an affine Weyl element, of size
    n = len(w.perm): row i holds +-t^(c_i) in column sigma(i), one sign
    flipped when sigma is odd so the determinant is one.  Acting on x_mu
    points it implements apply_weyl(w, .)."""
    sigma = w.perm
    n = len(sigma)
    c = [Fraction(v) for v in w.translation.to_mu()]
    sign = _perm_sign(sigma)
    rows = [[fs.ZERO] * n for _ in range(n)]
    for i in range(n):
        coef = -1 if (sign < 0 and i == 0) else 1
        rows[i][sigma[i] - 1] = fs.monomial(c[i], coef)
    return GroupElem(rows)
