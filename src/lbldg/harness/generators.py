"""Seeded random generators for group elements, points, and root elements.

Every generator takes an explicit random.Random so the harness can derive one
deterministic stream per trial. Supports stay tiny, everything Exact: the
suites draw from the one lattice of SPAN, DENOM and FACTORS, and tests pass
span, denom and factors to gen_group_elem (which hands span and denom on to
gen_unipotent and gen_diagonal) to narrow or widen it. gen_apartment_mu keeps the half-integer lattice.

sample_in_region draws points of a type A overlap region with one
difference_potentials call per point: a random point of a box around the
region's witness, its size fixed by REGION_DENOM and REGION_SPAN, pulled
down onto the region, so no drawn point is ever tested and thrown away.
"""

import random
from fractions import Fraction
from math import lcm, prod

from ..apartment import ApartmentVec, difference_form, difference_potentials, wconvex_witness
from ..building import RootElem
from ..linalg import mat_inv
from ..symspace import GroupElem, SPDPoint, act
from ..valfield import series as fs

# the suites' draw lattice: exponent numerators in [-SPAN, SPAN] over
# denominators 1..DENOM, and at most FACTORS factors per group element
SPAN = 4
DENOM = 2
FACTORS = 3

# sample_in_region's box around a region's witness (see its docstring)
REGION_DENOM = 2
REGION_SPAN = 2


def trial_rng(seed, which, trial):
    """The per-trial stream: independent of execution order across trials."""
    return random.Random(f"{seed}:{which}:{trial}")


def _exponent(rng, span, denom, integral=False):
    """An exponent on the 1/denom lattice, at or below zero when integral."""
    top = 0 if integral else span
    return Fraction(rng.randint(-span, top), rng.choice(range(1, denom + 1)))


def _small_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def gen_unipotent(rng, n, lower=False, span=SPAN, denom=DENOM, integral=False):
    """Upper (or lower) unipotent with zero-or-monomial off-diagonal entries;
    integral keeps every exponent at or below zero, so the entries lie in O."""
    rows = [[fs.ONE if i == j else fs.ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            above = i < j if not lower else i > j
            if above and rng.random() < 0.7:
                c = _small_rational(rng)
                if c:
                    rows[i][j] = fs.monomial(_exponent(rng, span, denom, integral), c)
    return GroupElem(rows, validate=False)


def gen_diagonal(rng, n, span=SPAN, denom=DENOM):
    """Positive diagonal monomials with determinant exactly 1."""
    exps = [_exponent(rng, span, denom) for _ in range(n - 1)]
    exps.append(-sum(exps))
    coefs = [Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2])) for _ in range(n - 1)]
    coefs.append(1 / prod(coefs))
    rows = [
        [fs.monomial(exps[i], coefs[i]) if i == j else fs.ZERO for j in range(n)]
        for i in range(n)
    ]
    return GroupElem(rows, validate=False)


def gen_orthogonal(rng, n):
    """Rational special orthogonal matrix: Cayley transform of a skew matrix."""
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            s[i][j], s[j][i] = v, -v
    # (I - S)(I + S)^-1 = (2I - (I + S))(I + S)^-1 = 2(I + S)^-1 - I
    inv = mat_inv([[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(s)])
    rows = [
        [fs.from_rational(2 * v - (i == j)) for j, v in enumerate(row)]
        for i, row in enumerate(inv)
    ]
    return GroupElem(rows, validate=False)


def gen_group_elem(rng, n, span=SPAN, denom=DENOM, factors=FACTORS):
    """Product of 1 to `factors` factors drawn from the three families."""
    g = None
    kinds = [gen_unipotent, gen_diagonal, gen_orthogonal]
    for _ in range(rng.randint(1, factors)):
        kind = rng.choice(kinds)
        if kind is gen_orthogonal:
            f = gen_orthogonal(rng, n)
        else:
            f = kind(rng, n, span=span, denom=denom)
        g = f if g is None else g @ f
    return g


def gen_point(rng, n):
    return act(gen_group_elem(rng, n), SPDPoint.basepoint(n))


def gen_diag_units(rng, n):
    """Diagonal rational units (either sign) with determinant exactly 1."""
    coefs = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(n - 1)]
    coefs.append(1 / prod(coefs))
    rows = [
        [fs.from_rational(coefs[i]) if i == j else fs.ZERO for j in range(n)]
        for i in range(n)
    ]
    return GroupElem(rows, validate=False)


def gen_stab_elem(rng, n):
    """Base-point stabilizer element: product of O-entry factors.

    Off-diagonal exponents stay on the half-integer lattice at or below
    zero, so any sub-residue part sits at depth 1/2 or more."""
    g = None
    for _ in range(rng.randint(1, 3)):
        kind = rng.randint(0, 2)
        if kind == 0:
            f = gen_unipotent(rng, n, lower=rng.random() < 0.5, integral=True)
        elif kind == 1:
            f = gen_diag_units(rng, n)
        else:
            f = gen_orthogonal(rng, n)
        g = f if g is None else g @ f
    return g


def gen_root_elem(rng, n):
    """A root element: one monomial s at the 1-indexed (i, j), i != j."""
    i, j = rng.sample(range(1, n + 1), 2)
    c = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))
    return RootElem(n, i, j, fs.monomial(_exponent(rng, SPAN, DENOM), c))


def gen_apartment_mu(rng, n):
    """Sum-zero tuple on the half-integer lattice, entries but the last in
    [-3, 3], for mu-view sampling."""
    mu = [Fraction(rng.randint(-6, 6), 2) for _ in range(n - 1)]
    mu.append(-sum(mu))
    return tuple(mu)


def gen_dominant_mu(rng, n):
    """Strictly dominant sum-zero tuple: every consecutive gap is positive,
    on the 1/DENOM lattice and at most 3."""
    gaps = [Fraction(rng.randint(1, 3 * DENOM), DENOM) for _ in range(n - 1)]
    mu = [Fraction(0)]
    for g in gaps:
        mu.append(mu[-1] - g)
    shift = sum(mu) / n
    return tuple(v - shift for v in mu)


def sample_in_region(rng, region, count):
    """At most count distinct points of a type A region, the wconvex_witness
    point w first; [] when the region is empty.

    Each of the count - 1 draws picks r = w + o/REGION_DENOM, with o
    integral, sum zero and |o_k| <= REGION_SPAN * REGION_DENOM for all but
    the last coordinate, and keeps the region's largest point at or below r,
    shifted to sum zero: the constraints shifted by r go to
    difference_potentials, which always solves them when w exists.  An r
    inside the region comes back unchanged, so every region point of the
    box can be drawn, and a draw outside lands on a face of the region.  The
    arithmetic runs in integer units of 1/L, L the lcm of REGION_DENOM and
    the denominators of w and the thresholds, so only ints reach rng.  A
    point drawn twice is kept once.
    """
    w = wconvex_witness(region)
    if w is None or count < 1:
        return []
    form = difference_form(region)
    m = len(w)
    L = lcm(REGION_DENOM, *(v.denominator for v in w), *(ell.denominator for _, _, ell in form))
    base = [int(v * L) for v in w]
    cons = [(i, j, int(ell * L)) for i, j, ell in form]
    step = L // REGION_DENOM
    bound = REGION_SPAN * REGION_DENOM
    # each point as m * L * mu, an int tuple; w sums to zero already
    keys = dict.fromkeys([tuple(m * b for b in base)])
    for _ in range(count - 1):
        o = [rng.randint(-bound, bound) * step for _ in range(m - 1)]
        o.append(-sum(o))
        r = [b + k for b, k in zip(base, o)]
        d = difference_potentials(m, [(i, j, ell - r[i - 1] + r[j - 1]) for i, j, ell in cons])
        p = [x + y for x, y in zip(d, r)]
        total = sum(p)
        keys[tuple(m * v - total for v in p)] = None
    return [ApartmentVec.from_mu(region.rs, [Fraction(k, m * L) for k in key]) for key in keys]
