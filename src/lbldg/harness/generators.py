"""Seeded random generators for group elements, points, and root elements.

Every generator takes an explicit random.Random so the harness can derive one
deterministic stream per trial. Supports stay tiny, everything Exact: every
draw comes from the one lattice of SPAN, DENOM and FACTORS, read when the
generator runs, so a test narrows or widens it by patching those constants.
gen_apartment_mu keeps the half-integer lattice.

Draws are built from the rng's ints: every series entry is one
series.int_monomial call on the drawn numerators and denominators, and every
apartment coordinate is one Fraction, made at the end.  gen_orthogonal
inverts an int matrix with linalg.mat_inv.

sample_in_region draws points of a type A overlap region with one
difference_potentials call per point: a random point of a box around the
region's witness, its size fixed by REGION_DENOM and REGION_SPAN, pulled
down onto the region, so no drawn point is ever tested and thrown away.
"""

import random
from fractions import Fraction
from math import lcm, prod

from ..apartment import ApartmentVec, difference_potentials, int_difference_form
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


def gen_unipotent(rng, n, lower=False, integral=False):
    """Upper (or lower) unipotent with zero-or-monomial off-diagonal entries;
    integral keeps every exponent at or below zero, so the entries lie in O.
    Each entry draws its coefficient c/d, c in [-3, 3] and d in {1, 2}, and
    when c is nonzero its exponent on the 1/DENOM lattice."""
    top = 0 if integral else SPAN
    choices = range(1, DENOM + 1)
    rows = [[fs.ONE if i == j else fs.ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            above = i < j if not lower else i > j
            if above and rng.random() < 0.7:
                c = rng.randint(-3, 3)
                d = rng.randint(1, 2)
                if c:
                    x = rng.randint(-SPAN, top)
                    y = rng.choice(choices)
                    rows[i][j] = fs.int_monomial(x, y, c, d)
    return GroupElem(rows, validate=False)


def _cancelling_coefs(rng, n, cs, ds):
    """n coefficients c/d with product 1: n - 1 drawn as c from cs, then d
    from ds, and a last one that cancels them, its denominator positive."""
    coefs = [(rng.choice(cs), rng.choice(ds)) for _ in range(n - 1)]
    num, den = prod([d for _, d in coefs]), prod([c for c, _ in coefs])
    coefs.append((num, den) if den > 0 else (-num, -den))
    return coefs


def gen_diagonal(rng, n):
    """Positive diagonal monomials with determinant exactly 1: n - 1
    exponents on the 1/DENOM lattice, then n - 1 coefficients, and a last
    entry that cancels both."""
    choices = range(1, DENOM + 1)
    exps = [(rng.randint(-SPAN, SPAN), rng.choice(choices)) for _ in range(n - 1)]
    coefs = _cancelling_coefs(rng, n, [1, 1, 2, 3], [1, 1, 2])
    den = lcm(*[y for _, y in exps])
    exps.append((-sum([x * (den // y) for x, y in exps]), den))
    rows = [[fs.ZERO] * n for _ in range(n)]
    for i, ((x, y), (c, d)) in enumerate(zip(exps, coefs)):
        rows[i][i] = fs.int_monomial(x, y, c, d)
    return GroupElem(rows, validate=False)


def gen_orthogonal(rng, n):
    """Rational special orthogonal matrix: Cayley transform of a skew matrix
    S with entries a/b, a in [-2, 2] and b in {1, 2}.

    (I - S)(I + S)^-1 = 2(I + S)^-1 - I = 4 M^-1 - I for the int matrix
    M = 2(I + S), so each entry of M^-1 gives one entry of the result from
    its numerator and denominator."""
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = rng.randint(-2, 2)
            v = 2 * a // rng.randint(1, 2)
            m[i][j], m[j][i] = v, -v
    rows = [
        [
            fs.int_monomial(0, 1, 4 * q.numerator - (i == j) * q.denominator, q.denominator)
            for j, q in enumerate(row)
        ]
        for i, row in enumerate(mat_inv(m))
    ]
    return GroupElem(rows, validate=False)


def _product(rng, n, kinds):
    """Product of 1 to FACTORS factors, each drawn from a family in kinds."""
    g = None
    for _ in range(rng.randint(1, FACTORS)):
        f = rng.choice(kinds)(rng, n)
        g = f if g is None else g @ f
    return g


def gen_group_elem(rng, n):
    """Product of 1 to FACTORS factors drawn from the three families."""
    return _product(rng, n, [gen_unipotent, gen_diagonal, gen_orthogonal])


def gen_point(rng, n):
    return act(gen_group_elem(rng, n), SPDPoint.basepoint(n))


def gen_diag_units(rng, n):
    """Diagonal rational units (either sign) with determinant exactly 1."""
    coefs = _cancelling_coefs(rng, n, [1, -1, 2, 3], [1, 2])
    rows = [[fs.ZERO] * n for _ in range(n)]
    for i, (c, d) in enumerate(coefs):
        rows[i][i] = fs.int_monomial(0, 1, c, d)
    return GroupElem(rows, validate=False)


def _integral_unipotent(rng, n):
    """gen_unipotent with O entries, upper or lower by a fair coin."""
    return gen_unipotent(rng, n, lower=rng.random() < 0.5, integral=True)


def gen_stab_elem(rng, n):
    """Base-point stabilizer element: product of O-entry factors.

    Off-diagonal exponents stay on the 1/DENOM lattice at or below zero, so
    any sub-residue part sits at depth 1/DENOM or more."""
    return _product(rng, n, [_integral_unipotent, gen_diag_units, gen_orthogonal])


def gen_root_elem(rng, n):
    """A root element: one monomial s at the 1-indexed (i, j), i != j."""
    i, j = rng.sample(range(1, n + 1), 2)
    c = rng.choice([1, -1, 2, -2, 3])
    d = rng.choice([1, 2])
    x = rng.randint(-SPAN, SPAN)
    y = rng.choice(range(1, DENOM + 1))
    return RootElem(n, i, j, fs.int_monomial(x, y, c, d))


def gen_apartment_mu(rng, n):
    """Sum-zero tuple on the half-integer lattice, entries but the last in
    [-3, 3], for mu-view sampling."""
    halves = [rng.randint(-6, 6) for _ in range(n - 1)]
    halves.append(-sum(halves))
    return tuple([Fraction(k, 2) for k in halves])


def gen_dominant_mu(rng, n):
    """Strictly dominant sum-zero tuple: every consecutive gap is positive,
    on the 1/DENOM lattice and at most 3.  The walk down the gaps runs in
    ints over DENOM, and recentring puts each coordinate over n * DENOM."""
    walk = [0]
    for _ in range(n - 1):
        walk.append(walk[-1] - rng.randint(1, 3 * DENOM))
    total = sum(walk)
    return tuple([Fraction(n * k - total, n * DENOM) for k in walk])


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
    the threshold denominators, so only ints reach rng.  The box is centred
    on the unshifted potentials d behind w: the region is closed under
    adding a constant to every coordinate, so shifting each point to sum
    zero at the end gives the points a box around w gives.  A point drawn
    twice is kept once.
    """
    m = region.rs.rank + 1
    L, cons = int_difference_form(region)
    d = difference_potentials(m, cons)
    if d is None or count < 1:
        return []
    scale = lcm(REGION_DENOM, L) // L
    L *= scale
    base = [v * scale for v in d]
    cons = [(i, j, ell * scale) for i, j, ell in cons]
    step = L // REGION_DENOM
    bound = REGION_SPAN * REGION_DENOM
    # each point as m * L * mu, an int tuple, shifted to sum zero
    total = sum(base)
    keys = dict.fromkeys([tuple([m * b - total for b in base])])
    for _ in range(count - 1):
        o = [rng.randint(-bound, bound) * step for _ in range(m - 1)]
        o.append(-sum(o))
        r = [b + k for b, k in zip(base, o)]
        d = difference_potentials(m, [(i, j, ell - r[i - 1] + r[j - 1]) for i, j, ell in cons])
        p = [x + y for x, y in zip(d, r)]
        total = sum(p)
        keys[tuple([m * v - total for v in p])] = None
    return [ApartmentVec.from_mu(region.rs, [Fraction(k, m * L) for k in key]) for key in keys]
