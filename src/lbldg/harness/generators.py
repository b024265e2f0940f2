"""Seeded random generators for group elements, points, and root elements.

Every generator takes an explicit random.Random so the harness can derive one
deterministic stream per trial. Supports stay tiny by default: monomial
entries with exponent denominators <= 2 and numerators bounded by 4,
everything Exact. The span/denom knobs widen or narrow that lattice.

sample_in_region draws points of a type A overlap region by an exact walk
on the 1/denom lattice: each move's feasible step is read off the region's
difference constraints, so no drawn point is ever tested and thrown away.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import floor, gcd

from ..apartment import ApartmentVec, difference_form, wconvex_witness
from ..linalg import identity, mat_inv, mat_mul
from ..symspace import GroupElem, SPDPoint, act
from ..valfield import series as fs


def trial_rng(seed, which, trial):
    """The per-trial stream: independent of execution order across trials."""
    return random.Random(f"{seed}:{which}:{trial}")


def _exponent(rng, span=4, denom=2):
    return Fraction(rng.randint(-span, span), rng.choice(range(1, denom + 1)))


def _small_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def gen_unipotent(rng, n, lower=False, span=4, denom=2):
    """Upper (or lower) unipotent with zero-or-monomial off-diagonal entries."""
    rows = [[fs.ONE if i == j else fs.ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            above = i < j if not lower else i > j
            if above and rng.random() < 0.7:
                c = _small_rational(rng)
                if c:
                    rows[i][j] = fs.monomial(_exponent(rng, span, denom), c)
    return GroupElem(rows, validate=False)


def gen_diagonal(rng, n, span=4, denom=2):
    """Positive diagonal monomials with determinant exactly 1."""
    exps = [_exponent(rng, span, denom) for _ in range(n - 1)]
    exps.append(-sum(exps))
    coefs = [Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2])) for _ in range(n - 1)]
    prod = Fraction(1)
    for c in coefs:
        prod *= c
    coefs.append(1 / prod)
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
    eye = identity(n)
    num = [[eye[i][j] - s[i][j] for j in range(n)] for i in range(n)]
    den = [[eye[i][j] + s[i][j] for j in range(n)] for i in range(n)]
    k = mat_mul(num, mat_inv(den))
    return GroupElem([[fs.from_rational(v) for v in row] for row in k], validate=False)


def gen_group_elem(rng, n, span=4, denom=2, factors=3):
    """Product of at most `factors` factors drawn from the three families.
    factors=0 returns the identity without consuming randomness."""
    g = GroupElem.identity(n)
    if factors == 0:
        return g
    kinds = [gen_unipotent, gen_diagonal, gen_orthogonal]
    for _ in range(rng.randint(1, factors)):
        kind = rng.choice(kinds)
        if kind is gen_orthogonal:
            g = g @ gen_orthogonal(rng, n)
        else:
            g = g @ kind(rng, n, span=span, denom=denom)
    return g


def gen_point(rng, n, span=4, denom=2, factors=3):
    return act(gen_group_elem(rng, n, span, denom, factors), SPDPoint.basepoint(n))


def draw_group(rng, cfg):
    """gen_group_elem with a suite config's size, lattice bounds and factor cap."""
    return gen_group_elem(
        rng,
        cfg.n,
        cfg.exponent_magnitude_bound,
        cfg.exponent_denominator_bound,
        cfg.factor_count,
    )


def draw_point(rng, cfg):
    """gen_point with a suite config's size, lattice bounds and factor cap."""
    return act(draw_group(rng, cfg), SPDPoint.basepoint(cfg.n))


def gen_unipotent_O(rng, n, lower):
    """Unipotent with off-diagonal entries in the valuation ring: exponents
    on the half-integer lattice at or below zero."""
    rows = [[fs.ONE if i == j else fs.ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            above = i > j if lower else i < j
            if above and rng.random() < 0.7:
                c = _small_rational(rng)
                if c:
                    e = Fraction(rng.randint(-4, 0), rng.choice([1, 2]))
                    rows[i][j] = fs.monomial(e, c)
    return GroupElem(rows, validate=False)


def gen_diag_units(rng, n):
    """Diagonal rational units (either sign) with determinant exactly 1."""
    coefs = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(n - 1)]
    prod = Fraction(1)
    for c in coefs:
        prod *= c
    coefs.append(1 / prod)
    rows = [
        [fs.from_rational(coefs[i]) if i == j else fs.ZERO for j in range(n)]
        for i in range(n)
    ]
    return GroupElem(rows, validate=False)


def gen_stab_elem(rng, n):
    """Base-point stabilizer element: product of O-entry factors.

    Off-diagonal exponents stay on the half-integer lattice at or below
    zero, so any sub-residue part sits at depth 1/2 or more."""
    g = GroupElem.identity(n)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randint(0, 2)
        if kind == 0:
            g = g @ gen_unipotent_O(rng, n, rng.random() < 0.5)
        elif kind == 1:
            g = g @ gen_diag_units(rng, n)
        else:
            g = g @ gen_orthogonal(rng, n)
    return g


def gen_root_elem(rng, n, span=4, denom=2):
    """A unipotent root element: identity plus one monomial at (i, j), i != j.
    Returns (GroupElem, i, j, s) with 1-indexed positions."""
    i, j = rng.sample(range(1, n + 1), 2)
    c = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))
    s = fs.monomial(_exponent(rng, span, denom), c)
    rows = [[fs.ONE if a == b else fs.ZERO for b in range(n)] for a in range(n)]
    rows[i - 1][j - 1] = s
    return GroupElem(rows, validate=False), i, j, s


def gen_apartment_mu(rng, n, denom=2, span=3):
    """Sum-zero rational tuple for mu-view sampling."""
    mu = [Fraction(rng.randint(-span * denom, span * denom), denom) for _ in range(n - 1)]
    mu.append(-sum(mu))
    return tuple(mu)


def gen_dominant_mu(rng, n, denom=2, span=3):
    """Strictly dominant sum-zero tuple: every consecutive gap is positive."""
    gaps = [Fraction(rng.randint(1, span * denom), denom) for _ in range(n - 1)]
    mu = [Fraction(0)]
    for g in gaps:
        mu.append(mu[-1] - g)
    shift = sum(mu) / n
    return tuple(v - shift for v in mu)


def _tied_classes(size, cons):
    """The coordinates grouped by the zero-slack constraints that tie them:
    a cycle o_b <= o_a <= ... <= o_b forces its offsets equal."""
    reach = [[a == b for b in range(size)] for a in range(size)]
    for a, b, slack in cons:
        if slack == 0:
            reach[a][b] = True
    for k in range(size):
        for a in range(size):
            if reach[a][k]:
                reach[a] = [x or y for x, y in zip(reach[a], reach[k])]
    classes = []
    for a in range(size):
        if not any(a in c for c in classes):
            classes.append([b for b in range(size) if reach[a][b] and reach[b][a]])
    return classes


def sample_in_region(rng, region, count, denom=2, span=2):
    """At most count points of a type A region, the wconvex_witness point w
    first; [] when the region is empty.

    The support is every region point w + o/denom with o integral, sum zero
    and |o_k| <= span * denom for all but the last coordinate.  The walk
    keeps o exact, in integer units of 1/denom: each constraint
    mu_a - mu_b >= ell becomes o_b - o_a <= its slack at w, floored once,
    and the box becomes constraints of the same kind against an extra
    coordinate pinned at 0.  Coordinates tied by a cycle of zero-slack
    constraints stay equal, so they move as one class: classes of sizes p
    and q move by o_I += delta * q / g and o_J -= delta * p / g, with
    g = gcd(p, q), which keeps the sum zero (for two single coordinates,
    mu_i += delta and mu_j -= delta).  Each step draws one of the class
    pairs whose move can leave the point, then a nonzero delta uniformly
    from the integer interval every constraint allows, so no point is drawn
    and thrown away.  When no move can leave w, [w] comes back; moves are
    reversible, so a walk that has moved never sticks.
    """
    w = wconvex_witness(region)
    if w is None or count < 1:
        return []
    rs = region.rs
    m = len(w)
    bound = span * denom
    # mu_a - mu_b >= ell at w + o/denom  <=>  o_b - o_a <= slack; the box
    # |o_k| <= bound is o_k - o_m <= bound and o_m - o_k <= bound, o_m = 0
    cons = [
        (a - 1, b - 1, floor(denom * (w[a - 1] - w[b - 1] - ell)))
        for a, b, ell in difference_form(region)
    ]
    for k in range(m - 1):
        cons += [(m, k, bound), (k, m, bound)]
    moves = []
    # the class of the pinned coordinate never moves
    free = [c for c in _tied_classes(m + 1, cons) if m not in c]
    for up, down in combinations(free, 2):
        g = gcd(len(up), len(down))
        v = [0] * (m + 1)
        for k in up:
            v[k] = len(down) // g
        for k in down:
            v[k] = -(len(up) // g)
        rows = [(v[b] - v[a], a, b, slack) for a, b, slack in cons if v[a] != v[b]]
        moves.append(([(k, v[k]) for k in up + down], rows))
    o = [0] * (m + 1)

    def steps(rows):
        """The integer interval of delta that keeps every constraint."""
        lo = max(-((slack - o[b] + o[a]) // -c) for c, a, b, slack in rows if c < 0)
        hi = min((slack - o[b] + o[a]) // c for c, a, b, slack in rows if c > 0)
        return lo, hi

    out = [ApartmentVec.from_mu(rs, w)]
    while len(out) < count:
        live = [(shift, *steps(rows)) for shift, rows in moves]
        live = [move for move in live if move[1] < move[2]]
        if not live:
            break
        shift, lo, hi = rng.choice(live)
        # a nonzero delta, uniform over the interval
        delta = rng.randint(lo, hi - 1)
        if delta >= 0:
            delta += 1
        for k, c in shift:
            o[k] += c * delta
        out.append(ApartmentVec.from_mu(rs, [v + Fraction(k, denom) for v, k in zip(w, o)]))
    return out
