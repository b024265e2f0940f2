"""Two boundaries of the building, both exposed as predicates.

The residue side reduces base-point stabilizer elements entrywise to their
t^0 coefficients.  Over our representable subfield those coefficients are
plain rationals, so the residue group is SL(n, Q), held as the group elements
with constant entries, and germs of sectors based at the base point are
classified by its upper-triangular subgroup: two sectors share a germ
exactly when the residue of the transition element is upper triangular.

The side at infinity classifies sectors up to parallelism.  A chart and the
standard sector point the same way exactly when the transition element is
upper triangular over the series field itself (entries below the diagonal
exactly zero).

A sector is given by its chart, the group element g that carries the
standard sector onto it; the relations compare the germs at the base point,
or the parallelism classes, of the sectors of two charts g1 and g2, and read
the transition element g2^(-1) g1.

Both predicates come with sampling oracles that probe actual points of the
building through chart_image, so tests can confront the matrix-shape
characterizations with the geometry they claim to summarize.
"""

from fractions import Fraction
from functools import cache

from .apartment import ApartmentVec
from .building import chart_image, stab_o, trop_radius
from .errors import NotInRing
from .rootsys import type_A
from .symspace import GroupElem
from .valfield import series as fs

# the coordinate 1-norm of the germ probes; sampled_germ_equal says why one
GERM_RADIUS = Fraction(1, 4)


def reduce(g):
    """Entrywise t^0 coefficient of a base-point stabilizer element, as a
    group element with constant entries: the constants Q in O are a section
    of the residue map, so SL(n, Q) is the residue group inside SL(n)."""
    if not stab_o(g):
        raise NotInRing("reduction requires all entries in O")
    return GroupElem(
        [[fs.from_rational(fs.residue(e)) for e in row] for row in g.entries],
        validate=False,
    )


def _is_upper(g):
    """Whether every entry of g below the diagonal is exactly zero;
    PrecisionError when a floor hides that."""
    return all(fs.provably_zero(g.entries[i][j]) for i in range(g.n) for j in range(i))


def germ_equal(g1, g2):
    """Whether the sectors of the charts g1 and g2, based at o, agree on
    some ball around o: whether they have one germ.

    Operationally: the reduction of the transition element is upper
    triangular, i.e. lies in the Borel subgroup of the residue group,
    which is exactly the germ stabilizer of the standard sector.
    """
    return _is_upper(reduce(g2.inverse() @ g1))


@cache
def chamber_rays(n):
    """A fixed set of interior chamber directions with coordinate 1-norm 1;
    ValueError for n below 2, where no chamber has an interior direction."""
    if n < 2:
        raise ValueError(f"chamber rays need n at least 2, got {n}")
    gap_rows = [(Fraction(1),) * (n - 1)]
    if n > 2:
        gap_rows.append((Fraction(2),) + (Fraction(1),) * (n - 2))
        gap_rows.append((Fraction(1),) * (n - 2) + (Fraction(2),))
    rays = []
    for gaps in gap_rows:
        mu = [Fraction(0)]
        for gap in reversed(gaps):
            mu.insert(0, mu[0] + gap)
        mean = sum(mu) / n
        mu = [x - mean for x in mu]
        scale = sum(abs(x) for x in mu)
        rays.append(tuple([x / scale for x in mu]))
    return tuple(rays)


def sampled_germ_equal(g1, g2):
    """Point-sampling oracle for the germ relation of the charts g1 and g2:
    whether the transition element b = g2^(-1) g1 fixes the interior chamber
    point GERM_RADIUS * ray for every ray of chamber_rays.

    One radius suffices: Fix(b) = {mu : chart_image(b, mu) = mu} is
    star-shaped about 0.  For mu in Fix(b) and t in [0, 1], the negvals T_ij
    of b are at most 0 (b has entries in O), so r_i(t mu) <= t mu_i by
    T_ij + t mu_j <= t (T_ij + mu_j) <= t mu_i, while det b = 1 forces
    sum_i r_i(t mu) >= 0 = sum_i t mu_i; so r(t mu) = t mu.  A ball thus
    agrees exactly when its outermost point on each ray is fixed, and any
    radius that agrees makes GERM_RADIUS agree.

    The verdict matches the reduction predicate on elements whose
    below-residue parts have negvals on the half-integer lattice: such a
    transition element factors as a rational upper-triangular matrix
    (fixing every interior point near o) times a reduction-kernel element
    (fixing everything with coordinate gaps below 1/2, which covers
    GERM_RADIUS); conversely a nonzero below-diagonal residue entry has
    negval 0, which exceeds mu_i - mu_j on every interior point, so every
    probe moves.
    """
    b = g2.inverse() @ g1
    if not stab_o(b):
        raise NotInRing("sampled germs require base charts in O")
    rs = type_A(b.n - 1)
    for ray in chamber_rays(b.n):
        mu = ApartmentVec.from_mu(rs, [GERM_RADIUS * x for x in ray])
        if chart_image(b, mu) != mu:
            return False
    return True


def infinity_equal(g1, g2):
    """Whether the charts g1 and g2 point at the same sector at infinity:
    whether their sectors are parallel.

    Operationally: the transition element is upper triangular over the
    series field, i.e. every entry below the diagonal is exactly zero.
    """
    return _is_upper(g2.inverse() @ g1)


@cache
def _deep_direction(n):
    """Strictly dominant direction whose index multisets have unique sums.

    Coordinates are the powers (n+1)^(n-1), ..., (n+1), 1 recentered to sum
    zero.  Any way of drawing n coordinates with repetition sums to zero
    only if each index is drawn exactly once: the draw counts are base-n+1
    digits of the total, and digit strings are unique.
    """
    powers = [Fraction((n + 1) ** (n - 1 - i)) for i in range(n)]
    mean = sum(powers) / n
    return tuple([p - mean for p in powers])


def sampled_infinity_equal(g1, g2):
    """Deep-point sampling oracle for parallelism of the charts g1 and g2.

    The transition element is applied to points far out in the standard
    sector; the charts agree at infinity exactly when every sampled point
    lands back in the model apartment shifted by one fixed translation.

    The sample is decisive, not heuristic.  Points are (r0 + k) times a
    strictly dominant direction with pairwise gaps at least r0, and r0
    exceeds twice any finite negval of the transition element, so in each
    row of the membership computation the leftmost finite entry dominates
    outright.  Membership at the two depths k = 0 and 1 then forces the
    leftmost finite entries to sit at positions summing like a permutation
    (the direction's coordinate sums are multiset-unique), and an equal shift
    at both depths forces that permutation to be the identity, i.e. nothing
    finite below the diagonal.  Conversely an upper-triangular transition
    element translates deep points by its diagonal negvals.
    """
    b = g2.inverse() @ g1
    r0 = 2 * b.n * (1 + trop_radius(b))
    rs = type_A(b.n - 1)
    rho = _deep_direction(b.n)
    shift = None
    for k in range(2):
        mu = ApartmentVec.from_mu(rs, [(r0 + k) * x for x in rho])
        nu = chart_image(b, mu)
        if nu is None:
            return False
        delta = tuple([a - c for a, c in zip(nu.to_mu(), mu.to_mu())])
        if shift is None:
            shift = delta
        elif delta != shift:
            return False
    return True


def transitivity_witness(g1, g2):
    """Residue-group element carrying the germ of the chart g1 to that of g2.

    With r1, r2 the reductions of the two charts, h = r2 r1^(-1) maps the
    first sector's germ to the second's: the inverse is the adjugate, and
    adj(B) B = det(B) I, so the transition residue r2^(-1) h r1 it induces
    is det(r2) det(r1) I on every input, a scalar and so upper triangular.
    The GermBorel suite checks the claim itself, germ_equal(h g1, g2).
    """
    r1 = reduce(g1)
    return reduce(g2) @ r1.inverse()
