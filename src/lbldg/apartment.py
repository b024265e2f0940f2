"""The model apartment of SL(n): mu in Lambda^n with sum zero, with walls,
half-apartments, the affine Weyl action, and feasibility of finite
half-space intersections.

Coordinates, pairings and half-apartment thresholds are plain Fractions:
Lambda = Q, and nothing here is Bottom.  The root alpha_ij = (i, j) of
rootsys evaluates to mu_i - mu_j, and the affine Weyl group is
S_n acting on sum-zero translations: the element (c, sigma) maps mu to
nu_i = c_i + mu_{sigma(i)}, with sigma a permutation of 1..n.
"""

from fractions import Fraction
from typing import NamedTuple


def _pay(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"unsupported Lambda payload: {type(x).__name__}")


class ApartmentVec:
    """Point of the model apartment: mu in Lambda^(rank+1) with exact sum zero."""

    __slots__ = ("rs", "mu")

    def __init__(self, rs, mu):
        mu = tuple(_pay(m) for m in mu)
        if len(mu) != rs.rank + 1:
            raise ValueError("mu-view length must be rank + 1")
        if sum(mu) != 0:
            raise ValueError("mu coordinates must sum to zero")
        self.rs = rs
        self.mu = mu

    @classmethod
    def from_mu(cls, rs, mu):
        """The point with coordinates mu; the same as ApartmentVec(rs, mu)."""
        return cls(rs, mu)

    def to_mu(self):
        return self.mu

    def __eq__(self, other):
        if not isinstance(other, ApartmentVec):
            return NotImplemented
        return self.rs == other.rs and self.mu == other.mu

    def __hash__(self):
        return hash((self.rs, self.mu))

    def __repr__(self):
        return f"ApartmentVec({list(self.mu)})"


class HalfApartment(NamedTuple):
    """{mu : mu_i - mu_j >= threshold} for root = (i, j)."""

    root: tuple
    threshold: Fraction


class WConvexSet(NamedTuple):
    rs: object
    constraints: tuple


class AffineWeylElem(NamedTuple):
    """mu -> nu with nu_i = c_i + mu_{perm(i)}, c = translation.to_mu()."""

    translation: ApartmentVec
    perm: tuple


def b_ext(x, alpha):
    """Pairing of an apartment point against the root alpha = (i, j):
    mu_i - mu_j, a Fraction."""
    i, j = x.rs.alpha(*alpha)
    return x.mu[i - 1] - x.mu[j - 1]


def in_half(h, x):
    return b_ext(x, h.root) >= h.threshold


def in_wconvex(s, x):
    return all(in_half(h, x) for h in s.constraints)


# --- affine Weyl group -------------------------------------------------------


def affine_from_mu(rs, sigma, c_mu):
    """Type A affine element acting on the mu-view by
    nu_i = c_i + mu_{sigma(i)}; sigma must be a permutation of 1..rank+1."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, rs.rank + 2)):
        raise ValueError(f"sigma {sigma} is not a permutation of 1..{rs.rank + 1}")
    return AffineWeylElem(ApartmentVec(rs, c_mu), sigma)


def affine_reflection(rs, alpha, ell):
    """Affine reflection in the wall {mu_i - mu_j = ell}: the transposition
    (i j) with c_i = ell and c_j = -ell."""
    i, j = rs.alpha(*alpha)
    ell = _pay(ell)
    perm = list(range(1, rs.rank + 2))
    perm[i - 1], perm[j - 1] = j, i
    c = [Fraction(0)] * (rs.rank + 1)
    c[i - 1], c[j - 1] = ell, -ell
    return AffineWeylElem(ApartmentVec(rs, c), tuple(perm))


def apply_weyl(w, x):
    mu = x.mu
    return ApartmentVec(x.rs, [c + mu[s - 1] for c, s in zip(w.translation.mu, w.perm)])


# --- feasibility -------------------------------------------------------------


def difference_form(s):
    """Constraints as (i, j, ell): mu_i - mu_j >= ell."""
    return [s.rs.alpha(*h.root) + (h.threshold,) for h in s.constraints]


def difference_potentials(m, cons):
    """Potentials d_1..d_m (as a list indexed from 0) with d_i - d_j >= ell
    for every (i, j, ell) in cons, or None when no such d exists.

    Bellman-Ford from a virtual source joined to every node by a zero edge,
    so the result is the pointwise largest solution with every d_i <= 0.
    The ell payloads may be int or Fraction: the loop only adds, subtracts
    and compares them.  With no constraints every d_i is int 0.
    """
    d = [cons[0][2] * 0 if cons else 0] * m
    # edge i -> j with weight -ell encodes d_j <= d_i - ell
    for _ in range(m - 1):
        changed = False
        for i, j, ell in cons:
            cand = d[i - 1] - ell
            if cand < d[j - 1]:
                d[j - 1] = cand
                changed = True
        if not changed:
            return d
    for i, j, ell in cons:
        if d[i - 1] - ell < d[j - 1]:
            return None
    return d


def wconvex_witness(s):
    """A satisfying mu with sum zero, or None: difference_potentials on the
    difference form, shifted to sum zero."""
    cons = sorted(difference_form(s), key=lambda c: (c[0], c[1], c[2]))
    m = s.rs.rank + 1
    if not cons:
        return tuple(Fraction(0) for _ in range(m))
    d = difference_potentials(m, cons)
    if d is None:
        return None
    total = d[0]
    for v in d[1:]:
        total = total + v
    shift = total / m
    return tuple(v - shift for v in d)


# --- JSON --------------------------------------------------------------------


def wconvex_to_json(s):
    return [{"i": i, "j": j, "ell": str(ell)} for i, j, ell in difference_form(s)]
