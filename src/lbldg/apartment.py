"""The model apartment: Span(roots) tensor Lambda with norm, metric, walls,
affine Weyl action, and feasibility of finite half-space intersections.

Coordinates are payloads of LambdaVal (Fraction or LexPair) in the simple-root
basis. For type A there is an alternate mu-view: mu in Lambda^n with sum 0,
where the root alpha_{ij} evaluates to mu_i - mu_j. The spherical part of an
affine Weyl element built from a mu-view permutation sigma acts by
nu_i = mu_{sigma(i)}.

Pairing rows, reflections and the Weyl product live in rootsys: b_ext reads
RootSystem.pairing_row, affine_reflection takes its linear part from
rootsys.reflection, and compose_weyl multiplies spherical parts with
WeylElem's @.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import UnsupportedConstraint
from .rootsys import WeylElem, positive_roots, reflection, weyl_from_perm, weyl_identity
from .valfield.lam import LambdaVal

PLUS, MINUS = 1, -1


def _pay(x):
    return x.finite_value if isinstance(x, LambdaVal) else LambdaVal.of(x).finite_value


def _zero_like(payload):
    return payload * 0


class ApartmentVec:
    """Point of the model apartment in simple-root coordinates."""

    __slots__ = ("rs", "coords")

    def __init__(self, rs, coords):
        self.rs = rs
        self.coords = tuple(_pay(c) for c in coords)
        if len(self.coords) != rs.rank:
            raise ValueError("coordinate length must equal the rank")

    @classmethod
    def zero(cls, rs):
        return cls(rs, [Fraction(0)] * rs.rank)

    @classmethod
    def from_mu(cls, rs, mu):
        """Type A view: mu in Lambda^{n+1} with exact sum zero."""
        if rs.kind[0] != "TypeA":
            raise UnsupportedConstraint("mu-view requires a type A system")
        mu = [_pay(m) for m in mu]
        if len(mu) != rs.rank + 1:
            raise ValueError("mu-view length must be rank + 1")
        total = mu[0]
        for m in mu[1:]:
            total = total + m
        if total != _zero_like(total):
            raise ValueError("mu coordinates must sum to zero")
        coords = []
        acc = _zero_like(mu[0])
        for k in range(rs.rank):
            acc = acc + mu[k]
            coords.append(acc)
        return cls(rs, coords)

    def to_mu(self):
        if self.rs.kind[0] != "TypeA":
            raise UnsupportedConstraint("mu-view requires a type A system")
        lam = self.coords
        z = _zero_like(lam[0])
        out = [lam[0]]
        for k in range(1, self.rs.rank):
            out.append(lam[k] - lam[k - 1])
        out.append(z - lam[-1])
        return tuple(out)

    def __add__(self, other):
        return ApartmentVec(self.rs, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return ApartmentVec(self.rs, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return ApartmentVec(self.rs, [-a for a in self.coords])

    def __eq__(self, other):
        if not isinstance(other, ApartmentVec):
            return NotImplemented
        return self.rs == other.rs and self.coords == other.coords

    def __hash__(self):
        return hash((self.rs, self.coords))

    def __repr__(self):
        return f"ApartmentVec({list(self.coords)})"


class HalfApartment(NamedTuple):
    root: object
    threshold: LambdaVal
    sign: int = PLUS


class WConvexSet(NamedTuple):
    rs: object
    constraints: tuple


class AffineWeylElem(NamedTuple):
    """x -> translation + spherical(x); mu_perm records the type A mu-view
    permutation when the element was built from one."""

    translation: object
    spherical: WeylElem
    mu_perm: tuple = None


def b_ext(x, alpha):
    """Pairing of an apartment point against a root, valued in Lambda."""
    acc = _zero_like(x.coords[0])
    for c, w in zip(x.coords, x.rs.pairing_row(alpha)):
        if w:
            acc = acc + c * w
    return LambdaVal(acc)


def norm(x):
    """Sum of |b_ext| over the positive roots; the W_s-invariant norm."""
    acc = _zero_like(x.coords[0])
    for alpha in sorted(positive_roots(x.rs)):
        acc = acc + abs(b_ext(x, alpha).finite_value)
    return LambdaVal(acc)


def dist(x, y):
    return norm(x - y)


def in_half(h, x):
    b = b_ext(x, h.root)
    if h.threshold.is_bottom:
        return h.sign == PLUS
    return b >= h.threshold if h.sign == PLUS else b <= h.threshold


def on_wall(alpha, ell, x):
    return b_ext(x, alpha) == (ell if isinstance(ell, LambdaVal) else LambdaVal.of(ell))


def in_chamber_C0(x):
    z = LambdaVal(_zero_like(x.coords[0]))
    return all(b_ext(x, d) >= z for d in x.rs.basis)


def in_wconvex(s, x):
    return all(in_half(h, x) for h in s.constraints)


def cochar_point(rs, beta, lam):
    """Image of lam under the cocharacter of beta: coordinates lam * covec."""
    lam = _pay(lam)
    return ApartmentVec(rs, [lam * c for c in beta.covec])


# --- affine Weyl group -------------------------------------------------------


def identity_weyl(rs):
    return AffineWeylElem(ApartmentVec.zero(rs), weyl_identity(rs.rank), None)


def _inv_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def affine_from_mu(rs, sigma, c_mu):
    """Type A affine element acting on the mu-view by
    nu_i = c_i + mu_{sigma(i)}."""
    spherical = weyl_from_perm(rs, _inv_perm(tuple(sigma)))
    return AffineWeylElem(ApartmentVec.from_mu(rs, c_mu), spherical, tuple(sigma))


def affine_reflection(rs, alpha, ell):
    """Affine reflection in the wall {b_ext(., alpha) = ell}."""
    alpha = rs.root_from_vec(alpha.vec)
    ell = _pay(ell)
    trans = ApartmentVec(rs, [ell * v for v in alpha.vec])
    return AffineWeylElem(trans, reflection(rs.cartan, alpha), None)


def apply_weyl(w, x):
    n = x.rs.rank
    m = w.spherical.matrix
    coords = []
    for i in range(n):
        acc = _zero_like(x.coords[0])
        for j in range(n):
            if m[i][j]:
                acc = acc + x.coords[j] * m[i][j]
        coords.append(acc + w.translation.coords[i])
    return ApartmentVec(x.rs, coords)


def compose_weyl(w1, w2):
    """Element acting as w1 after w2."""
    a = w1.spherical
    trans = w1.translation + apply_weyl(
        AffineWeylElem(ApartmentVec.zero(w1.translation.rs), a, None), w2.translation
    )
    perm = None
    if w1.mu_perm and w2.mu_perm:
        s1, s2 = w1.mu_perm, w2.mu_perm
        perm = tuple(s2[s1[i] - 1] for i in range(len(s1)))
    return AffineWeylElem(trans, a @ w2.spherical, perm)


# --- feasibility -------------------------------------------------------------


def difference_form(s):
    """Constraints as (i, j, ell payload): mu_i - mu_j >= ell.  Type A only."""
    rs = s.rs
    if rs.kind[0] != "TypeA":
        raise UnsupportedConstraint("difference form requires a type A system")
    out = []
    for h in s.constraints:
        if h.threshold.is_bottom:
            if h.sign == MINUS:
                raise UnsupportedConstraint("Minus half-apartment with Bottom threshold")
            continue
        i, j = rs.label_of(h.root)
        ell = h.threshold.finite_value
        if h.sign == PLUS:
            out.append((i, j, ell))
        else:
            out.append((j, i, -ell))
    return out


def difference_potentials(m, cons):
    """Potentials d_1..d_m (as a list indexed from 0) with d_i - d_j >= ell
    for every (i, j, ell) in cons, or None when no such d exists.

    Bellman-Ford from a virtual source joined to every node by a zero edge,
    so the result is the pointwise largest solution with every d_i <= 0.
    The ell payloads may be int, Fraction or LexPair: the loop only adds,
    subtracts and compares them.  With no constraints every d_i is int 0.
    """
    d = [_zero_like(cons[0][2]) if cons else 0] * m
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


def wconvex_feasible(s):
    return wconvex_witness(s) is not None


# --- JSON --------------------------------------------------------------------


def wconvex_to_json(s):
    out = []
    for i, j, ell in difference_form(s):
        if not isinstance(ell, Fraction):
            raise UnsupportedConstraint("JSON form requires rational thresholds")
        out.append({"i": i, "j": j, "ell": str(ell)})
    return out


def wconvex_from_json(rs, data):
    cons = []
    for item in data:
        i, j = int(item["i"]), int(item["j"])
        ell = Fraction(str(item["ell"]))
        cons.append(HalfApartment(rs.alpha(i, j), LambdaVal.of(ell), PLUS))
    return WConvexSet(rs, tuple(cons))
