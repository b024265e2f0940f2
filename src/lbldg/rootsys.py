"""Crystallographic root systems with exact integer pairing.

Roots are stored as (vec, covec) pairs of integer coordinate vectors in the
simple-root basis; no Euclidean embedding is ever materialized. The pairing
b(x, beta_covec) routes through the Cartan matrix, so every value is an exact
integer.
"""

from itertools import permutations
from typing import NamedTuple

from .errors import EnumerationBound, NotARoot

ENUM_BOUND = 10**4


class Root(NamedTuple):
    vec: tuple
    covec: tuple


class WeylElem(NamedTuple):
    """Spherical Weyl group element: action matrices on root coordinates
    (vec side and covec side), plus the permutation of {1..n} for type A."""

    matrix: tuple
    comatrix: tuple
    perm: tuple = None

    def act_vec(self, x):
        return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in self.matrix)

    def act_root(self, root):
        v = self.act_vec(root.vec)
        d = tuple(
            sum(row[j] * root.covec[j] for j in range(len(root.covec)))
            for row in self.comatrix
        )
        return Root(v, d)


class RootSystem:
    __slots__ = ("rank", "roots", "basis", "cartan", "kind", "_by_vec", "_labels")

    def __init__(self, rank, roots, basis, cartan, kind, labels=None):
        self.rank = rank
        self.roots = frozenset(roots)
        self.basis = tuple(basis)
        self.cartan = tuple(tuple(row) for row in cartan)
        self.kind = kind
        self._by_vec = {r.vec: r for r in self.roots}
        self._labels = labels or {}

    def root_from_vec(self, vec):
        r = self._by_vec.get(tuple(vec))
        if r is None:
            raise NotARoot(f"{tuple(vec)} is not a root")
        return r

    def alpha(self, i, j):
        """Type A root alpha_{ij} for 1 <= i != j <= n+1."""
        r = self._labels.get((i, j))
        if r is None:
            raise NotARoot(f"no root labelled ({i}, {j})")
        return r

    def label_of(self, root):
        for lab, r in self._labels.items():
            if r == root:
                return lab
        raise NotARoot("root carries no (i, j) label")

    def __eq__(self, other):
        if not isinstance(other, RootSystem):
            return NotImplemented
        return self.kind == other.kind and self.cartan == other.cartan

    def __hash__(self):
        return hash((self.kind, self.cartan))


def _as_root(rs, beta):
    if isinstance(beta, Root):
        if beta not in rs.roots:
            raise NotARoot(f"{beta.vec} is not a root of the system")
        return beta
    return rs.root_from_vec(beta)


def _as_vec(x):
    return x.vec if isinstance(x, Root) else tuple(x)


def pairing(rs, x, beta):
    """b(x, beta^∨) = x^T . (B . covec_beta); exact integer."""
    beta = _as_root(rs, beta)
    x = _as_vec(x)
    n = rs.rank
    out = 0
    for j in range(n):
        if x[j]:
            out += x[j] * sum(rs.cartan[j][k] * beta.covec[k] for k in range(n))
    return out


def reflect(rs, alpha, x):
    """r_alpha(x) = x - b(x, alpha^∨) * alpha on the vec side."""
    alpha = _as_root(rs, alpha)
    xv = _as_vec(x)
    c = pairing(rs, xv, alpha)
    out = tuple(xv[k] - c * alpha.vec[k] for k in range(rs.rank))
    return rs.root_from_vec(out) if isinstance(x, Root) else out


def _reflect_root(cartan, i, root):
    """Simple reflection s_i acting on a (vec, covec) pair; 0-indexed i."""
    n = len(cartan)
    cv = sum(cartan[j][i] * root.vec[j] for j in range(n))
    cd = sum(cartan[i][j] * root.covec[j] for j in range(n))
    vec = tuple(root.vec[k] - (cv if k == i else 0) for k in range(n))
    covec = tuple(root.covec[k] - (cd if k == i else 0) for k in range(n))
    return Root(vec, covec)


def type_A(n):
    """The A_n root system (rank n, Weyl group S_{n+1}), roots alpha_{ij}."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    labels = {}
    roots = []
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if i == j:
                continue
            lo, hi, sgn = (i, j, 1) if i < j else (j, i, -1)
            vec = tuple(sgn if lo <= k + 1 < hi else 0 for k in range(n))
            r = Root(vec, vec)
            labels[(i, j)] = r
            roots.append(r)
    basis = [labels[(k, k + 1)] for k in range(1, n + 1)]
    return RootSystem(n, roots, basis, cartan, ("TypeA", n), labels)


def from_cartan(cartan):
    """Root system generated from a crystallographic Cartan matrix by closing
    the simple roots under simple reflections (safety bound 10^4 roots)."""
    n = len(cartan)
    for i in range(n):
        if len(cartan[i]) != n:
            raise ValueError("Cartan matrix must be square")
        if cartan[i][i] != 2:
            raise ValueError("Cartan diagonal entries must equal 2")
        for j in range(n):
            if i != j and (cartan[i][j] > 0 or (cartan[i][j] == 0) != (cartan[j][i] == 0)):
                raise ValueError("not a crystallographic Cartan matrix")
    basis = [
        Root(tuple(int(i == k) for i in range(n)), tuple(int(i == k) for i in range(n)))
        for k in range(n)
    ]
    seen = set(basis)
    frontier = list(basis)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                im = _reflect_root(cartan, i, r)
                if im not in seen:
                    seen.add(im)
                    nxt.append(im)
                    if len(seen) > ENUM_BOUND:
                        raise EnumerationBound(f"more than {ENUM_BOUND} roots generated")
        frontier = nxt
    return RootSystem(n, seen, basis, cartan, ("FromCartan",))


def positive_roots(rs):
    """Roots whose basis coordinates are all nonnegative."""
    return {r for r in rs.roots if all(c >= 0 for c in r.vec)}


def weyl_from_perm(rs, perm):
    n = rs.rank
    cols_v = []
    cols_d = []
    for k in range(1, n + 1):
        im = rs.alpha(perm[k - 1], perm[k])
        cols_v.append(im.vec)
        cols_d.append(im.covec)
    matrix = tuple(tuple(cols_v[j][i] for j in range(n)) for i in range(n))
    comatrix = tuple(tuple(cols_d[j][i] for j in range(n)) for i in range(n))
    return WeylElem(matrix, comatrix, tuple(perm))


def weyl_elements(rs, max_elements=ENUM_BOUND):
    """All Weyl elements: n! permutations for TypeA, reflection closure
    otherwise (EnumerationBound if the group exceeds the bound)."""
    if rs.kind[0] == "TypeA":
        m = rs.kind[1] + 1
        return [weyl_from_perm(rs, p) for p in permutations(range(1, m + 1))]
    n = rs.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = []
    for i in range(n):
        mat = tuple(
            tuple((1 if k == j else 0) - (rs.cartan[j][i] if k == i else 0) for j in range(n))
            for k in range(n)
        )
        comat = tuple(
            tuple((1 if k == j else 0) - (rs.cartan[i][j] if k == i else 0) for j in range(n))
            for k in range(n)
        )
        gens.append(WeylElem(mat, comat))

    def compose(w2, w1):
        mat = tuple(
            tuple(sum(w2.matrix[i][k] * w1.matrix[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        comat = tuple(
            tuple(sum(w2.comatrix[i][k] * w1.comatrix[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return WeylElem(mat, comat)

    seen = {ident: WeylElem(ident, ident)}
    frontier = [seen[ident]]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                im = compose(g, w)
                if im.matrix not in seen:
                    seen[im.matrix] = im
                    nxt.append(im)
                    if len(seen) > max_elements:
                        raise EnumerationBound(f"Weyl group exceeds {max_elements} elements")
        frontier = nxt
    return list(seen.values())
