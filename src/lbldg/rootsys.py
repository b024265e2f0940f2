"""Crystallographic root systems with exact integer pairing.

Roots are stored as (vec, covec) pairs of integer coordinate vectors in the
simple-root basis; no Euclidean embedding is ever materialized. The pairing
b(x, beta_covec) routes through the Cartan matrix, so every value is an exact
integer.

This module is the one place that knows how a root pairs, reflects and
composes: each RootSystem stores the pairing row B . covec of every root
(`RootSystem.pairing_row`), `reflection` builds s_beta from the Cartan
matrix, and `WeylElem.__matmul__` is the one Weyl product. The apartment
reads all three from here.
"""

from functools import cache
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

    def __matmul__(self, other):
        """The element acting as self after other (perm is not carried)."""
        return WeylElem(
            _mat_mul(self.matrix, other.matrix), _mat_mul(self.comatrix, other.comatrix)
        )


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _pairing_row(cartan, v):
    """B . v; with v = covec_beta this is the row r with b(x, beta^∨) = x . r."""
    return tuple(sum(b * c for b, c in zip(row, v)) for row in cartan)


def weyl_identity(n):
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return WeylElem(ident, ident)


def _minus_outer(u, r):
    """I - u (x) r."""
    return tuple(tuple(int(k == j) - u[k] * rj for j, rj in enumerate(r)) for k in range(len(u)))


def reflection(cartan, beta):
    """s_beta as a WeylElem: I - vec (x) (B . covec) on the vec side and
    I - covec (x) (B^T . vec) on the covec side."""
    return WeylElem(
        _minus_outer(beta.vec, _pairing_row(cartan, beta.covec)),
        _minus_outer(beta.covec, _pairing_row(tuple(zip(*cartan)), beta.vec)),
    )


class RootSystem:
    """Never mutated after construction, so type_A can share one per rank."""

    __slots__ = (
        "rank", "roots", "basis", "cartan", "kind", "_by_vec", "_rows", "_labels", "_label_of"
    )

    def __init__(self, rank, roots, basis, cartan, kind, labels=None):
        self.rank = rank
        self.roots = frozenset(roots)
        self.basis = tuple(basis)
        self.cartan = tuple(tuple(row) for row in cartan)
        self.kind = kind
        self._by_vec = {r.vec: r for r in self.roots}
        self._rows = {r.vec: _pairing_row(self.cartan, r.covec) for r in self.roots}
        self._labels = labels or {}
        self._label_of = {r: lab for lab, r in self._labels.items()}

    def root_from_vec(self, vec):
        r = self._by_vec.get(tuple(vec))
        if r is None:
            raise NotARoot(f"{tuple(vec)} is not a root")
        return r

    def pairing_row(self, root):
        """B . covec of a root, given as a Root or its vec: b(x, root^∨) = x . row."""
        vec = root.vec if isinstance(root, Root) else tuple(root)
        row = self._rows.get(vec)
        if row is None:
            raise NotARoot(f"{vec} is not a root")
        return row

    def alpha(self, i, j):
        """Type A root alpha_{ij} for 1 <= i != j <= n+1."""
        r = self._labels.get((i, j))
        if r is None:
            raise NotARoot(f"no root labelled ({i}, {j})")
        return r

    def label_of(self, root):
        lab = self._label_of.get(root)
        if lab is None:
            raise NotARoot("root carries no (i, j) label")
        return lab

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
    return sum(a * b for a, b in zip(_as_vec(x), rs.pairing_row(_as_root(rs, beta))))


def reflect(rs, alpha, x):
    """r_alpha(x) = x - b(x, alpha^∨) * alpha on the vec side."""
    alpha = _as_root(rs, alpha)
    xv = _as_vec(x)
    c = pairing(rs, xv, alpha)
    out = tuple(xv[k] - c * alpha.vec[k] for k in range(rs.rank))
    return rs.root_from_vec(out) if isinstance(x, Root) else out


@cache
def type_A(n):
    """The A_n root system (rank n, Weyl group S_{n+1}), roots alpha_{ij};
    built once per n."""
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
    the simple roots under the simple reflections (safety bound 10^4 roots)."""
    n = len(cartan)
    for i in range(n):
        if len(cartan[i]) != n:
            raise ValueError("Cartan matrix must be square")
        if cartan[i][i] != 2:
            raise ValueError("Cartan diagonal entries must equal 2")
        for j in range(n):
            if i != j and (cartan[i][j] > 0 or (cartan[i][j] == 0) != (cartan[j][i] == 0)):
                raise ValueError("not a crystallographic Cartan matrix")
    basis = [Root(e, e) for e in weyl_identity(n).matrix]
    gens = [reflection(cartan, d) for d in basis]
    seen = set(basis)
    frontier = list(basis)
    while frontier:
        nxt = []
        for r in frontier:
            for g in gens:
                im = g.act_root(r)
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
    gens = [reflection(rs.cartan, d) for d in rs.basis]
    ident = weyl_identity(rs.rank)
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                im = g @ w
                if im.matrix not in seen:
                    seen[im.matrix] = im
                    nxt.append(im)
                    if len(seen) > max_elements:
                        raise EnumerationBound(f"Weyl group exceeds {max_elements} elements")
        frontier = nxt
    return list(seen.values())
