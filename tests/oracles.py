"""Reference oracles for the tests: a brute-force membership search and a
greedy Iwasawa witness search, each independent of the algorithm it checks.

The witness search factors g = u . n . k with u upper unipotent, n a diagonal
monomial matrix of determinant one, and k a matrix over O.  It runs a greedy
leading-vector elimination: rows are finalized bottom up, and while the top
coefficient vector of row i at its peak exponent lies in the rational span
of the lower rows' top vectors, the matching monomial combination of lower
rows is subtracted.  When every row's top vector escapes that span the top
vectors are linearly independent, so the determinant's leading exponent is
the sum of the row peaks; det g = 1 then forces the peaks to sum to zero,
making diag(t^peak) special and leaving the scaled rows over O.
"""

from fractions import Fraction
from itertools import product

from lbldg.building import trop
from lbldg.linalg import row_reduce
from lbldg.symspace import GroupElem
from lbldg.valfield import series as fs

MAX_STEPS = 500


def brute_membership(g, mu, denom=2):
    """Independent membership oracle: search for a diagonal monomial witness
    c with c^(-1) . g . diag(t^mu) entrywise in O, scanning candidate
    exponent tuples on the (1/denom)-integer grid inside a trop-derived box.

    Any witness exponent is at least -B with B = max|trop| + max|mu| (rows
    are not identically zero), and the sum-zero condition then caps it by
    (n-1)B, so the box [-B-1, (n-1)B+1]^n holds every witness."""
    n = g.n
    mv = mu.to_mu()
    a = GroupElem(
        [
            [fs.monomial(mv[i]) if i == j else fs.ZERO for j in range(n)]
            for i in range(n)
        ],
        validate=False,
    )
    m = g @ a
    finite = [
        abs(v.finite_value) for row in trop(g) for v in row if not v.is_bottom
    ]
    b = max(finite) + max(abs(x) for x in mv)
    lo, hi = -b - 1, (n - 1) * b + 1
    axis = [Fraction(k, denom) for k in range(int(denom * lo), int(denom * hi) + 1)]
    for head in product(axis, repeat=n - 1):
        nu = list(head) + [-sum(head)]
        if not lo <= nu[-1] <= hi:
            continue
        if all(
            fs.in_O(fs.mul(fs.monomial(-nu[i]), m.entries[i][j]))
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def solve_combo(basis, v):
    """Rationals lam with sum(lam_k * basis[k]) = v, or None."""
    if not basis:
        return None
    m = len(basis)
    aug = [[b[r] for b in basis] + [v[r]] for r in range(len(v))]
    pivots = row_reduce(aug, m)
    if any(row[m] for row in aug[len(pivots):]):
        return None
    lam = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        lam[col] = aug[r][m]
    return lam


def iwasawa_witness(g):
    """(u, n, k) with g = u @ n @ k exactly, or None if the greedy search
    stalls.  Requires exact entries."""
    size = g.n
    for r in g.entries:
        for e in r:
            if e.floor is not None:
                raise ValueError("the witness search needs exact entries")
    rows = [list(r) for r in g.entries]
    uinv = [[fs.ONE if i == j else fs.ZERO for j in range(size)] for i in range(size)]
    peaks = [None] * size
    tops = [None] * size
    for i in range(size - 1, -1, -1):
        for _ in range(MAX_STEPS):
            peak = max(fs.negval(e) for e in rows[i])
            if peak.is_bottom:
                return None
            m = peak.finite_value
            v = [fs.coef_at(e, m) for e in rows[i]]
            lower = list(range(i + 1, size))
            lam = solve_combo([tops[k] for k in lower], v)
            if lam is None:
                peaks[i], tops[i] = m, v
                break
            for k, l in zip(lower, lam):
                if not l:
                    continue
                shift = fs.monomial(m - peaks[k], l)
                for j in range(size):
                    rows[i][j] = fs.sub(rows[i][j], fs.mul(shift, rows[k][j]))
                    uinv[i][j] = fs.sub(uinv[i][j], fs.mul(shift, uinv[k][j]))
        else:
            return None
    if sum(peaks) != 0:
        return None
    u = GroupElem(uinv).inverse()
    n_elem = GroupElem(
        [
            [fs.monomial(peaks[i]) if i == j else fs.ZERO for j in range(size)]
            for i in range(size)
        ]
    )
    k = n_elem.inverse() @ GroupElem(rows, validate=False)
    return u, n_elem, k
