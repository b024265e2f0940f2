"""Exact linear algebra over Fraction, shared by the generators and the
residue group of the boundaries."""

from fractions import Fraction


def identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][p] * b[p][j] for p in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def row_reduce(a, ncols):
    """Gauss-Jordan elimination in place on the rows of a (lists of
    Fraction) over its first ncols columns, leaving them in reduced row
    echelon form; later columns ride along as augmented columns.

    Returns (pivots, factor): the pivot columns in order, and the product of
    the pivots with the sign of the row swaps, which is the determinant of
    the leading square block when every one of its columns has a pivot."""
    nrows = len(a)
    pivots = []
    factor = Fraction(1)
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            factor = -factor
        p = a[row][col]
        factor *= p
        inv_p = 1 / p
        a[row] = [x * inv_p for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    return pivots, factor


def mat_inv(m):
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(m)
    a = [[Fraction(x) for x in row] + ident_row for row, ident_row in zip(m, identity(n))]
    pivots, _ = row_reduce(a, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in a]


def det(m):
    """Exact determinant by Gauss-Jordan elimination."""
    n = len(m)
    pivots, factor = row_reduce([[Fraction(x) for x in row] for row in m], n)
    return factor if len(pivots) == n else Fraction(0)
