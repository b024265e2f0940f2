"""Exact linear algebra over Fraction, for the generators."""

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

    Returns the pivot columns in order."""
    nrows = len(a)
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv_p = 1 / a[row][col]
        a[row] = [x * inv_p for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    return pivots


def mat_inv(m):
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(m)
    a = [[Fraction(x) for x in row] + ident_row for row, ident_row in zip(m, identity(n))]
    if len(row_reduce(a, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in a]
