"""Exact matrix inverse over the rationals, for the generators.

mat_inv runs fraction-free Gauss-Jordan elimination on ints (Bareiss 1968,
Math. Comp. 22): each row is scaled to ints once, and every elimination step
divides exactly by the previous pivot, so no Fraction appears until the
inverse is read off at the end.  Its one caller, gen_orthogonal, draws its
matrix as ints and reads each entry of the inverse by numerator and
denominator.
"""

from fractions import Fraction
from math import lcm


def mat_inv(m):
    """The inverse of a square matrix of ints or Fractions, as rows of
    Fraction; raises ValueError on a singular matrix.  Entries are read
    through .numerator and .denominator, which an int has too.

    Row i of m is scaled by the lcm s_i of its denominators, and the int
    system [S m | S] is reduced.  After step k every entry is a minor of
    order k + 1 of that system, so the division by the previous pivot is
    exact, and the pivot columns hold p_k times the identity.  At the end
    the left block is p I with p = +-det(S m) and the right block is
    p m^-1.  A zero column below the pivot row means the column lies in the
    span of the earlier ones: the matrix is singular.
    """
    n = len(m)
    a = []
    for i, row in enumerate(m):
        s = lcm(*[x.denominator for x in row])
        a.append([x.numerator * (s // x.denominator) for x in row] + [0] * n)
        a[i][n + i] = s
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        p = top[k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return [[Fraction(x, prev) for x in row[n:]] for row in a]
