"""The root system A_{n-1} of SL(n), read in mu coordinates.

The apartment of SL(n) is mu in Lambda^n with sum zero, and the root
alpha_ij is the functional mu -> mu_i - mu_j for 1 <= i != j <= n.  So a
root is just its index pair (i, j): every pairing, reflection and Weyl
action is a difference or a permutation of mu coordinates (see apartment).
"""

from dataclasses import dataclass
from functools import cache

from .errors import NotARoot


@dataclass(frozen=True)
class TypeA:
    """A_rank: roots (i, j) for 1 <= i != j <= rank + 1."""

    rank: int

    def alpha(self, i, j):
        """The root alpha_ij as the pair (i, j); NotARoot for any other pair."""
        m = self.rank + 1
        if i == j or not (1 <= i <= m and 1 <= j <= m):
            raise NotARoot(f"no root labelled ({i}, {j})")
        return (i, j)


@cache
def type_A(n):
    """The A_n root system (rank n, Weyl group S_{n+1}); built once per n."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return TypeA(n)
