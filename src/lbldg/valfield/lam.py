"""The finite values of Lambda = Q that symspace.distance returns.

A LambdaVal wraps a Fraction payload.  Bottom, the value of 0, never occurs
here: a valuation that may meet it (series.negval, building.trop) returns a
plain Fraction or None.  The type stays only because the benchmark workloads
in perfbench read ``distance(...).finite_value``; once they read the value
itself, distance can return the Fraction and this module can go.
"""

from fractions import Fraction
from functools import total_ordering


@total_ordering
class LambdaVal:
    """Finite(payload), payload a Fraction.  Immutable."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        # payload must be a Fraction; LambdaVal.of coerces an int
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("LambdaVal is immutable")

    @classmethod
    def of(cls, x):
        if isinstance(x, int):
            x = Fraction(x)
        elif not isinstance(x, Fraction):
            raise TypeError(f"unsupported Lambda payload: {type(x).__name__}")
        return cls(x)

    @property
    def finite_value(self):
        return self.payload

    def __add__(self, other):
        if not isinstance(other, LambdaVal):
            return NotImplemented
        return LambdaVal(self.payload + other.payload)

    def __eq__(self, other):
        if not isinstance(other, LambdaVal):
            return NotImplemented
        return self.payload == other.payload

    def __lt__(self, other):
        if not isinstance(other, LambdaVal):
            return NotImplemented
        return self.payload < other.payload

    def __hash__(self):
        return hash((LambdaVal, self.payload))

    def __repr__(self):
        return f"Finite({self.payload})"


ZERO = LambdaVal.of(0)
