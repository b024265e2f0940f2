"""The value group Lambda = Q with bottom element.

A LambdaVal is Finite(payload) or Bottom, where Bottom is the (-v)-image of 0
and behaves as -infinity: absorbing under addition, below every finite value.
The payload is a Fraction, the value group the Puiseux field realises.
"""

from fractions import Fraction
from functools import total_ordering


def _coerce_payload(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"unsupported Lambda payload: {type(x).__name__}")


@total_ordering
class LambdaVal:
    """Finite(payload) | Bottom.  Immutable."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        # payload None encodes Bottom; use LambdaVal.of / BOTTOM instead.
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("LambdaVal is immutable")

    @classmethod
    def of(cls, x):
        return cls(_coerce_payload(x))

    @property
    def is_bottom(self):
        return self.payload is None

    @property
    def finite_value(self):
        if self.payload is None:
            raise ValueError("Bottom has no finite value")
        return self.payload

    def __add__(self, other):
        if not isinstance(other, LambdaVal):
            return NotImplemented
        if self.payload is None or other.payload is None:
            return BOTTOM
        return LambdaVal(self.payload + other.payload)

    def __eq__(self, other):
        if not isinstance(other, LambdaVal):
            return NotImplemented
        return self.payload == other.payload

    def __lt__(self, other):
        if not isinstance(other, LambdaVal):
            return NotImplemented
        if self.payload is None:
            return other.payload is not None
        if other.payload is None:
            return False
        return self.payload < other.payload

    def __hash__(self):
        return hash((LambdaVal, self.payload))

    def __repr__(self):
        return "Bottom" if self.payload is None else f"Finite({self.payload})"


BOTTOM = LambdaVal(None)
ZERO = LambdaVal.of(0)
