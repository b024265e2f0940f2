"""Valued field: truncated Puiseux series, imported as ``valfield.series``.

The value group Lambda is Q, so values are plain Fractions.
"""

# perfbench's tracer self-test reads valfield.mul to check that a function
# bound under a second module's name is wrapped as well
from .series import mul

__all__ = ["mul"]
