"""Valued field: truncated Puiseux series and the ordered value group.

Import the two layers as modules, ``valfield.series`` and ``valfield.lam``.
"""

# perfbench's tracer self-test reads valfield.mul to check that a function
# bound under a second module's name is wrapped as well
from .series import mul

__all__ = ["mul"]
