"""Trial configuration shared by the axiom and theorem suites."""

from typing import NamedTuple

from ..building import PERM_BOUND
from ..errors import ConfigError


class TrialConfig(NamedTuple):
    """Knobs for one suite run.

    exponent_denominator_bound and exponent_magnitude_bound shape the
    exponent lattice entries are drawn from: numerators up to the magnitude
    bound over denominators up to the denominator bound. factor_count caps
    the number of generator-family factors per element; zero means every
    drawn element is the identity.
    """

    n: int = 3
    trials: int = 100
    seed: int = 0
    exponent_denominator_bound: int = 2
    exponent_magnitude_bound: int = 4
    factor_count: int = 3

    def validate(self, enumeration=False):
        if self.n < 2:
            raise ConfigError("matrix size must be at least 2")
        if enumeration and self.n > PERM_BOUND:
            raise ConfigError(
                "enumeration-backed checks support matrix sizes up to "
                f"building.PERM_BOUND = {PERM_BOUND}"
            )
        if self.trials < 1:
            raise ConfigError("trial count must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.exponent_denominator_bound < 1:
            raise ConfigError("exponent denominator bound must be positive")
        if self.exponent_magnitude_bound < 1:
            raise ConfigError("exponent magnitude bound must be positive")
        if self.factor_count < 0:
            raise ConfigError("factor count must be nonnegative")
        return self
