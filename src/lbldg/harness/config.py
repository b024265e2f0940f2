"""Trial configuration shared by the axiom and theorem suites."""

from typing import NamedTuple

from ..errors import ConfigError


class TrialConfig(NamedTuple):
    """One suite run: matrix size, trial count and seed. Every suite draws
    from the fixed lattice of generators.SPAN, DENOM and FACTORS."""

    n: int = 3
    trials: int = 100
    seed: int = 0

    def validate(self):
        if self.n < 2:
            raise ConfigError("matrix size must be at least 2")
        if self.trials < 1:
            raise ConfigError("trial count must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        return self
