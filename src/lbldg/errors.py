"""Exception types shared across the package."""


class PrecisionError(ArithmeticError):
    """A truncation floor masks information the operation needs."""


class SeriesSyntaxError(ValueError):
    """Series text does not match the grammar; carries the offset, a character
    index into the text."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DuplicateExponent(SeriesSyntaxError):
    """The same exponent appears twice in series text."""


class DigitLimit(ValueError):
    """A series integer has more digits than int() converts to text, the
    limit sys.get_int_max_str_digits() reads."""


class NotInRing(ValueError):
    """Element is not in the valuation ring O."""


class NotASquare(ValueError):
    """Leading coefficient is not the square of a rational."""


class NegativeInput(ValueError):
    """sqrt_pos requires a positive element."""


class NotARoot(ValueError):
    """Index pair names no root of the system."""


class IdentityElement(ValueError):
    """Operation undefined for the identity root element."""


class ConfigError(ValueError):
    """Invalid harness configuration."""
