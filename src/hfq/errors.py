"""Exception types shared across the package.

Everything derives from HfqError (a ValueError) so callers can catch the
package's failures with one except clause while still getting sensible
behaviour from code that only knows about ValueError.
"""


class HfqError(ValueError):
    """Base class for all errors raised by this package."""


class NotPrimeError(HfqError):
    pass


class EvenCharacteristicError(HfqError):
    pass


class ReducibleModulusError(HfqError):
    pass


class MixedCharacteristicError(HfqError):
    pass


class DivideByZeroError(HfqError):
    pass


class BothZeroError(HfqError):
    pass


class NotMonicError(HfqError):
    pass


class ZeroPolynomialError(HfqError):
    pass


class DegreeTooLargeError(HfqError):
    pass


class DegreeMismatchError(HfqError):
    pass


class ZeroDenominatorError(HfqError):
    pass


class WidthTooSmallError(HfqError):
    pass


class TooShortError(HfqError):
    pass


class PreconditionViolatedError(HfqError):
    pass


class WrongClassError(HfqError):
    pass


class NotCoprimeError(HfqError):
    pass


class BadParityError(HfqError):
    pass


class ExponentNotIntegerError(HfqError):
    pass


class RangeEmptyError(HfqError):
    pass


class TooLargeError(HfqError):
    pass


def check_guard(work: int, guard: int, what: str, unit: str = "steps") -> None:
    if work > guard:
        raise TooLargeError(f"{what} needs {work} {unit}, cap {guard}")


class LiteralError(HfqError):
    pass
