"""Exception types shared across the package, one per exit code.

HfqError (a ValueError) is bad input or a violated hypothesis, exit 64;
TooLargeError, its subclass, is an enumeration guard that tripped, exit 2.
Callers catch the package's failures with one except clause, and code that
only knows about ValueError still behaves sensibly.
"""

GUARD = 10**8  # the default step cap of every guard, and of --guard


class HfqError(ValueError):
    """Bad input or a violated hypothesis."""


class TooLargeError(HfqError):
    """A guard refused work that would exceed its cap."""


def check_guard(work: int, guard: int, what: str, unit: str = "steps") -> None:
    if work > guard:
        raise TooLargeError(f"{what} needs {work} {unit}, cap {guard}")
