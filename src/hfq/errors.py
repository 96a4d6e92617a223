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


def check_guard(work, guard: int, what: str, unit: str = "steps") -> None:
    """Refuse ``work``, a count or an iterable of counts, above ``guard``.
    Counts are summed only until the sum passes max(guard, 2^300), so a long
    range costs no more than its first counts.  A sum of over 300 bits is
    written by its size, at least 2^B, a lower bound (int-to-str refuses numbers
    of more than 4,300 digits); any smaller sum is summed whole and written out."""
    if not isinstance(work, int):
        stop, total = max(guard, 1 << 300), 0
        for count in work:
            total += count
            if total > stop:
                break
        work = total
    if work > guard:
        bits = work.bit_length()
        shown = work if bits <= 300 else f"at least 2^{bits - 1}"
        raise TooLargeError(f"{what} needs {shown} {unit}, cap {guard}")


def power_count(q: int, e: int, guard: int) -> int:
    """q^e, a count for check_guard, built only below e = B, the bit length
    of max(guard, 2^300); from there on 2^B, a lower bound (q >= 3) that
    check_guard refuses as it would refuse q^e."""
    bits = max(guard, 1 << 300).bit_length()
    return q**e if e < bits else 1 << bits
