"""Exception kinds shared across the package.

Every error carries a machine-readable ``kind`` string that the CLI
surfaces in JSON error output.
"""


class RestrictaError(Exception):
    kind = "error"


class CapExceeded(RestrictaError):
    """A configured size cap (enumeration, matrix dimension, scan) was hit."""

    kind = "cap-exceeded"


class LimitExceeded(RestrictaError):
    """Requested sieve limit above the supported range."""

    kind = "limit-exceeded"


class OutOfRange(RestrictaError):
    """Query beyond the range a method is proven for."""

    kind = "out-of-range"


class NotReached(RestrictaError):
    """A scan hit its cap before the target condition."""

    kind = "not-reached"


class FactorizationTooHard(RestrictaError):
    """Exact divisor enumeration refused: unfactored composite cofactor."""

    kind = "factorization-too-hard"


class Unsupported(RestrictaError):
    """Operation defined only for a restricted input family."""

    kind = "unsupported"


class UsageError(RestrictaError):
    kind = "usage-error"


def parsed(convert, text: str, what: str):
    """convert(text), or a UsageError naming ``what`` when the text is not
    a value of that type."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what}: cannot read {text!r}") from None
