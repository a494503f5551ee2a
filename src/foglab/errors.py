"""Exception types shared across the package, and the number grammar of its
text formats.

Argument/precondition violations raise plain ValueError; the classes here
cover failures that depend on the data itself, so callers (and the CLI) can
tell "bad input values" apart from "this data cannot support an estimate".
"""


def parse_number(token: str, convert=float):
    """``convert(token)``, for ``convert`` ``int`` or ``float``, in the one
    number grammar every text reader uses: Python's, in ASCII and without its
    ``_`` digit groups (``np.loadtxt`` refuses them in map edge records).
    ValueError otherwise."""
    if "_" in token:
        raise ValueError(f"'_' in {token!r}")
    if not token.isascii():
        raise ValueError(f"{token!r} is not ASCII")
    return convert(token)


class DataError(Exception):
    """Base class for data-dependent failures."""


class MapFormatError(DataError):
    """A serialized file does not match its documented format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotEnoughDataError(DataError):
    """Too few observations to attempt an estimate."""


class DegenerateDataError(DataError):
    """Observations are numerous enough but cannot identify the parameters."""


class NumericError(DataError):
    """Non-finite values encountered where finite ones are required."""
