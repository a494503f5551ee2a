"""Exception types shared across the package, and how its text formats
read a file and a number.

Argument/precondition violations raise plain ValueError; the classes here
cover failures that depend on the data itself, so callers (and the CLI) can
tell "bad input values" apart from "this data cannot support an estimate".
"""


def parse_number(token: str, convert=float):
    """``convert(token)``, for ``convert`` ``int`` or ``float``, in the one
    number grammar every text reader uses: Python's, in ASCII and without its
    ``_`` digit groups, which no file format documents and which would let
    ``1_0`` read as 10. ``np.loadtxt``, which reads a map's edge records in
    bulk, takes the same spellings. ValueError otherwise."""
    if "_" in token:
        raise ValueError(f"'_' in {token!r}")
    if not token.isascii():
        raise ValueError(f"{token!r} is not ASCII")
    return convert(token)


def read_ascii(path) -> str:
    """The text of an ASCII file, with each ``\\r\\n`` or ``\\r`` line end read as
    ``\\n``. A byte that is not ASCII raises :class:`MapFormatError` with its
    line number."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:                     # replace scans slowly even when nothing matches
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MapFormatError(f"byte {data[exc.start]:#04x} is not ASCII",
                             data.count(b"\n", 0, exc.start) + 1) from exc


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
