"""Exception types shared across the library.

Every concrete error is either a ParseError (bad data; the CLI exits 2)
or a ValueError (a bad argument or setting; the CLI exits 1).
"""


class Fuse3DError(Exception):
    """Base class for library-specific errors."""


class DimensionMismatch(Fuse3DError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class InvalidCount(Fuse3DError, ValueError):
    """An integer argument (a count, seed, index or bin) is not an integer
    or lies outside its bounds, an oversample factor outside [1, N/n], or
    an index array is not distinct integers in range; a factor that is
    not a finite real number is a DomainError."""


class TooFewPoints(Fuse3DError, ValueError):
    """An operation needs more points than were provided."""


class DomainError(Fuse3DError, ValueError):
    """A scalar real argument is not a finite real number in its interval."""


class OutOfRange(Fuse3DError, ValueError):
    """An offset to be binned falls outside its spec's search range, or
    cannot be folded into a wrapping one; a bin index outside its range
    is an InvalidCount."""


class ParseError(Fuse3DError):
    """A text file or fixture could not be parsed."""


class TruncatedFile(ParseError):
    """A binary file ends in the middle of a record."""


class MissingKey(ParseError):
    """A required key is absent from a calibration file."""
