"""Exception types shared across the library.

Every concrete error is either a ParseError (bad data; the CLI exits 2)
or a ValueError (a bad argument or setting; the CLI exits 1).
"""


class Fuse3DError(Exception):
    """Base class for library-specific errors."""


class DimensionMismatch(Fuse3DError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class InvalidCount(Fuse3DError, ValueError):
    """A count is not an integer or below its bound, or a sample count or
    oversample factor lies outside its range; a factor that is not a
    finite real number is a DomainError."""


class TooFewPoints(Fuse3DError, ValueError):
    """An operation needs more points than were provided."""


class DomainError(Fuse3DError, ValueError):
    """A scalar real argument is not a finite real number in its interval."""


class OutOfRange(Fuse3DError, ValueError):
    """A value falls outside the configured search range."""


class ParseError(Fuse3DError):
    """A text file or fixture could not be parsed."""


class TruncatedFile(ParseError):
    """A binary file ends in the middle of a record."""


class MissingKey(ParseError):
    """A required key is absent from a calibration file."""
