"""Exception types shared across the library."""


class Fuse3DError(Exception):
    """Base class for library-specific errors."""


class DimensionMismatch(Fuse3DError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class InvalidCount(Fuse3DError, ValueError):
    """A requested sample count or factor is outside the valid range."""


class TooFewPoints(Fuse3DError, ValueError):
    """An operation needs more points than were provided."""


class DomainError(Fuse3DError, ValueError):
    """A scalar argument lies outside the mathematical domain."""


class OutOfRange(Fuse3DError, ValueError):
    """A value falls outside the configured search range."""


class TruncatedFile(Fuse3DError):
    """A binary file ends in the middle of a record."""


class MissingKey(Fuse3DError):
    """A required key is absent from a calibration file."""


class ParseError(Fuse3DError):
    """A text file or fixture could not be parsed."""
