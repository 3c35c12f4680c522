"""Exception types raised across the index."""


class Error(Exception):
    """Base class for every error raised by this package."""


class OutOfRangeError(Error, IndexError):
    """A position or interval endpoint lies outside the structure."""


class NotEnoughOccurrencesError(Error, ValueError):
    """select() asked for more occurrences of a bit than exist."""


class EmptyDocumentError(Error, ValueError):
    """A document with zero symbols was handed to ingest()."""


class SentinelInDocumentError(Error, ValueError):
    """A document contains the reserved terminator byte."""


class EmptyPatternError(Error, ValueError):
    """An empty pattern cannot be searched."""


class SentinelInPatternError(Error, ValueError):
    """A pattern contains the reserved terminator byte."""


class ValueOutOfRangeError(Error, ValueError):
    """A symbol value lies outside the declared alphabet range."""


class InconsistentIntervalsError(Error, ValueError):
    """A walk's core outside its interval, or bitmaps off the tree's routing."""


class EmptyTreeError(Error, ValueError):
    """An empty tree cannot be encoded."""


class InvalidHandleError(Error, ValueError):
    """A bit position that is not the start of a node encoding."""


class KStarNotPrecomputedError(Error, ValueError):
    """The requested candidate level was not built into the index."""


class UnknownStrategyError(Error, ValueError):
    """The query strategy name is not one of greedy/dfs/select."""


class ContainerFormatError(Error, ValueError):
    """An index file is malformed or truncated."""


class VersionMismatchError(ContainerFormatError):
    """An index file was written by an incompatible format version."""
