"""Exception types raised across the index, and the checks of integer
parameters that raise InvalidParameterError."""

import operator


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


class CorpusTooLargeError(Error, ValueError):
    """A text is longer than corpus.MAX_SYMBOLS, the largest supported."""


class EmptyPatternError(Error, ValueError):
    """An empty pattern cannot be searched."""


class SentinelInPatternError(Error, ValueError):
    """A pattern contains the reserved terminator byte."""


class ValueOutOfRangeError(Error, ValueError):
    """A symbol value lies outside the declared alphabet range."""


class InconsistentIntervalsError(Error, ValueError):
    """A walk's core outside its interval, or bitmaps off the document
    lengths or off the order of the text's suffixes."""


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


class InvalidParameterError(Error, ValueError):
    """A count or build parameter outside what the call accepts: k or
    g_prime not an integer or below 1, k_max not a power of two, an
    unknown variant, a rank sample step below 1, a bit string holding
    anything but 0 and 1, a benchmark pattern length the text cannot
    supply, a negative benchmark query count, or no benchmark strategy."""


def integer(name, value):
    """value as an int, by operator.index: numpy ints and bools pass, and
    anything else, a float or a string, raises InvalidParameterError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} = {value!r}; it must be an integer") from None


def positive(name, value):
    """integer(name, value), which must also be at least 1."""
    value = integer(name, value)
    if value < 1:
        raise InvalidParameterError(f"{name} = {value}; it must be at least 1")
    return value
