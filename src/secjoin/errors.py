"""Exception types shared across the engine."""


class SecJoinError(Exception):
    """Base class for all engine errors."""


class FlavorMismatch(SecJoinError):
    """Two shares with different flavors were combined."""


class WidthMismatch(SecJoinError):
    """Two shared vectors with incompatible bit widths were combined."""


class SizeMismatch(SecJoinError):
    """Vector lengths (or permutation sizes) do not line up."""


class NotAPermutation(SecJoinError):
    """A value that must be a permutation of [1..n] is not."""


class PreconditionViolated(SecJoinError):
    """A protocol precondition failed (debug check)."""


class KeyModified(SecJoinError):
    """A view refresh tried to change a join-key column."""


class DomainTooLarge(SecJoinError):
    """A bitmap-based protocol was asked for a domain above its cap."""


class UnknownPrimitive(SecJoinError):
    """The plaintext oracle was asked for a primitive it does not know."""


class DuplicatePrimaryKey(SecJoinError):
    """A primary-key column contains repeated values."""


class ViewStale(SecJoinError):
    """A stored view no longer matches the base table it was built from."""


class ParseError(SecJoinError):
    """Malformed CSV or query-spec input."""


class MissingColumn(SecJoinError):
    """A query or an update names a column that its view or table lacks."""


class KeyOutOfRange(SecJoinError):
    """A join key or an FK fan-out exceeds the limits of view generation."""


class ValueOutsideDomain(SecJoinError):
    """A group column holds a value that its public domain lacks."""
