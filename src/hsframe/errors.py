"""Exception hierarchy shared by all hsframe modules.

The split mirrors the CLI exit codes: validation / precondition problems
(exit 2), numeric failures (exit 3), and file-level problems (exit 4).
"""


class HSFrameError(Exception):
    """Base class for all errors raised by hsframe."""


class ValidationError(HSFrameError):
    """Bad shapes, inconsistent dimensions, or violated preconditions."""


class NotAFrameError(ValidationError):
    """An operation that needs a frame got a family with lower bound zero."""


class NumericError(HSFrameError):
    """A numerical computation failed (solver breakdown, lost certificate)."""


class SectionSingularError(NumericError):
    """A section's smallest kept singular value is below what its SVD
    resolves, sigma_r <= 16 r eps sigma_max.

    Only a rank tolerance below about 16 r eps (too loose for the family at
    hand) keeps such a direction in the section basis.
    """


class InternalConsistencyError(NumericError):
    """A certified inequality failed numerically; indicates a bug, not data."""


class ParseError(HSFrameError):
    """A file could not be parsed as the expected format."""
