"""Exception types shared across the toolkit."""


class AttraosError(Exception):
    """Base class for all attraos errors."""


class NonFiniteError(AttraosError):
    """A computation produced inf/NaN (e.g. integration blow-up)."""


class TooShortError(AttraosError):
    """Input series is too short for the requested operation."""


class DegenerateSeriesError(AttraosError):
    """Series is constant (or otherwise carries no usable variation)."""


class ShapeMismatchError(AttraosError):
    pass


class TooManyModesError(AttraosError):
    pass


class SingularSystemError(AttraosError):
    """Unregularized least squares hit a rank-deficient design."""


class EmptyInputError(AttraosError):
    pass


class ModelFormatError(AttraosError):
    """A saved model document is not a well-formed attraos model."""
