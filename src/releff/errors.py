"""Exceptions and warnings shared across the package."""


class SizeTooSmall(ValueError):
    """A sample is too small for the requested estimator."""


class InvalidKind(ValueError):
    """The requested test/estimator kind is not valid in this context."""


class NoBracket(ValueError):
    """The target effect is not attainable inside the search bracket."""


class UnsupportedPair(ValueError):
    """No exact routine exists for this pair of distributions."""


class ConfigError(ValueError):
    """A scenario file or CSV input could not be parsed."""


class TiesInReducedForm(UserWarning):
    """Continuity-reduced estimator requested on data containing ties."""
