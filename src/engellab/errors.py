"""Exception types shared across the library."""


class EngelLabError(Exception):
    """Base class for all library errors."""


class ChartMismatchError(EngelLabError):
    """Objects defined on different charts were combined."""


class DerivativeOrderError(EngelLabError):
    """A derivative order beyond what the object can provide was requested."""


class JetDomainError(EngelLabError):
    """A jet function was applied outside its domain: sqrt or log of a
    series with nonpositive constant term, or division by one with zero
    constant term."""


class GeometryError(EngelLabError):
    """A geometric hypothesis failed at a concrete point.

    Carries the offending point in ``point`` when available.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class IntegrationError(EngelLabError):
    """The ODE integrator failed (step underflow, left chart bounds, no event)."""


class ConfigError(EngelLabError):
    """Bad CLI configuration or expression syntax."""


class ExpressionDomainError(GeometryError):
    """A configured expression was evaluated outside its domain (a float or
    jet domain error, division by zero, overflow) at ``point``.  The
    configured object is undefined there, so this is never read as the
    outcome of one sample."""
