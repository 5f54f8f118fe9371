"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point or interval lies outside the domain it is used with."""


class CompositionError(ValueError):
    """Range/domain mismatch when chaining maps or relations."""


class HomeomorphismError(ValueError):
    """A map required to be a homeomorphism of [0,1] is not one."""


class ConstructionError(ValueError):
    """A named map family failed its build-time self check."""


class InvalidFamilyError(ValueError):
    """Inputs do not define a valid branch family."""


class UnsupportedRelationError(ValueError):
    """The requested operation would produce a relation outside the
    finite-arc model (e.g. a full rectangle fiber product)."""


class LiftingError(RuntimeError):
    """An orbit could not be lifted to a deeper coordinate.

    Carries ``level``, the first coordinate level at which the defining
    equations have no solution.
    """

    def __init__(self, message: str, level: int):
        super().__init__(message)
        self.level = level


class CertificationError(RuntimeError):
    """No certificate was found at a level that needs one.

    Carries ``level``, the first level k without a certificate, and ``n``,
    the certificate size tried there.
    """

    def __init__(self, message: str, level: int, n: int):
        super().__init__(message)
        self.level = level
        self.n = n


class DepthExhaustedError(RuntimeError):
    """A truncated point of depth 0 cannot move one more level."""


class ResourceError(RuntimeError):
    """A configured cap (breakpoints, orbits, arcs) was exceeded.

    ``partial`` holds whatever result had been computed so far.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ParseError(ValueError):
    """Malformed serialized input."""
