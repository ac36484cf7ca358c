"""Exception types shared across the package."""


class KronSpectraError(Exception):
    """Base class for all errors raised by this package."""


class FamilyDomainError(KronSpectraError, ValueError):
    """Family parameters outside the valid domain (e.g. Johnson with m < 2r)."""


class FamilyParseError(KronSpectraError, ValueError):
    """Family string does not parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DisconnectedGraphError(KronSpectraError):
    """Operation requires a connected graph."""


class BipartiteGraphError(KronSpectraError):
    """Operation requires a non-bipartite graph (walk lengths of both parities)."""


class NonSymmetricMatrixError(KronSpectraError, ValueError):
    """Matrix fails the symmetric/Hermitian tolerance check."""


class OrderCapError(KronSpectraError):
    """Requested object exceeds the configured size cap."""


class NoClosedFormError(KronSpectraError):
    """No closed-form spectrum is available for the requested family."""
