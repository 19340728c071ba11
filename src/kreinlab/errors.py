"""Exception and warning types shared across the package."""


class KreinlabError(Exception):
    """Base class for all package errors."""


class RangeExceeded(KreinlabError):
    """Argument or order outside the supported evaluation range."""


class DomainError(KreinlabError):
    """Input outside the mathematical domain of the operation."""


class BadNodeCount(KreinlabError):
    """Grid node count incompatible with the singular quadrature rule."""


class NearSingular(KreinlabError):
    """Boundary system too ill-conditioned to solve reliably."""


class NearEigenvalue(KreinlabError):
    """Spectral parameter too close to an eigenvalue of the operator involved."""


class SpecInvalid(KreinlabError):
    """Extension specification violates its invariants."""


class QuadratureUnavailable(KreinlabError):
    """Interior integrals requested on a backend without an interior rule."""


class BackendUnsupported(KreinlabError):
    """Operation not available on this backend."""


class WindowTooWide(KreinlabError):
    """No eigenvalue where one was asked for."""


class CountFailed(KreinlabError):
    """The eigenvalue count cannot be trusted at ``lam``.

    Raised when the count decreases between two samples, or when the boundary
    map fails at a sample that already lies off every reference eigenvalue.
    ``counts`` holds the counts at the samples to the left and to the right
    (``None`` for one not yet taken).
    """

    def __init__(self, reason: str, lam: float, counts: tuple):
        super().__init__(f"{reason} at lambda = {lam!r} (counts {counts[0]}, {counts[1]})")
        self.lam = lam
        self.counts = counts


class BracketSingular(KreinlabError):
    """The Weyl-function bracket is numerically singular at this point."""


class TargetTooClose(UserWarning):
    """Evaluation point closer to the boundary than the accuracy guarantee.

    Issued as a warning: the value is still returned, but plain quadrature
    loses accuracy within about five grid spacings of the boundary.
    """
