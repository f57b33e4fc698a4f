"""Exception types shared across the package.

Every error that user input can trigger derives from FrdError so the command
line layer can map families of failures onto distinct exit codes.
"""


class FrdError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(FrdError):
    """Array shapes disagree with the geometry or with each other."""


class CubeTooLarge(FrdError):
    """Requested cube does not fit inside the torus, or is above the size
    limit of its route: DENSE_LIMIT unknowns for the dense stiffness K, or
    DENSE_LIMIT^2 words for the layer blocks of every cube route of the
    product formula."""


class ImaginaryResidue(FrdError):
    """Kernel reconstruction left a larger imaginary part than allowed: the
    multiplier table was not Hermitian."""


class OrderTooHigh(FrdError):
    """Difference order above the configured maximum."""


class NotSymmetric(FrdError):
    """Coefficient array is not symmetric within tolerance."""


class NotPositiveDefinite(FrdError):
    """Coefficient array has a non-positive eigenvalue."""


class NotPSD(FrdError):
    """Matrix handed to the Hermitian square root is not positive
    semidefinite within tolerance."""


class SingularSymbol(FrdError):
    """Frequency-space symbol too ill-conditioned to invert reliably."""


class OutsideDisc(FrdError):
    """Complex coefficient parameter lies outside the open unit disc."""


class FactorizationFailure(FrdError):
    """Stiffness factorization failed; admissible inputs should never
    trigger this, so it doubles as a bug sentinel."""


class ZeroFrequency(FrdError):
    """Operation undefined at the zero frequency."""


class SampleTooLarge(FrdError):
    """One sample's working arrays do not fit the sampler's byte budget."""


class TooLargeForOracle(FrdError):
    """Problem size exceeds the dense-oracle guard."""


class InvalidSchedule(FrdError):
    """Cube schedule violates a hard precondition."""


class EmptyFarRegion(FrdError):
    """No site lies beyond the requested range."""


class NotConverged(FrdError):
    """Contour quadrature failed its node-doubling convergence gate."""


class InsufficientScales(FrdError):
    """Too few non-skipped scales for a slope fit."""


class ParseError(FrdError):
    """Configuration text is not well-formed."""


class ValidationError(FrdError):
    """Configuration parsed but contains an invalid or unknown entry."""
