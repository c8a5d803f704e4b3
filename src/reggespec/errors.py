"""Exception taxonomy shared across the package.

Validation failures subclass ValueError, numerical failures subclass
RuntimeError, so callers that do not care about the fine-grained names
can still catch the usual builtins.
"""


class ReggeError(Exception):
    """Base class for every error raised by this package."""


# ---- validation ----------------------------------------------------------

class ValidationError(ReggeError, ValueError):
    pass


class NonPositiveLength(ValidationError):
    """Interval length a must be strictly positive."""


class NegativeAlpha0(ValidationError):
    """Left boundary coupling alpha0 must satisfy alpha0 >= 0."""


class NonPositiveAlpha(ValidationError):
    """Right boundary coupling alpha must satisfy alpha > 0."""


class InconsistentRealFlag(ValidationError):
    """real_data=True requires a real potential and real beta0, beta."""


class OutOfDomain(ValidationError):
    """Evaluation point lies outside the potential's domain."""


class InconsistentInput(ValidationError):
    """Problem pair or spectral data violates a precondition."""


class MisalignedInput(ValidationError):
    """Paired sequences have mismatched lengths or index sets."""


# ---- numerics ------------------------------------------------------------

class NumericalError(ReggeError, RuntimeError):
    pass


class NoConvergence(NumericalError):
    """Iteration failed to converge within the allowed budget."""


class BoundaryZero(NumericalError):
    """A zero lies on (or numerically on) a search rectangle boundary."""


class NewtonDivergence(NumericalError):
    """Newton refinement left the search cell or stopped making progress."""


class MultiplicityCap(NumericalError):
    """Apparent zero multiplicity exceeds the configured cap."""


class DegenerateCase(NumericalError):
    """alpha0 = 1 or alpha = 1: no horizontal eigenvalue lattice exists."""


class DegenerateSigma(NumericalError):
    """sigma2 - sigma1 = 0 or sigma2 + sigma1 = 0: lattice formula breaks down."""


class LimitNotConverged(NumericalError):
    """Sequence extrapolation did not stabilise within tolerance."""


class BranchAmbiguity(NumericalError):
    """Square-root branch tracking could not decide between candidates."""


class ZeroAtOrigin(NumericalError):
    """Pipeline requires a characteristic function nonzero at the origin."""


class SignViolation(NumericalError):
    """A predicted sign condition fails at a computed eigenvalue."""


class InterlacingViolation(NumericalError):
    """Predicted interlacing of imaginary-axis zeros fails."""


class Overflow(NumericalError):
    """Descaled magnitude exceeds floating-point range."""


class TruncationDominates(NumericalError):
    """Requested accuracy is below the truncation error floor."""
