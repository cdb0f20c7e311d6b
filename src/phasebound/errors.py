"""Exception taxonomy shared across the package.

Library code raises these; the command line layer maps them onto exit codes.
"""


class PhaseboundError(Exception):
    """Base class for every error raised deliberately by this package."""


class DomainError(PhaseboundError, ValueError):
    """A coordinate fell outside the domain a potential is defined on."""


class UsageError(PhaseboundError, ValueError):
    """An operation was called with arguments that violate its contract."""


class ParseError(PhaseboundError, ValueError):
    """A potential description (JSON file or dict) could not be interpreted."""


class NoClassicalMotion(PhaseboundError):
    """No classically allowed region exists at the requested energy."""


class MultiRegionError(PhaseboundError):
    """More than one allowed region at a trial energy; quantization refused."""


class LevelUnbound(PhaseboundError):
    """The requested level index does not exist in the discrete spectrum."""


class SolverError(PhaseboundError):
    """The energy solver failed to converge or met an inconsistent state."""


class QuadratureError(PhaseboundError):
    """Adaptive quadrature could not meet its tolerances.

    ``estimate`` is the best value obtained, ``error_bound`` the estimated
    error of that value.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SingularPointError(PhaseboundError):
    """Evaluation was requested too close to a classical turning point."""


class NormalizationError(PhaseboundError):
    """A wavefunction norm integral failed or came out non-finite."""


class OracleError(PhaseboundError):
    """The finite-difference reference solver could not produce eigenvalues."""
