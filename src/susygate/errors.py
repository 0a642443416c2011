"""Exception types shared across the package.

Plain ``ValueError`` is used for contract violations (bad shapes, invalid
parameters); the classes below mark *numerical* failures that a caller may
want to retry with different discretization settings.  The CLI maps every
:class:`SusygateError` to exit code 3.
"""


class SusygateError(Exception):
    """Base class for numerical failures raised by this package."""


class OracleConvergenceError(SusygateError):
    """Time-ordered product did not reach an estimated error below its
    tolerance (1e-8) within the refinement cap."""


class CutoffError(SusygateError):
    """Truncated spectra did not converge under the cutoff used."""


class StepSizeError(SusygateError):
    """Integrator state left the physical set further than tolerated;
    reduce the step size."""


class NonFiniteError(SusygateError):
    """A result holds NaN or an infinity: one to be written, or every cost
    of a fit's parameter grid."""
