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


class IntegrationError(SusygateError):
    """A master-equation step with ‖S·dt‖ not finite or not below 2⁵³, or an
    integrated state that ``Trajectory.validate`` rejects (rounding in the
    step, growing with ‖S·dt‖: at ω·dt = 1e10 the first state is not Hermitian)."""


class NonFiniteError(SusygateError):
    """A result holds NaN or an infinity: one to be written, every cost of a
    fit's parameter grid, or a Hamiltonian that ``fock.require_hermitian``
    checks (a finite but huge input overflows to one)."""
