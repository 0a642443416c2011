"""Damped Gauss–Newton, the least-squares loop shared by channel design
and model fitting."""

import numpy as np

MAX_ITERATIONS = 100  # Gauss–Newton needs a handful


def gauss_newton(evaluate, x0, tol: float) -> tuple[np.ndarray, bool]:
    """Minimize |r(x)|² from ``x0``; returns ``(x, converged)``.

    ``evaluate(x)`` returns r(x) and a zero-argument callable giving the
    Jacobian at x, which the loop calls only at accepted points.  Each
    minimum-norm least-squares step is evaluated, then halved while |r|²
    does not drop; a non-finite residual never counts as a drop.  The loop
    stops once an accepted step is ≤ tol·(1 + |x|), or once halving shrinks
    the step below that; ``converged`` is False when the iteration cap ran
    out or a step was not finite (halving a NaN step never shrinks it).
    """
    x = np.asarray(x0, dtype=float)
    r, jacobian = evaluate(x)
    for _ in range(MAX_ITERATIONS):
        step = np.linalg.lstsq(jacobian(), -r, rcond=None)[0]
        if not np.isfinite(step).all():
            return x, False
        small = tol * (1.0 + np.linalg.norm(x))
        r_new, jac_new = evaluate(x + step)
        while not r_new @ r_new < r @ r:  # also true for nan and inf
            step = 0.5 * step
            if np.linalg.norm(step) <= small:
                return x, True
            r_new, jac_new = evaluate(x + step)
        x, r, jacobian = x + step, r_new, jac_new
        if np.linalg.norm(step) <= small:
            return x, True
    return x, False
