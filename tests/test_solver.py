import numpy as np

from susygate.solver import gauss_newton


def test_nan_residual_everywhere_returns_unconverged():
    # halving a NaN step never shrinks it, so the loop must stop on the step
    trials = []

    def evaluate(x):
        trials.append(np.array(x))
        return np.full(3, np.nan), lambda: np.ones((3, 2))

    x, converged = gauss_newton(evaluate, np.array([0.5, 1.0]), 1e-6)
    assert converged is False
    assert np.array_equal(x, [0.5, 1.0])
    assert len(trials) == 1
