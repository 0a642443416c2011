import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import random_density, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from susygate import filter_fit
from susygate.errors import IntegrationError
from susygate.filter_fit import (
    EIGENVALUE_FLOOR,
    LindbladModel,
    ModelFamily,
    Trajectory,
    _block_len,
    _propagate,
    _state_faults,
    _step,
    _tangents,
    ensemble_stats,
    filter_estimate,
    fit_parameters,
    lindblad_evolve,
    liouvillian,
    sme_simulate,
)

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
RHO_EXCITED = np.array([[0, 0], [0, 1]], dtype=complex)


def damping_model(gamma: float, drive: float = 0.0) -> LindbladModel:
    return LindbladModel(0.5 * drive * SX, (np.sqrt(gamma) * LOWER,))


LOWER3 = np.diag([1.0, np.sqrt(2.0)], k=1).astype(complex)
RHO_TOP3 = np.diag([0.0, 0.0, 1.0]).astype(complex)


def qutrit_model() -> LindbladModel:
    # driven three-level ladder with damping (index 0) and a number
    # measurement channel (index 1), so the unmeasured jump term is live
    h = 0.5 * (LOWER3 + LOWER3.conj().T) + np.diag([0.0, 0.3, 0.8])
    return LindbladModel(h, (np.sqrt(0.5) * LOWER3, np.sqrt(0.3) * np.diag([0.0, 1.0, 2.0])))


LOWER5 = np.diag(np.sqrt(np.arange(1.0, 5.0)), k=1).astype(complex)
RHO_TOP5 = np.diag([0.0, 0.0, 0.0, 0.0, 1.0]).astype(complex)


def five_level_model() -> LindbladModel:
    # driven anharmonic ladder with damping; at d = 5 a strided trace
    # y[::d+1].sum() can differ from the integrator's gathered one in the last bit
    h = 0.5 * (LOWER5 + LOWER5.conj().T) + np.diag(0.1 * np.arange(5.0) ** 2)
    return LindbladModel(h, (np.sqrt(0.4) * LOWER5,))


def grid(horizon, dt):
    return np.arange(0, horizon + dt / 2, dt)


# --- deterministic evolution -------------------------------------------------

def test_unitary_limit_matches_conjugation():
    h = 0.8 * SX
    model = LindbladModel(h, ())
    times = grid(1.5, 1e-3)
    traj = lindblad_evolve(model, RHO_EXCITED, times)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * 1.5)) @ v.conj().T
    expected = u @ RHO_EXCITED @ u.conj().T
    assert np.max(np.abs(traj.states[-1] - expected)) < 1e-8


def test_amplitude_damping_analytic_decay():
    # scalar ODE solution rho_11(t) = e^{-gamma t}; frozen: e^{-1} = 0.36788
    times = grid(1.0, 1e-4)
    traj = lindblad_evolve(damping_model(1.0), RHO_EXCITED, times)
    assert traj.states[-1][1, 1].real == pytest.approx(0.36788, abs=1e-5)
    assert traj.states[-1][1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_liouvillian_matches_master_equation(rng):
    model = qutrit_model()
    h, ops = model.hamiltonian, model.lindblads
    rho = random_density(rng, 3)
    expected = -1j * (h @ rho - rho @ h)
    for l in ops:
        ldl = l.conj().T @ l
        expected += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    got = (liouvillian(model) @ rho.reshape(-1)).reshape(3, 3)
    assert np.max(np.abs(got - expected)) <= 1e-13


def test_trace_one_throughout():
    times = grid(2.0, 1e-3)
    traj = lindblad_evolve(damping_model(0.5, drive=1.0), RHO_EXCITED, times)
    traces = np.einsum("tii->t", traj.states).real
    assert np.max(np.abs(traces - 1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), n_ops=st.integers(0, 2),
       reach=st.floats(0.0, 2.7), dt=st.floats(1e-4, 1.0))
def test_step_preserves_trace(d, seed, n_ops, reach, dt):
    # vec(I)ᵀS = 0 for every generator, so the step series R = e^{S·dt}
    # keeps the trace row: vec(I)ᵀR = vec(I)ᵀ, which lindblad_evolve relies
    # on to skip renormalization.  ``reach`` bounds the step's |λ|·dt through
    # |S| ≤ 2|H| + 2 sum_k |L_k|²
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1 + n_ops, d, d)) + 1j * rng.normal(size=(1 + n_ops, d, d))
    h = x[0] + x[0].conj().T
    bound = 2 * np.linalg.norm(h, 2) + 2 * sum(np.linalg.norm(l, 2) ** 2 for l in x[1:])
    c = reach / (dt * bound)
    s = liouvillian(LindbladModel(c * h, tuple(np.sqrt(c) * x[1:])))
    r = _step(s, dt)
    trace_row = r[:: d + 1].sum(axis=0)
    assert np.max(np.abs(trace_row - np.eye(d).reshape(-1))) <= 1e-14


def _diagonalizable_generator(rng, n, reach):
    # S = V·Λ·V⁻¹ with a well-conditioned V and eigenvalues of |λ| ≤ reach
    # in the closed left half-plane, as a Lindblad generator's are
    v = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    lam = -np.abs(rng.normal(size=n)) + 1j * rng.normal(size=n)
    lam *= reach / np.abs(lam).max()
    return v, lam, (v * lam) @ np.linalg.inv(v)


@pytest.mark.parametrize("reach", [1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3])
@pytest.mark.parametrize("n", [4, 9])
def test_step_is_the_exponential(rng, n, reach):
    # against V·e^{Λ·dt}·V⁻¹, and the semigroup law R(dt)² = R(2·dt)
    v, lam, s = _diagonalizable_generator(rng, n, reach)
    exact = (v * np.exp(lam)) @ np.linalg.inv(v)
    r = _step(s, 1.0)
    r2 = r @ r
    assert np.max(np.abs(r - exact)) <= 1e-14 * max(1.0, reach)
    assert np.max(np.abs(r2 - _step(s, 2.0))) <= 1e-14 * max(1.0, reach)


@pytest.mark.parametrize("given", [0, "half"])
@pytest.mark.parametrize("n, cap", [(4, 16384), (256, 4)])
def test_propagate_matches_the_stepwise_loop(rng, n, cap, given):
    # a block-triangular step [[A, 0], [B, A]], as the tangents take, at
    # lengths around the largest power: the squared powers give the states
    # of the stepwise loop, and the first `given` columns are only read
    assert _block_len(n) == cap
    given = n // 2 if given == "half" else 0
    h = n // 2
    r = np.zeros((n, n), dtype=complex)
    r[:h, :h] = r[h:, h:] = 0.99 * random_unitary(rng, h)
    r[h:, :h] = 0.1 * random_unitary(rng, h)
    for length in (1, 2, cap, cap + 1, 2 * cap + 1):
        ref = np.empty((length, n), dtype=complex)
        ref[0] = rng.normal(size=n) + 1j * rng.normal(size=n)
        for k in range(1, length):
            ref[k] = r @ ref[k - 1]
        ys = np.full((length, n), np.nan, dtype=complex)
        ys[0] = ref[0]
        ys[:, :given] = ref[:, :given]
        _propagate(r, ys, given)
        assert np.array_equal(ys[:, :given], ref[:, :given]), length
        assert np.max(np.abs(ys - ref)) <= 1e-14 * np.max(np.abs(ref)), length


LOWER8 = np.diag(np.sqrt(np.arange(1.0, 8.0)), k=1).astype(complex)


@pytest.mark.parametrize(
    "model, rho0, n_steps",
    [(damping_model(0.7, drive=1.0), RHO_EXCITED, 10**6),
     (LindbladModel(0.5 * (LOWER8 + LOWER8.conj().T) + np.diag(0.05 * np.arange(8.0) ** 2),
                    (np.sqrt(0.02) * LOWER8,)), np.eye(8, dtype=complex) / 8, 10**5)],
    ids=["qubit-1e6", "d8-1e5"],
)
def test_trace_stays_one_over_long_runs(model, rho0, n_steps):
    # no state is renormalized, so rounding is all that moves the trace
    traj = lindblad_evolve(model, rho0, np.arange(n_steps + 1) * 1e-3)
    assert np.max(np.abs(np.einsum("tii->t", traj.states).real - 1.0)) <= 1e-10


def stepwise_evolve(model, rho0, times):
    """Reference integrator: one step and one trace renormalization at a time."""
    r = _step(liouvillian(model), times[1] - times[0])
    d = model.dim
    y = np.asarray(rho0, dtype=complex).reshape(-1)
    states = [y.reshape(d, d)]
    for _ in times[1:]:
        y = r @ y
        y = y / y[:: d + 1].sum().real
        states.append(y.reshape(d, d))
    return np.stack(states)


# (multiple of the block length, extra points): 1 step, a block less one
# step, one full block, a block and one step, and 2000 steps (partial tail)
_GRID_POINTS = [(0, 2), (1, 0), (1, 1), (1, 2), (0, 2001)]


@pytest.mark.parametrize("blocks, extra", _GRID_POINTS, ids=["2", "B", "B+1", "B+2", "2001"])
@pytest.mark.parametrize(
    "model, rho0",
    [(damping_model(0.7, drive=1.0), RHO_EXCITED), (qutrit_model(), RHO_TOP3),
     (five_level_model(), RHO_TOP5)],
    ids=["qubit", "qutrit", "d5"],
)
def test_blocked_matches_stepwise_reference(model, rho0, blocks, extra):
    n_points = blocks * _block_len(model.dim ** 2) + extra
    times = np.arange(n_points) * 1e-3
    ref = stepwise_evolve(model, rho0, times)
    traj = lindblad_evolve(model, rho0, times)
    assert traj.states.shape == ref.shape
    assert np.max(np.abs(traj.states - ref)) <= 1e-12
    diag = traj.diagnostics
    assert diag["min_eigenvalue"] == pytest.approx(
        np.linalg.eigvalsh(ref[1:]).min(), abs=1e-12
    )
    assert 0.0 <= diag["max_trace_drift"] <= 1e-10 * 1e-3


SZ = np.diag([1.0, -1.0]).astype(complex)
RHO_PLUS = np.full((2, 2), 0.5, dtype=complex)


@pytest.mark.parametrize(
    "model, rho0, times",
    [(damping_model(8.0), RHO_EXCITED, grid(2.0, 0.5)),
     (damping_model(2000.0), RHO_EXCITED, grid(1.0, 1e-2)),
     (LindbladModel(0.5 * (2.8284271335 / 1e-2) * SZ, ()), RHO_PLUS, grid(2.0, 1e-2)),
     (LindbladModel(141.4214 * SZ, ()), RHO_PLUS, grid(0.4, 1e-2))],
    ids=["gamma8-dt0.5", "gamma2000-dt0.01", "rotation-200-steps", "rotation-40-steps"],
)
def test_coarse_steps_are_exact(model, rho0, times):
    # steps far past the stability edge of any explicit scheme (γ·dt up to
    # 20, ω·dt = 2√2 at rotation frequency ω = 2·h0[0, 0]) give the exact
    # solution: ρ₁₁ = e^{−γt} under damping, ρ₀₁ = e^{−iωt}/2 under rotation
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = lindblad_evolve(model, rho0, times)
    traj.validate()
    assert traj.diagnostics["min_eigenvalue"] >= -1e-12
    if model.lindblads:
        gamma = np.abs(model.lindblads[0][0, 1]) ** 2
        assert np.max(np.abs(traj.states[:, 1, 1].real - np.exp(-gamma * times))) <= 1e-15
    else:
        omega = 2 * model.hamiltonian[0, 0].real
        assert np.max(np.abs(traj.states[:, 0, 1] - 0.5 * np.exp(-1j * omega * times))) <= 1e-12


def test_abort_names_first_offending_step():
    # at ω·dt = 1e6 and 3e9 the computed step's trace rows miss vec(I)ᵀ by
    # about eps·‖S·dt‖ per step; restored once, the trace stays at 1 over
    # 2000 steps.  At 1e10 the first state's rounding already breaks
    # Hermiticity beyond HERMITIAN_TOL, and the abort names that step
    times = np.arange(2001) * 1.0

    def model(scale):
        return LindbladModel(scale * (0.5 * SZ + 0.3 * SX), (np.sqrt(0.1 * scale) * LOWER,))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1e6, 3e9):
            traj = lindblad_evolve(model(scale), RHO_EXCITED, times)
            traj.validate()
            assert traj.diagnostics["max_trace_drift"] <= 1e-15
        with pytest.raises(IntegrationError,
                           match=r"^state not Hermitian \(smallest eigenvalue \S+\) at t=1$"):
            lindblad_evolve(model(1e10), RHO_EXCITED, times)


def test_positivity_abort_names_first_negative_state(monkeypatch):
    # a bit flip at negative rate −γ keeps trace and Hermiticity but not
    # positivity: from |1⟩, ρ₀₀(t) = (1 − e^{2γt})/2 ≈ −γt first passes the
    # eigenvalue floor −1e-6 at t = 334 for γ = 3e-9
    model = LindbladModel(np.zeros((2, 2)), (np.sqrt(3e-9) * SX,))
    monkeypatch.setattr(filter_fit, "liouvillian", lambda m: -liouvillian(m))
    with pytest.raises(IntegrationError) as got:
        lindblad_evolve(model, RHO_EXCITED, np.arange(401) * 1.0)
    assert str(got.value) == ("state has a negative eigenvalue "
                              "(smallest eigenvalue -1.002e-06) at t=334")
    lindblad_evolve(model, RHO_EXCITED, np.arange(334) * 1.0).validate()


def count_eigvalsh(monkeypatch) -> list:
    """Shapes of the stacks handed to np.linalg.eigvalsh from now on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(np.shape(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_one_eigenvalue_call_per_trajectory(monkeypatch):
    # a qubit's smallest eigenvalue is a closed form; at d = 3 there is one
    # call for the initial state's check and one for all 2000 integrated states
    calls = count_eigvalsh(monkeypatch)
    lindblad_evolve(damping_model(0.7, drive=1.0), RHO_EXCITED, grid(2.0, 1e-3))
    assert calls == []
    lindblad_evolve(qutrit_model(), RHO_TOP3, grid(2.0, 1e-3))
    assert calls == [(3, 3), (2000, 3, 3)]


def test_non_finite_step_aborts():
    # no double resolves a step of norm 2⁵³ or more, and 2e308 overflows
    # to inf; either is refused before any step, not by an OverflowError
    for scale in (1e100, 1e308):
        model = LindbladModel(scale * SX, ())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError, match=r"‖S·dt‖₁ = (2e\+100|inf) is not"):
                lindblad_evolve(model, RHO_EXCITED, grid(2.0, 1.0))


# ω·dt of the fastest coherence: slow, within 1e-5 of √8 (an explicit
# Runge–Kutta step's stability edge), and fast
_REACH = st.one_of(st.floats(0.0, 4.0), st.floats(-9.0, -5.0).map(lambda e: np.sqrt(8.0) + 10**e),
                   st.floats(4.0, 1e3))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 3), seed=st.integers(0, 2**32 - 1), n_ops=st.integers(0, 2),
       reach=_REACH, rate=st.floats(0.0, 1e3), dt=st.floats(1e-4, 1.0),
       n_points=st.integers(2, 200), pure=st.booleans())
def test_evolve_aborts_or_returns_valid_states(d, seed, n_ops, reach, rate, dt, n_points, pure):
    # the exact step integrates every example, and every state it returns
    # is one that Trajectory.validate accepts, even from a pure start with
    # no eigenvalue margin
    rng = np.random.default_rng(seed)

    def unit():
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return x / np.linalg.norm(x)

    h = unit()
    h = h + h.conj().T
    w = np.linalg.eigvalsh(h)
    model = LindbladModel(reach / (dt * (w[-1] - w[0])) * h,
                          tuple(np.sqrt(rate) * unit() for _ in range(n_ops)))
    psi = unit()[0]
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real if pure else random_density(rng, d)
    lindblad_evolve(model, rho0, np.arange(n_points) * dt).validate()


def test_diagnostics_stay_out_of_json():
    traj = lindblad_evolve(damping_model(1.0), RHO_EXCITED, grid(0.5, 1e-2))
    sim = sme_simulate(damping_model(0.7), 0, 0.4, RHO_EXCITED, grid(0.1, 1e-2), 3)
    est = filter_estimate(damping_model(0.7), sim.record, 0, 0.4, RHO_EXCITED, sim.times)
    step_traces = {"min_step_trace", "max_step_trace"}
    for t, keys in [(traj, {"max_trace_drift", "min_eigenvalue"}), (sim, step_traces),
                    (est, step_traces)]:
        assert set(t.diagnostics) == keys
        assert set(t.to_json()) == {"dim", "times", "states", "record", "seed"}
        assert Trajectory.from_json(t.to_json()).diagnostics == {}


def test_nonuniform_grid_rejected():
    with pytest.raises(ValueError, match="uniform"):
        lindblad_evolve(damping_model(1.0), RHO_EXCITED, np.array([0, 0.1, 0.3]))


_GRID_USERS = {
    "lindblad_evolve": lambda times: lindblad_evolve(damping_model(1.0), RHO_EXCITED, times),
    "sme_simulate": lambda times: sme_simulate(damping_model(1.0), 0, 1.0, RHO_EXCITED, times, 1),
    "filter_estimate": lambda times: filter_estimate(damping_model(1.0), np.zeros(times.size - 1),
                                                     0, 1.0, RHO_EXCITED, times),
    "fit_parameters": lambda times: fit_parameters(
        Trajectory(times=times, states=np.stack([RHO_EXCITED] * times.size)),
        damping_family(), [np.array([0.5, 1.0])]),
}


@pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [0.0, 1.0, np.nan], [0.0, 1.0, np.inf]],
                         ids=["nan-inside", "nan-last", "inf-last"])
@pytest.mark.parametrize("use", list(_GRID_USERS))
def test_non_finite_time_grid_rejected(use, times):
    # every grid test compares a difference of times, which NaN passes: the
    # grid gave dt = nan, and the integrators NaN states
    with pytest.raises(ValueError, match="^times must be finite$"):
        _GRID_USERS[use](np.array(times))


@pytest.mark.parametrize("use", list(_GRID_USERS))
def test_overflowing_time_step_rejected(use):
    # finite times whose difference overflows: np.diff warned, and the grid
    # was refused as not uniform
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^time steps must be finite"):
            _GRID_USERS[use](np.array([-1e308, 1e308]))


@pytest.mark.parametrize("use", list(_GRID_USERS))
def test_decreasing_time_grid_rejected(use):
    with pytest.raises(ValueError, match="^times must be strictly increasing$"):
        _GRID_USERS[use](np.array([0.0, -0.1, -0.2]))


@pytest.mark.parametrize("call, message", [
    (lambda: LindbladModel(np.eye(2), (LOWER3,)), "^Lindblad operator shape mismatch$"),
    (lambda: lindblad_evolve(damping_model(1.0), RHO_TOP3, grid(0.1, 1e-2)),
     r"^state shape \(3, 3\) != \(2, 2\)$"),
], ids=["lindblad-3x3", "state-3x3"])
def test_model_and_initial_state_shapes_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_trajectory_json_roundtrip():
    times = grid(0.5, 1e-2)
    traj = lindblad_evolve(damping_model(1.0), RHO_EXCITED, times)
    back = Trajectory.from_json(traj.to_json())
    back.validate()
    assert np.allclose(back.states, traj.states)
    assert back.record is None


@pytest.mark.parametrize(
    "state, message",
    [([[0.5, 1e-6], [0.0, 0.5]], "not Hermitian"),
     ([[0.5, 0.0], [0.0, 0.5 + 1e-6]], "trace differs"),
     ([[1.0 + 2e-6, 0.0], [0.0, -2e-6]], "negative eigenvalue"),
     ([[np.nan, 0.0], [0.0, 1.0]], "not Hermitian"),
     ([[0.5, 5e-9], [0.0, 0.5 + 5e-9]], None),
     ([[1.0 + 5e-7, 0.0], [0.0, -5e-7]], None)],
    ids=["hermitian", "trace", "negative", "nan", "within-1e-8", "within-1e-6"],
)
def test_validate_checks_every_state(state, message):
    traj = lindblad_evolve(damping_model(0.7, drive=1.0), RHO_EXCITED, grid(0.5, 1e-2))
    traj.states[17] = state
    if message is None:
        traj.validate()
    else:
        with pytest.raises(ValueError, match=message):
            traj.validate()


def test_validate_checks_lengths():
    traj = sme_simulate(damping_model(0.7), 0, 0.4, RHO_EXCITED, grid(0.1, 1e-2), 3)
    with pytest.raises(ValueError, match="^states/times length mismatch$"):
        replace(traj, states=traj.states[1:]).validate()
    with pytest.raises(ValueError, match="^record length must be n_times - 1$"):
        replace(traj, record=traj.record[1:]).validate()


def test_validate_makes_one_eigenvalue_call(monkeypatch):
    qubit = lindblad_evolve(damping_model(0.7, drive=1.0), RHO_EXCITED, grid(0.5, 1e-2))
    qutrit = lindblad_evolve(qutrit_model(), RHO_TOP3, grid(0.5, 1e-2))
    calls = count_eigvalsh(monkeypatch)
    qubit.validate()
    assert calls == []
    qutrit.validate()
    assert calls == [(51, 3, 3)]


def qubit_state(kind: str, seed: int) -> np.ndarray:
    """One 2×2 test matrix of the given kind, valid or not."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2)
    if kind == "mixed":
        return random_density(rng, 2)
    if kind in ("pure", "near-pure"):
        eps = 0.0 if kind == "pure" else 10.0 ** rng.uniform(-16, -9)
        return (u * [1.0 - eps, eps]) @ u.conj().T
    if kind == "diagonal-pure":
        return np.diag([1.0, 0.0][:: rng.choice([1, -1])]).astype(complex)
    if kind == "negative":
        # either side of both floors: EIGENVALUE_FLOOR and _check_state's -1e-8
        low = rng.choice([-2e-6, -1e-6, -5e-7, -2e-8, -1e-8, -5e-9])
        return (u * [1.0 - low, low]) @ u.conj().T
    rho = random_density(rng, 2)
    if kind == "trace":
        return rho * (1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(np.log10(2e-8), -0.3))
    if kind == "non-hermitian":
        e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return rho + 10.0 ** rng.uniform(np.log10(2e-8), -2) * e / np.abs(e).max()
    # non-finite: one real or imaginary part of one entry
    i, j = rng.integers(2, size=2)
    part = rho.real if rng.integers(2) else rho.imag
    part[i, j] = rng.choice([np.nan, np.inf, -np.inf])
    return rho


_QUBIT_KINDS = ["mixed", "pure", "near-pure", "diagonal-pure", "negative", "trace",
                "non-hermitian", "non-finite"]


@settings(max_examples=300, deadline=None)
@given(states=st.lists(st.tuples(st.sampled_from(_QUBIT_KINDS), st.integers(0, 2**32 - 1)),
                       min_size=1, max_size=12),
       floor=st.sampled_from([EIGENVALUE_FLOOR, -1e-8]))
def test_qubit_closed_form_matches_eigvalsh(states, floor):
    rho = np.stack([qubit_state(kind, seed) for kind, seed in states])
    fault, low = _state_faults(rho, floor)
    # reference: the three tests in order, on LAPACK's eigenvalue of the same stack
    with np.errstate(invalid="ignore"):  # inf − inf on an infinite diagonal entry
        herm = np.array([np.abs(r - r.conj().T).max() for r in rho])
    trace_gap = np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0)
    finite = np.isfinite(rho).all(axis=(1, 2))
    ref_low = np.linalg.eigvalsh(np.where(finite[:, None, None], rho, 0))[:, 0]
    ref = np.where(herm <= 1e-8, np.where(trace_gap <= 1e-8, np.where(ref_low >= floor, 3, 2), 1), 0)
    assert np.max(np.abs(low - ref_low)) <= 1e-15
    # a state whose eigenvalue lies within rounding of the floor may fall either side
    at_floor = (ref >= 2) & (np.abs(ref_low - floor) <= 1e-15)
    assert np.array_equal(fault[~at_floor], ref[~at_floor])
    assert np.all((fault[at_floor] == 2) | (fault[at_floor] == 3))


def _faulty_stack(rng, d, n):
    # valid states, with every fault planted at random positions
    stack = np.stack([random_density(rng, d) for _ in range(n)])
    k = rng.permutation(n)
    stack[k[0], 0, 1] += 1e-3  # not Hermitian
    stack[k[1]] *= 1.01  # trace
    stack[k[2]] = np.diag(np.r_[1.1, -0.1, np.zeros(d - 2)])  # negative eigenvalue
    stack[k[3], 1, 1] = np.nan
    stack[k[4], 0, 0] = np.inf
    return stack


@pytest.mark.parametrize("d", [2, 3])
def test_state_checks_in_slices_change_no_bit(monkeypatch, rng, d):
    stack = _faulty_stack(rng, d, 50)
    monkeypatch.setattr(filter_fit, "STACK_BYTES", 1 << 40)
    whole = (*_state_faults(stack), filter_fit._hermitian_defect(stack))
    # three states per slice: 17 slices, the last one short
    monkeypatch.setattr(filter_fit, "STACK_BYTES", 3 * 16 * d * d)
    assert len(filter_fit._slices(stack)) == 17
    sliced = (*_state_faults(stack), filter_fit._hermitian_defect(stack))
    for a, b in zip(whole, sliced):
        assert a.shape == (50,) and np.array_equal(a, b, equal_nan=True)
    # other stack shapes keep theirs: a grid of stacks, one state, no state
    grid_faults, grid_low = _state_faults(stack.reshape(5, 10, d, d))
    assert np.array_equal(grid_faults, whole[0].reshape(5, 10))
    assert np.array_equal(grid_low, whole[1].reshape(5, 10), equal_nan=True)
    assert [x.shape for x in _state_faults(stack[0])] == [(), ()]
    assert [x.shape for x in _state_faults(stack[:0])] == [(0,), (0,)]


def test_state_checks_peak_memory_is_per_slice():
    # six STACK_BYTES of d = 8 states; the whole-stack check peaked at 1.7x the stack
    family, theta, rho0 = _random_family(8, 1)
    budget = filter_fit.STACK_BYTES
    n = 6 * budget // (16 * 64)
    tracemalloc.start()
    try:
        traj = lindblad_evolve(family.at(theta), rho0, np.arange(n) * 1e-2)
        _, evolve_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        traj.validate()
        assert np.max(filter_fit._hermitian_defect(traj.states)) <= filter_fit.HERMITIAN_TOL
        _, check_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    states = traj.states.nbytes
    assert states == 6 * budget
    # the step-matrix powers take one budget; the check, states and per-state results aside, two
    assert evolve_peak - states < 4 * budget
    assert check_peak - states < 3 * budget


# --- stochastic unraveling ----------------------------------------------------

@pytest.mark.parametrize(
    "model, meas, rho0",
    [(damping_model(0.7, drive=1.0), 0, RHO_EXCITED), (qutrit_model(), 1, RHO_TOP3)],
    ids=["qubit", "qutrit"],
)
def test_small_eta_limit_matches_deterministic(model, meas, rho0):
    times = grid(2.0, 1e-3)
    det = lindblad_evolve(model, rho0, times)
    sme = sme_simulate(model, meas, 1e-8, rho0, times, seed=7)
    gap = np.max(np.linalg.norm(det.states - sme.states, axis=(1, 2)))
    assert gap < 5e-3  # first-order drift bias of the stochastic step at this step size


@pytest.mark.parametrize(
    "model, meas, rho0",
    [(damping_model(0.7, drive=1.0), 0, RHO_EXCITED), (qutrit_model(), 1, RHO_TOP3)],
    ids=["qubit", "qutrit"],
)
def test_coarse_step_stays_positive(model, meas, rho0):
    sim = sme_simulate(model, meas, 1.0, rho0, grid(4.0, 0.05), seed=17)
    est = filter_estimate(model, sim.record, meas, 1.0, rho0, sim.times)
    for traj in (sim, est):
        assert np.linalg.eigvalsh(traj.states).min() >= -1e-12
        traj.validate()
    assert np.array_equal(sim.states, est.states)  # one step, fed the same dY


@pytest.mark.parametrize("eta", [0.3, 1.0])
def test_sme_step_matches_kraus_formula(rng, eta):
    # one step of each of simulator and filter against the written formula
    model, meas, dt, seed = qutrit_model(), 1, 0.01, 5
    h, ops = model.hamiltonian, model.lindblads
    rho = random_density(rng, 3)
    times = np.array([0.0, dt])

    def kraus_step(dy):
        g = 1j * h + 0.5 * sum(l.conj().T @ l for l in ops)
        m = np.eye(3) - dt * g + dy * np.sqrt(eta) * ops[meas]
        new = m @ rho @ m.conj().T
        for k, l in enumerate(ops):
            new += ((1.0 - eta) if k == meas else 1.0) * dt * l @ rho @ l.conj().T
        return new / np.trace(new).real

    sim = sme_simulate(model, meas, eta, rho, times, seed=seed)
    assert np.max(np.abs(sim.states[1] - kraus_step(sim.record[0]))) <= 1e-13
    l = ops[meas]
    dw = np.random.default_rng(seed).normal(0.0, np.sqrt(dt))
    drift = np.sqrt(eta) * np.trace((l + l.conj().T) @ rho).real * dt
    assert abs(sim.record[0] - (drift + dw)) <= 1e-13
    est = filter_estimate(model, [0.37], meas, eta, rho, times)
    assert np.max(np.abs(est.states[1] - kraus_step(0.37))) <= 1e-13


def _random_sme_model(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ops = [0.5 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(2)]
    return LindbladModel(0.5 * (a + a.conj().T), tuple(ops))


def _reference_sme(model, meas, eta, rho0, dt, record):
    # the unfolded step: K0 + dY·K1 + dY²·K2 on vec(ρ), normalized by the
    # diagonal sum, with each step's trace before normalization
    d = model.dim
    ops = model.lindblads
    m0 = np.eye(d) - dt * (1j * model.hamiltonian + 0.5 * sum(l.conj().T @ l for l in ops))
    s = np.sqrt(eta) * ops[meas]
    jumps = sum((1.0 - eta if k == meas else 1.0) * np.kron(l, l.conj()) for k, l in enumerate(ops))
    k0 = np.kron(m0, m0.conj()) + dt * jumps
    k1, k2 = np.kron(s, m0.conj()) + np.kron(m0, s.conj()), np.kron(s, s.conj())
    v, states, traces = rho0.reshape(-1), [rho0], []
    for dy in record:
        v = (k0 + dy * k1 + dy * dy * k2) @ v
        traces.append(v[:: d + 1].sum().real)
        v = v / traces[-1]
        states.append(v.reshape(d, d))
    return np.array(states), np.array(traces)


@pytest.mark.parametrize("eta", [0.05, 0.4, 1.0])
@pytest.mark.parametrize("d", [2, 3])
def test_folded_step_matches_the_unfolded_loop(rng, d, eta):
    # the trace and ℓ rows ride in the step's one product; the states, the
    # simulator's dY feedback and the trace diagnostics match the loop that
    # applies the three d²×d² blocks and sums the diagonal
    model, meas, rho0 = _random_sme_model(rng, d), 0, random_density(rng, d)
    dt, n_steps = 0.01, 500
    times = np.arange(n_steps + 1) * dt
    est = filter_estimate(model, rng.normal(0.0, 1.0, n_steps), meas, eta, rho0, times)
    sim = sme_simulate(model, meas, eta, rho0, times, seed=d)
    l = model.lindblads[meas]
    dw = np.random.default_rng(d).normal(0.0, np.sqrt(dt), n_steps)
    mean = np.sqrt(eta) * np.einsum("ij,kji->k", l + l.conj().T, sim.states[:-1]).real * dt
    assert np.max(np.abs(sim.record - (mean + dw))) <= 1e-13
    for traj in (est, sim):
        states, traces = _reference_sme(model, meas, eta, rho0, dt, traj.record)
        assert np.max(np.abs(traj.states - states)) <= 1e-13
        assert np.max(np.abs(np.einsum("kii->k", traj.states).real - 1.0)) <= 1e-14
        lo, hi = traj.diagnostics["min_step_trace"], traj.diagnostics["max_step_trace"]
        assert lo == pytest.approx(traces.min(), rel=1e-13)
        assert hi == pytest.approx(traces.max(), rel=1e-13)


def test_fixed_seed_reproduces_bitwise():
    times = grid(1.0, 1e-3)
    model = damping_model(0.7, drive=1.0)
    a = sme_simulate(model, 0, 0.4, RHO_EXCITED, times, seed=99)
    b = sme_simulate(model, 0, 0.4, RHO_EXCITED, times, seed=99)
    assert np.array_equal(a.record, b.record)
    assert np.array_equal(a.states, b.states)
    c = sme_simulate(model, 0, 0.4, RHO_EXCITED, times, seed=100)
    assert not np.array_equal(a.record, c.record)


def test_record_length_and_validity():
    times = grid(0.5, 1e-3)
    traj = sme_simulate(damping_model(0.5), 0, 0.8, RHO_EXCITED, times, seed=3)
    assert traj.record.shape == (times.size - 1,)
    traj.validate()


def test_invalid_efficiency_and_measurement():
    times = grid(0.5, 1e-3)
    with pytest.raises(ValueError, match="eta"):
        sme_simulate(damping_model(0.5), 0, 0.0, RHO_EXCITED, times, seed=1)
    with pytest.raises(ValueError, match="measurement"):
        sme_simulate(damping_model(0.5), 3, 0.5, RHO_EXCITED, times, seed=1)


def test_ensemble_mean_consistent_with_lindblad():
    # statistical oracle: law of total expectation for the unraveling
    model = damping_model(0.7, drive=1.0)
    times = grid(1.0, 2e-3)
    det = lindblad_evolve(model, RHO_EXCITED, times)
    mean, sem = ensemble_stats(model, 0, 0.4, RHO_EXCITED, times, 120, master_seed=314)
    for frac in (0.25, 0.5, 0.75, 1.0):
        i = int(frac * (times.size - 1))
        gap = np.linalg.norm(mean[i] - det.states[i])
        assert gap <= 3.0 * np.sqrt(np.sum(sem[i] ** 2))


@pytest.mark.parametrize("n_traj", [1, 0, -3])
def test_ensemble_too_small_rejected(n_traj):
    with pytest.raises(ValueError, match="at least 2"):
        ensemble_stats(damping_model(0.5), 0, 0.5, RHO_EXCITED, grid(0.1, 1e-2),
                       n_traj, master_seed=1)


# --- filtering -----------------------------------------------------------------

@pytest.mark.parametrize("eta", [0.1, 0.4, 1.0])
@pytest.mark.parametrize(
    "model, meas, rho0",
    [(damping_model(0.7, drive=1.0), 0, RHO_EXCITED), (qutrit_model(), 1, RHO_TOP3)],
    ids=["qubit", "qutrit"],
)
def test_filter_self_consistency(model, meas, rho0, eta):
    # truth model + own record: the filter repeats the simulator's steps bit
    # for bit, which is why the CLI uses a simulation as its own estimate
    times = grid(2.0, 1e-3)
    sim = sme_simulate(model, meas, eta, rho0, times, seed=42)
    est = filter_estimate(model, sim.record, meas, eta, rho0, times)
    assert np.array_equal(sim.states, est.states)


def test_filter_contracts_wrong_initial_state():
    model = damping_model(0.9, drive=0.5)
    times = grid(4.0, 1e-3)
    sim = sme_simulate(model, 0, 0.6, RHO_EXCITED, times, seed=5)
    wrong = np.array([[0.9, 0], [0, 0.1]], dtype=complex)
    est = filter_estimate(model, sim.record, 0, 0.6, wrong, times)
    gaps = np.linalg.norm(sim.states - est.states, axis=(1, 2))
    assert gaps[-1] < gaps[0]


def test_filter_purity_bounds_at_full_efficiency():
    model = damping_model(0.7, drive=1.0)
    times = grid(2.0, 1e-3)
    sim = sme_simulate(model, 0, 1.0, RHO_EXCITED, times, seed=11)
    est = filter_estimate(model, sim.record, 0, 1.0, RHO_EXCITED, times)
    purity = np.einsum("tij,tji->t", est.states, est.states).real
    assert np.all(purity >= 0.5 - 1e-9)
    assert np.all(purity <= 1.0 + 1e-6)


def test_filter_grid_mismatch():
    model = damping_model(0.5)
    times = grid(1.0, 1e-3)
    with pytest.raises(ValueError, match="record"):
        filter_estimate(model, np.zeros(10), 0, 0.5, RHO_EXCITED, times)


# --- model family / fitting ------------------------------------------------------

def damping_family() -> ModelFamily:
    return ModelFamily(h0=0.5 * SX, rate_bases=(LOWER,), param_names=("gamma",))


def test_family_builds_models():
    family = damping_family()
    model = family.at([0.49])
    assert np.allclose(model.lindblads[0], 0.7 * LOWER)
    with pytest.raises(ValueError, match=">= 0"):
        family.at([-0.1])
    with pytest.raises(ValueError, match="^expected 1 parameters, got 2$"):
        family.at([0.49, 0.1])


def test_family_rejects_non_hermitian_terms():
    # and every operator of another shape than a square Hermitian h0
    for kwargs, message in [
        ({"h_terms": (LOWER,)}, "basis terms must be Hermitian"),
        ({"h0": LOWER}, "h0 must be Hermitian"),
        ({"h0": np.ones((2, 3))}, "h0 must be square"),
        ({"h_terms": (np.eye(3),)}, r"h0's shape \(2, 2\)"),
        ({"rate_bases": (LOWER3,)}, r"h0's shape \(2, 2\)"),
        ({"lindblads": (LOWER3,)}, r"h0's shape \(2, 2\)"),
        ({"param_names": ("a", "b")}, "^param_names length != number of free parameters$"),
    ]:
        with pytest.raises(ValueError, match=message):
            ModelFamily(**{"h0": np.eye(2), **kwargs})


def test_self_fit_recovers_grid_point_exactly():
    family = damping_family()
    times = grid(2.0, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    g = [np.linspace(0.1, 1.5, 8)]  # 0.7 is the 4th grid point? ensure inclusion
    g = [np.array([0.1, 0.3, 0.5, 0.7, 0.9, 1.1])]
    fit = fit_parameters(est, family, g)
    assert fit.theta[0] == 0.7
    assert fit.cost <= 1e-12


def test_off_grid_fit_refines_to_truth():
    family = damping_family()
    times = grid(2.0, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    g = [np.linspace(0.2, 1.4, 7)]  # spacing 0.2, truth off-grid midpoint
    fit = fit_parameters(est, family, g, xtol=1e-4)
    assert abs(fit.theta[0] - 0.7) <= 1e-3
    assert fit.cost < 1e-6


def test_fit_skips_non_integrable_points():
    family = damping_family()
    times = grid(2.0, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    # a rate of 2000 integrates; at 1e18, ‖S·dt‖₁ exceeds 2⁵³
    g = [np.array([0.7, 2000.0, 1e18])]
    fit = fit_parameters(est, family, g)
    assert fit.theta[0] == 0.7  # cost 0 there; the refinement cannot beat it
    assert [t for t, _ in fit.curve] == [(0.7,), (2000.0,)]
    assert fit.skipped == [(1e18,)]


def test_fit_skips_a_point_whose_model_overflows():
    # 1e308·2σx overflows to inf in H(θ), which the model refuses; the scan
    # skips that point as it skips a generator too large to step.  The CLI
    # runs with NumPy's overflow warning off, and so does this test
    family = ModelFamily(h0=np.zeros((2, 2)), h_terms=(2 * SX,), rate_bases=(LOWER,))
    times = grid(2.0, 1e-2)
    est = lindblad_evolve(family.at([0.0, 0.7]), RHO_EXCITED, times)
    with np.errstate(over="ignore"):
        fit = fit_parameters(est, family, [np.array([0.0, 1e308]), np.array([0.7])])
    assert fit.skipped == [(1e308, 0.7)]
    assert fit.theta.tolist() == [0.0, 0.7]


def test_fit_rejects_invalid_initial_state_up_front():
    # the fault is named once, not recorded as a skipped point at every θ
    family = damping_family()
    times = grid(2.0, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    est.states[0] = np.diag([1.1, -0.1])
    with pytest.raises(ValueError, match="initial state has a negative eigenvalue"):
        fit_parameters(est, family, [np.linspace(0.2, 1.4, 7)])


def test_fit_returns_lowest_cost_point():
    family = damping_family()
    times = grid(2.0, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    fit = fit_parameters(est, family, [np.linspace(0.2, 1.4, 7)], xtol=1e-4)
    theta_min, cost_min = min(fit.curve, key=lambda tc: tc[1])
    assert fit.cost == cost_min
    assert tuple(fit.theta) == theta_min
    assert np.array_equal(
        fit.trajectory.states, lindblad_evolve(family.at(fit.theta), RHO_EXCITED, times).states
    )


@pytest.mark.parametrize("points", [[0.1, 0.3, 0.5], [0.9, 1.1, 1.3]], ids=["below", "above"])
def test_fit_stays_inside_grid_hull(points):
    # truth 0.7 lies outside the hull; steps toward it leave the hull, fail
    # without being integrated, and halve down to the tolerance
    family = damping_family()
    times = grid(2.0, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    fit = fit_parameters(est, family, [np.array(points)], xtol=1e-4)
    near = points[-1] if points[-1] < 0.7 else points[0]
    assert fit.theta[0] == near
    evaluated = [t for t, _ in fit.curve] + fit.skipped
    assert all(points[0] <= t[0] <= points[-1] for t in evaluated)


def test_one_parameter_fit_integrates_each_point_once(monkeypatch):
    # every θ the fit evaluates, grid point or Gauss–Newton trial, is
    # integrated exactly once and listed once
    calls = []
    evolve = filter_fit.lindblad_evolve

    def counting(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(filter_fit, "lindblad_evolve", counting)
    family = damping_family()
    times = grid(2.0, 1e-2)
    est = evolve(family.at([0.75]), RHO_EXCITED, times)
    fit = fit_parameters(est, family, [np.linspace(0.1, 1.5, 8)], xtol=1e-4)
    assert abs(fit.theta[0] - 0.75) <= 1e-3
    thetas = [t for t, _ in fit.curve]
    assert len(set(thetas)) == len(thetas)
    assert len(calls) == len(fit.curve) + len(fit.skipped)


@pytest.mark.parametrize("xtol", [0.0, -1.0, np.nan, np.inf])
def test_fit_bad_xtol_rejected(xtol):
    family = damping_family()
    times = grid(0.5, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    with pytest.raises(ValueError, match="xtol"):
        fit_parameters(est, family, [np.linspace(0.2, 1.4, 7)], xtol=xtol)


def test_fit_tiny_xtol_terminates():
    # below float resolution a halved step no longer moves θ; the fit then
    # halves without integrating until the step falls under the tolerance
    family = damping_family()
    times = grid(0.5, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    fit = fit_parameters(est, family, [np.linspace(0.2, 1.4, 7)], xtol=1e-300)
    assert abs(fit.theta[0] - 0.7) <= 1e-6


def test_fit_empty_grid_rejected():
    family = damping_family()
    times = grid(0.5, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    with pytest.raises(ValueError, match="grid"):
        fit_parameters(est, family, [np.array([])])
    with pytest.raises(ValueError, match="^grid must supply 1 parameter ranges$"):
        fit_parameters(est, family, [np.array([0.5]), np.array([0.5])])


def test_two_parameter_fit():
    family = ModelFamily(
        h0=np.zeros((2, 2)), h_terms=(0.5 * SX,), rate_bases=(LOWER,),
        param_names=("omega", "gamma"),
    )
    times = grid(2.0, 1e-2)
    est = lindblad_evolve(family.at([1.0, 0.6]), RHO_EXCITED, times)
    fit = fit_parameters(
        est, family, [np.linspace(0.5, 1.5, 5), np.linspace(0.2, 1.0, 5)], xtol=1e-3
    )
    assert abs(fit.theta[0] - 1.0) < 5e-3
    assert abs(fit.theta[1] - 0.6) < 5e-3


PILOT = json.loads((Path(__file__).parent / "fixtures" / "filter_fit_pilot.json").read_text())


def test_noisy_fit_within_half_xtol_of_minimizer():
    # a fit stopped at the pilot's xtol lies within xtol/2 of the minimizer
    # of the discrete cost, approximated by the same fit at xtol = 1e-12
    design = PILOT["design"]
    family = damping_family()
    times = grid(design["horizon"], design["dt"])
    model = family.at([design["gamma_truth"]])
    record = sme_simulate(model, 0, design["eta"], RHO_EXCITED, times,
                          seed=PILOT["pinned"]["ci_seed"]).record
    est = filter_estimate(model, record, 0, design["eta"], RHO_EXCITED, times)
    g = [np.linspace(design["grid"]["lo"], design["grid"]["hi"], design["grid"]["points"])]
    fit = fit_parameters(est, family, g, xtol=design["xtol"])
    ref = fit_parameters(est, family, g, xtol=1e-12)
    assert fit.converged and ref.converged
    assert abs(fit.theta[0] - ref.theta[0]) <= design["xtol"] / 2
    assert ref.cost <= fit.cost


def _two_term_family(d):
    # one Hamiltonian term and one rate term on a driven ladder
    lower = np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)
    return ModelFamily(
        h0=np.diag(0.3 * np.arange(d) ** 2).astype(complex),
        h_terms=(0.5 * (lower + lower.conj().T),),
        rate_bases=(lower,),
        lindblads=(np.sqrt(0.2) * np.diag(np.arange(d)).astype(complex),),
    )


def test_tangents_match_central_differences_on_coarse_steps():
    # γ·dt = 4, far past where an explicit step would be stable
    family, theta, dt = damping_family(), np.array([8.0]), 0.5
    times = grid(2.0, dt)
    traj = lindblad_evolve(family.at(theta), RHO_EXCITED, times)
    (tangent,) = _tangents(family, theta, traj.states, dt)
    h = 1e-5
    up = lindblad_evolve(family.at(theta + h), RHO_EXCITED, times).states
    down = lindblad_evolve(family.at(theta - h), RHO_EXCITED, times).states
    fd = (up - down) / (2 * h)
    assert np.max(np.abs(fd)) > 0.01
    assert np.max(np.abs(tangent - fd)) <= 1e-9


@pytest.mark.parametrize("d", [2, 3], ids=["qubit", "qutrit"])
def test_tangents_match_central_differences(d):
    family = _two_term_family(d)
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[-1, -1] = 1.0
    times = grid(2.0, 1e-2)  # 200 steps: several blocks and a partial one
    theta = np.array([0.8, 0.6])
    traj = lindblad_evolve(family.at(theta), rho0, times)
    tangents = _tangents(family, theta, traj.states, 1e-2)
    assert tangents.shape == (2, times.size, d, d)
    h = 1e-5
    for j in range(2):
        e = np.eye(2)[j] * h
        up = lindblad_evolve(family.at(theta + e), rho0, times).states
        down = lindblad_evolve(family.at(theta - e), rho0, times).states
        fd = (up - down) / (2 * h)
        assert np.max(np.abs(tangents[j] - fd)) <= 1e-8
        assert np.max(np.abs(fd)) > 0.1  # the parameter moves the trajectory


def _dense_tangents(family, theta, states, dt):
    # reference: one block generator kron(I_{p+1}, S) with every S_j in its
    # first block column, of side (p + 1)·d², advancing all tangents at once
    d = states.shape[1]
    n, p = d * d, family.n_params
    terms = [LindbladModel(h, ()) for h in family.h_terms]
    terms += [LindbladModel(np.zeros((d, d)), (base,)) for base in family.rate_bases]
    size = (p + 1) * n
    gen = np.kron(np.eye(p + 1), liouvillian(family.at(theta)))
    gen[n:, :n] = np.concatenate([liouvillian(t) for t in terms])
    ys = np.zeros((states.shape[0], size), dtype=complex)
    ys[:, :n] = states.reshape(-1, n)
    _propagate(_step(gen, dt), ys, given=n)
    return ys[:, n:].reshape(-1, p, d, d).transpose(1, 0, 2, 3)


def _random_family(d, p, seed=0):
    # ceil(p/2) Hamiltonian terms X + X†, then floor(p/2) rate terms X, each X
    # a random matrix of norm 0.3, on a damped ladder; θ = 0.5 everywhere
    rng = np.random.default_rng(seed)

    def term():
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return 0.3 * x / np.linalg.norm(x)

    lower = np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)
    family = ModelFamily(
        h0=np.diag(0.3 * np.arange(d)).astype(complex),
        h_terms=tuple(t + t.conj().T for t in (term() for _ in range((p + 1) // 2))),
        rate_bases=tuple(term() for _ in range(p // 2)),
        lindblads=(np.sqrt(0.2) * lower,),
    )
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[-1, -1] = 1.0
    return family, np.full(p, 0.5), rho0


@pytest.mark.parametrize("d, p", [(2, 1), (2, 2), (3, 2), (3, 4), (4, 8)])
def test_tangents_match_dense_block_generator(d, p):
    family, theta, rho0 = _random_family(d, p)
    dt = 1e-2
    states = lindblad_evolve(family.at(theta), rho0, grid(2.0, dt)).states
    tangents = _tangents(family, theta, states, dt)
    reference = _dense_tangents(family, theta, states, dt)
    assert tangents.shape == reference.shape == (p, states.shape[0], d, d)
    assert np.max(np.abs(reference)) > 0.1
    if p == 1:  # the same matrices, so the same bits
        assert np.array_equal(tangents, reference)
    assert np.max(np.abs(tangents - reference)) <= 1e-13


def test_tangent_memory_is_per_parameter():
    # the dense generator at d = 16, p = 16 alone is 17²·256²·16 bytes = 303 MB
    family, theta, rho0 = _random_family(16, 16)
    dt = 1e-2
    states = lindblad_evolve(family.at(theta), rho0, grid(0.5, dt)).states
    assert states.shape[0] == 51
    tracemalloc.start()
    try:
        tangents = _tangents(family, theta, states, dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tangents.shape == (16, 51, 16, 16) and np.isfinite(tangents).all()
    assert peak < 64 << 20


def test_pilot_seeds_reproduce_fixture():
    # every pilot seed, not only ci_seed: the fixture's γ* and its tolerance
    design = PILOT["design"]
    family = damping_family()
    times = grid(design["horizon"], design["dt"])
    truth = design["gamma_truth"]
    model = family.at([truth])
    g = [np.linspace(design["grid"]["lo"], design["grid"]["hi"], design["grid"]["points"])]
    for seed, pinned in PILOT["pilot_results"].items():
        record = sme_simulate(model, 0, design["eta"], RHO_EXCITED, times, seed=int(seed)).record
        est = filter_estimate(model, record, 0, design["eta"], RHO_EXCITED, times)
        gamma = fit_parameters(est, family, g, xtol=design["xtol"]).theta[0]
        assert abs(gamma - pinned["gamma_star"]) <= 1e-9, seed
        assert abs(gamma - truth) / truth <= PILOT["pinned"]["relative_tolerance"], seed
