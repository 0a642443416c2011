import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_density

from susygate import filter_fit
from susygate.errors import StepSizeError
from susygate.filter_fit import (
    POSITIVITY_FLOOR,
    LindbladModel,
    ModelFamily,
    Trajectory,
    _block_len,
    _rk4_step,
    _stacked_powers,
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


def test_per_step_trace_drift_before_renormalization():
    model = damping_model(0.9, drive=0.7)
    s = liouvillian(model)
    dt = 1e-3
    rho = np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]], dtype=complex)
    y = _rk4_step(s, rho.reshape(-1), dt)
    drift = abs(y[::3].sum().real - 1.0)
    assert drift <= 1e-10 * dt


def test_positivity_abort_advises_refinement():
    times = grid(2.0, 0.5)  # absurdly coarse step destabilizes RK4
    with pytest.raises(StepSizeError, match="step size"):
        lindblad_evolve(damping_model(8.0), RHO_EXCITED, times)


def stepwise_evolve(model, rho0, times):
    """Reference integrator: one RK4 step and one trace renormalization at
    a time; stops with StepSizeError at the first state below the
    positivity floor."""
    s = liouvillian(model)
    d = model.dim
    dt = times[1] - times[0]
    y = np.asarray(rho0, dtype=complex).reshape(-1)
    states = [y.reshape(d, d)]
    for t in times[1:]:
        y = _rk4_step(s, y, dt)
        y = y / y[:: d + 1].sum().real
        low = np.linalg.eigvalsh(y.reshape(d, d)).min()
        if low < POSITIVITY_FLOOR:
            raise StepSizeError(
                f"eigenvalue {low:.3e} below {POSITIVITY_FLOOR} at t={t:.6g}; "
                "reduce the step size"
            )
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
    "model, rho0, times, t_abort",
    [(damping_model(8.0), RHO_EXCITED, grid(2.0, 0.5), "0.5"),
     (damping_model(2000.0), RHO_EXCITED, grid(1.0, 1e-2), "0.01"),
     (LindbladModel(0.5 * (2.828428 / 1e-2) * SZ, ()), RHO_PLUS, grid(2.0, 1e-2), "0.91")],
    ids=["gamma8-dt0.5", "gamma2000-dt0.01", "rk4-edge-step91"],
)
def test_abort_names_first_offending_step(model, rho0, times, t_abort):
    # gamma = 2000 at dt = 1e-2 grows about 5.5e3 per step, so the stacked
    # powers of the step matrix reach 1e239; no overflow warning may escape.
    # A rotation at y = ω·dt = 2.828428, just past the RK4 edge √8 on the
    # imaginary axis, grows so slowly that it first fails at step 91, in the
    # second block, and the blocks after it still run
    with pytest.raises(StepSizeError) as ref:
        stepwise_evolve(model, rho0, times)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StepSizeError) as got:
            lindblad_evolve(model, rho0, times)
    assert str(got.value) == str(ref.value)
    assert f"at t={t_abort};" in str(got.value)


def test_one_eigenvalue_call_per_trajectory(monkeypatch):
    # one for the initial state's check, one for all 2000 integrated states
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(np.shape(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    lindblad_evolve(damping_model(0.7, drive=1.0), RHO_EXCITED, grid(2.0, 1e-3))
    assert calls == [(2, 2), (2000, 2, 2)]


def test_non_finite_step_aborts():
    # the RK4 step matrix of a 1e100 Hamiltonian at dt = 1 overflows
    model = LindbladModel(1e100 * SX, ())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StepSizeError, match=r"non-finite state at t=1;.*step size"):
            lindblad_evolve(model, RHO_EXCITED, grid(2.0, 1.0))


def test_diagnostics_stay_out_of_json():
    traj = lindblad_evolve(damping_model(1.0), RHO_EXCITED, grid(0.5, 1e-2))
    assert set(traj.diagnostics) == {"max_trace_drift", "min_eigenvalue"}
    assert "diagnostics" not in traj.to_json()
    assert Trajectory.from_json(traj.to_json()).diagnostics == {}


def test_nonuniform_grid_rejected():
    with pytest.raises(ValueError, match="uniform"):
        lindblad_evolve(damping_model(1.0), RHO_EXCITED, np.array([0, 0.1, 0.3]))


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


def test_validate_makes_one_eigenvalue_call(monkeypatch):
    traj = lindblad_evolve(damping_model(0.7, drive=1.0), RHO_EXCITED, grid(0.5, 1e-2))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(np.shape(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    traj.validate()
    assert calls == [(51, 2, 2)]


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


def test_family_rejects_non_hermitian_terms():
    with pytest.raises(ValueError, match="Hermitian"):
        ModelFamily(h0=np.eye(2), h_terms=(LOWER,))


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
    g = [np.array([0.7, 2000.0])]  # second point destabilizes the integrator
    fit = fit_parameters(est, family, g)
    assert fit.theta[0] == 0.7  # cost 0 there; the refinement cannot beat it
    assert fit.skipped == [(2000.0,)]


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
    n_steps = states.shape[0] - 1
    b = min(_block_len(size), n_steps)
    stack = _stacked_powers(_rk4_step(gen, np.eye(size), dt), b).reshape(b, size, size)
    stack = stack[:, n:].reshape(b * p * n, size)
    flat = states.reshape(-1, n)
    tangents = np.zeros((states.shape[0], p * n), dtype=complex)
    for i in range(0, n_steps, b):
        k = min(b, n_steps - i)
        y = np.concatenate([flat[i], tangents[i]])
        tangents[i + 1 : i + 1 + k] = (stack[: k * p * n] @ y).reshape(k, p * n)
    return tangents.reshape(-1, p, d, d).transpose(1, 0, 2, 3)


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
