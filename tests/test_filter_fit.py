import warnings

import numpy as np
import pytest

from susygate.errors import StepSizeError
from susygate.filter_fit import (
    POSITIVITY_FLOOR,
    LindbladModel,
    ModelFamily,
    Trajectory,
    _block_len,
    _rk4_step,
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
    [(damping_model(0.7, drive=1.0), RHO_EXCITED), (qutrit_model(), RHO_TOP3)],
    ids=["qubit", "qutrit"],
)
def test_blocked_matches_stepwise_reference(model, rho0, blocks, extra):
    n_points = blocks * _block_len(model.dim) + extra
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


@pytest.mark.parametrize(
    "gamma, times, t_abort",
    [(8.0, grid(2.0, 0.5), "0.5"), (2000.0, grid(1.0, 1e-2), "0.01")],
    ids=["gamma8-dt0.5", "gamma2000-dt0.01"],
)
def test_abort_names_first_offending_step(gamma, times, t_abort):
    # gamma = 2000 at dt = 1e-2 grows about 5.5e3 per step, so the stacked
    # powers of the step matrix reach 1e239; no overflow warning may escape
    model = damping_model(gamma)
    with pytest.raises(StepSizeError) as ref:
        stepwise_evolve(model, RHO_EXCITED, times)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StepSizeError) as got:
            lindblad_evolve(model, RHO_EXCITED, times)
    assert str(got.value) == str(ref.value)
    assert f"at t={t_abort};" in str(got.value)


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

def test_filter_self_consistency():
    # truth model + own record: the filter repeats the simulator's steps
    model = damping_model(0.7, drive=1.0)
    times = grid(2.0, 1e-3)
    sim = sme_simulate(model, 0, 0.5, RHO_EXCITED, times, seed=42)
    est = filter_estimate(model, sim.record, 0, 0.5, RHO_EXCITED, times)
    gap = np.max(np.linalg.norm(sim.states - est.states, axis=(1, 2)))
    assert gap <= 1e-10


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
    fit = fit_parameters(est, family, g, refine=False)
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
    fit = fit_parameters(est, family, g, refine=False)
    assert fit.theta[0] == 0.7
    assert len(fit.skipped) == 1


@pytest.mark.parametrize("xtol", [0.0, -1.0, np.nan, np.inf])
def test_fit_bad_xtol_rejected(xtol):
    family = damping_family()
    times = grid(0.5, 1e-2)
    est = lindblad_evolve(family.at([0.7]), RHO_EXCITED, times)
    with pytest.raises(ValueError, match="xtol"):
        fit_parameters(est, family, [np.linspace(0.2, 1.4, 7)], xtol=xtol)


def test_fit_tiny_xtol_terminates():
    # below float resolution the golden-section bracket stops shrinking
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
