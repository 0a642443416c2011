import numpy as np
import pytest

from susygate.errors import StepSizeError
from susygate.filter_fit import (
    LindbladModel,
    ModelFamily,
    Trajectory,
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

def test_small_eta_limit_matches_deterministic():
    times = grid(2.0, 1e-3)
    det = lindblad_evolve(damping_model(0.7, drive=1.0), RHO_EXCITED, times)
    sme = sme_simulate(damping_model(0.7, drive=1.0), 0, 1e-8, RHO_EXCITED, times, seed=7)
    gap = np.max(np.linalg.norm(det.states - sme.states, axis=(1, 2)))
    assert gap < 5e-3  # Euler-Maruyama drift bias at this step size


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
    # truth model + own record: innovations reproduce the driving noise
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
