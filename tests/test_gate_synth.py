from dataclasses import replace

import numpy as np
import pytest

from susygate.dyson import ControlPulse, dyson_gate, energy_weights, u0
from susygate.fock import position_op
from susygate.gate_synth import (
    SynthesisProblem,
    design_matrix,
    sweep,
    synthesize,
)
from susygate.spectrum import compute_spectrum


@pytest.fixture(scope="module")
def spec():
    return compute_spectrum(0.03, 0.01, kept=4)


def planted_problem(spec, rng, horizon=8.0, n_harmonics=6, scale=0.05, lam=0.0):
    a = design_matrix(spec, horizon, n_harmonics)
    beta_star = rng.normal(size=2 * n_harmonics + 1)
    beta_star *= scale / np.linalg.norm(beta_star)
    k = spec.cutoff_kept
    target = (u0(spec, horizon).reshape(-1) + a @ beta_star).reshape(k, k)
    prob = SynthesisProblem(
        target=target, spec=spec, horizon=horizon, n_harmonics=n_harmonics,
        lam=lam, allow_nonunitary=True,
    )
    return prob, beta_star


def test_energy_weights_match_pulse_energy(rng):
    w = energy_weights(2.0, 3)
    for _ in range(5):
        beta = rng.normal(size=7)
        assert w @ beta**2 == pytest.approx(ControlPulse(2.0, beta).energy())


def test_design_matrix_reproduces_gate(spec, rng):
    horizon, n_h = 2.0, 2
    a = design_matrix(spec, horizon, n_h)
    u0_vec = u0(spec, horizon).reshape(-1)
    beta = rng.normal(size=5) * 0.1
    direct = dyson_gate(spec, ControlPulse(horizon, beta)).reshape(-1)
    assert np.array_equal(u0_vec + a @ beta, direct)


def test_design_matrix_finite_difference_exact(spec):
    # the map is affine, so any step size gives the exact column
    horizon, n_h = 2.0, 1
    a = design_matrix(spec, horizon, n_h)
    u0_vec = u0(spec, horizon).reshape(-1)

    def gate_vec(beta):
        return u0_vec + a @ beta

    h = 0.731
    for j in range(3):
        e_j = np.zeros(3)
        e_j[j] = h
        col = (gate_vec(e_j) - gate_vec(np.zeros(3))) / h
        assert np.max(np.abs(col - a[:, j])) < 1e-12


def test_diagonal_columns_nonzero_with_cubic_tilt(spec):
    # anharmonic eigenstates break parity, so <n|Q|n> != 0 feeds the
    # omega=0 transform branch on the gate diagonal: the constant-term
    # column there is exactly -i T e^{-i E_n T} <n|Q|n>
    horizon = 2.0
    a = design_matrix(spec, horizon, 1)
    k = spec.cutoff_kept
    q = spec.kept_block(position_op(spec.cutoff_raw))
    e = spec.kept_energies
    for n in range(k):
        expected = -1j * horizon * np.exp(-1j * e[n] * horizon) * q[n, n]
        assert a[n * k + n, 0] == pytest.approx(expected, abs=1e-13)
        assert abs(expected) > 1e-4


def test_target_already_reached(spec):
    prob = SynthesisProblem(
        target=u0(spec, 2.0), spec=spec, horizon=2.0, n_harmonics=2, lam=0.0,
        allow_nonunitary=True,
    )
    report = synthesize(prob)
    assert report.residual < 1e-12
    assert np.max(np.abs(report.pulse.coeffs)) < 1e-12


def test_planted_recovery(spec, rng):
    prob, beta_star = planted_problem(spec, rng)
    report = synthesize(prob)
    assert report.residual <= 1e-10
    assert np.linalg.norm(report.pulse.coeffs - beta_star) <= 1e-8
    # planted target is itself a first-order gate, non-unitary by O(|b|^2),
    # so the overlap fidelity may exceed 1 by that amount
    assert report.fidelity == pytest.approx(1.0, abs=0.02)


def test_huge_penalty_kills_pulse(spec, rng):
    prob, _ = planted_problem(spec, rng, lam=1e6)
    report = synthesize(prob)
    assert np.linalg.norm(report.pulse.coeffs) < 1e-4
    k = spec.cutoff_kept
    gate = (u0(spec, prob.horizon).reshape(-1)
            + design_matrix(spec, prob.horizon, prob.n_harmonics) @ report.pulse.coeffs)
    assert np.linalg.norm(gate.reshape(k, k) - u0(spec, prob.horizon)) < 1e-3


def test_output_strictly_real(spec, rng):
    prob, _ = planted_problem(spec, rng, lam=0.3)
    report = synthesize(prob)
    assert report.pulse.coeffs.dtype == np.float64


@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.05, 10.0, 1e6])
def test_residual_orthogonality(spec, rng, lam):
    # stationarity of the real-constrained ridge problem:
    # Re[A^H (A beta - r)] + lam W beta = 0
    prob, _ = planted_problem(spec, rng, lam=lam)
    report = synthesize(prob)
    a = design_matrix(spec, prob.horizon, prob.n_harmonics)
    r = prob.target.reshape(-1) - u0(spec, prob.horizon).reshape(-1)
    w = energy_weights(prob.horizon, prob.n_harmonics)
    beta = report.pulse.coeffs
    grad = np.real(a.conj().T @ (a @ beta - r)) + lam * (w * beta)
    assert np.max(np.abs(grad)) < 1e-8


def test_budget_form_hits_budget(spec, rng):
    prob, _ = planted_problem(spec, rng)
    unconstrained = synthesize(prob)
    budget = 0.25 * unconstrained.energy
    bounded = synthesize(
        SynthesisProblem(
            target=prob.target, spec=spec, horizon=prob.horizon,
            n_harmonics=prob.n_harmonics, lam=None, budget=budget,
            allow_nonunitary=True,
        )
    )
    assert bounded.energy == pytest.approx(budget, rel=1e-6)
    assert bounded.multiplier > 0
    assert bounded.residual >= unconstrained.residual


def test_budget_multiplier_meets_each_budget(spec, rng):
    prob, _ = planted_problem(spec, rng)
    unconstrained = synthesize(prob).energy
    multipliers = []
    for fraction in [0.999, 0.5, 1e-3, 1e-8]:
        budget = fraction * unconstrained
        report = synthesize(replace(prob, lam=None, budget=budget))
        assert report.energy == pytest.approx(budget, rel=1e-8)
        multipliers.append(report.multiplier)
    # a tighter budget needs a larger multiplier
    assert multipliers == sorted(multipliers)
    assert multipliers[0] > 0


def test_budget_inactive_when_generous(spec, rng):
    prob, _ = planted_problem(spec, rng)
    unconstrained = synthesize(prob)
    report = synthesize(
        SynthesisProblem(
            target=prob.target, spec=spec, horizon=prob.horizon,
            n_harmonics=prob.n_harmonics, lam=None,
            budget=10 * unconstrained.energy + 1.0, allow_nonunitary=True,
        )
    )
    assert report.multiplier == 0.0 and report.budget_iterations == 0
    assert "inactive" in report.note


def test_budget_iterations_count_the_newton_steps(spec, rng, monkeypatch):
    import susygate.gate_synth as gate_synth

    prob, _ = planted_problem(spec, rng)
    unconstrained = synthesize(prob)
    assert unconstrained.budget_iterations is None
    bounded = replace(prob, lam=None, budget=0.25 * unconstrained.energy)
    steps = synthesize(bounded).budget_iterations
    assert 0 < steps < gate_synth.NEWTON_MAX_ITER
    # one step fewer stops short of the budget
    monkeypatch.setattr(gate_synth, "NEWTON_MAX_ITER", steps - 1)
    short = synthesize(bounded)
    assert short.budget_iterations == steps - 1
    assert short.energy > bounded.budget * (1 + 1e-10)


def test_sweep_monotone(spec, rng):
    prob, _ = planted_problem(spec, rng)
    grid = np.geomspace(1e-4, 1e6, 10)
    reports = sweep(prob, grid)
    energies = [r.energy for r in reports]
    residuals = [r.residual for r in reports]
    assert all(e2 <= e1 for e1, e2 in zip(energies, energies[1:]))
    assert all(r2 >= r1 for r1, r2 in zip(residuals, residuals[1:]))


def test_sweep_extremes_bracket(spec, rng):
    prob, _ = planted_problem(spec, rng)
    ends = sweep(prob, [0.0, 1e6])
    mids = sweep(prob, np.geomspace(1e-3, 1e3, 5))
    for r in mids:
        assert ends[0].residual <= r.residual + 1e-12
        assert r.residual <= ends[1].residual + 1e-12


def test_one_design_and_one_svd_per_call(spec, rng, monkeypatch):
    import susygate.gate_synth as gate_synth

    prob, _ = planted_problem(spec, rng)
    budget = 0.25 * synthesize(prob).energy
    calls = {"design_matrix": 0, "svd": 0, "lstsq": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gate_synth, "design_matrix", counting("design_matrix", design_matrix))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
    assert len(sweep(prob, np.geomspace(1e-4, 1e4, 9))) == 9
    assert calls == {"design_matrix": 1, "svd": 1, "lstsq": 0}
    synthesize(replace(prob, lam=None, budget=budget))
    assert calls == {"design_matrix": 2, "svd": 2, "lstsq": 0}


def test_sweep_rejects_bad_multiplier(spec, rng):
    prob, _ = planted_problem(spec, rng)
    for bad in [-1.0, np.nan, np.inf]:
        with pytest.raises(ValueError, match="finite and >= 0"):
            sweep(prob, [1.0, bad])


def test_wide_design_minimum_energy_at_zero_multiplier(rng):
    # 8 real equations, 11 coefficients: lambda = 0 picks, among the
    # least-squares fits, the pulse of least energy sum_j w_j beta_j^2
    small = compute_spectrum(0.03, 0.01, kept=2)
    horizon, n_h = 2.0, 5
    target = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    prob = SynthesisProblem(
        target=target, spec=small, horizon=horizon, n_harmonics=n_h, lam=0.0,
        allow_nonunitary=True,
    )
    with pytest.warns(UserWarning, match="minimum-energy"):
        report = synthesize(prob)
    a = design_matrix(small, horizon, n_h)
    r = target.reshape(-1) - u0(small, horizon).reshape(-1)
    w_isqrt = 1.0 / np.sqrt(energy_weights(horizon, n_h))
    scaled = np.vstack([a.real, a.imag]) * w_isqrt
    expected = w_isqrt * (np.linalg.pinv(scaled) @ np.concatenate([r.real, r.imag]))
    assert np.linalg.norm(report.pulse.coeffs - expected) <= 1e-10 * np.linalg.norm(expected)


def test_sweep_empty_grid(spec, rng):
    prob, _ = planted_problem(spec, rng)
    assert sweep(prob, []) == []


def test_nonunitary_target_rejected(spec):
    with pytest.raises(ValueError, match="unitary"):
        SynthesisProblem(
            target=np.eye(4) * 1.5, spec=spec, horizon=2.0, n_harmonics=2, lam=0.0,
        )


def test_match_phase_absorbs_global_phase(spec):
    target = np.exp(0.8j) * u0(spec, 2.0)
    report = synthesize(
        SynthesisProblem(
            target=target, spec=spec, horizon=2.0, n_harmonics=2, lam=0.0,
            match_phase=True,
        )
    )
    assert report.residual < 1e-10
    without = synthesize(
        SynthesisProblem(
            target=target, spec=spec, horizon=2.0, n_harmonics=2, lam=0.0,
        )
    )
    assert without.residual > report.residual


def test_conditioning_warning_on_resonant_horizon(spec, rng):
    # near-integer level spacings against harmonics at T=4 make the normal
    # matrix catastrophically conditioned; the solver warns and falls back
    # to the minimum-energy solution
    prob, beta_star = planted_problem(spec, rng, horizon=4.0)
    with pytest.warns(UserWarning, match="condition"):
        report = synthesize(prob)
    assert report.conditioning > 1e12
    assert report.residual < 1e-8  # planted target still reproduced


def test_oracle_check_populates_fidelity(rng):
    small_spec = compute_spectrum(0.03, 0.01, kept=3, raw_dim=12)
    prob, _ = planted_problem(small_spec, rng, horizon=2.0, n_harmonics=2, scale=0.02)
    report = synthesize(prob, oracle_check=True)
    assert report.oracle_fidelity is not None
    assert report.oracle_fidelity == pytest.approx(report.fidelity, abs=1e-3)
    assert isinstance(report.oracle_steps, int) and 0 <= report.oracle_error < 1e-8


def test_report_json(spec, rng):
    prob, _ = planted_problem(spec, rng)
    obj = synthesize(prob).to_json()
    assert set(obj) >= {"pulse", "residual", "fidelity", "energy", "multiplier"}
