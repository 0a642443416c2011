"""Acceptance criteria, one test per criterion, each with its stated
tolerance and runtime budget.  The conftest hook prints one line per
criterion at the end of the run."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_density, random_unitary

import susygate as sg
from susygate.filter_fit import ensemble_stats, filter_estimate, fit_parameters
from susygate.gate_synth import design_matrix
from susygate.spectrum import build_h0

FIXTURES = Path(__file__).parent / "fixtures"

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
RHO_EXCITED = np.array([[0, 0], [0, 1.0]], dtype=complex)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s over budget {self.limit}s"


def test_c01_harmonic_limit():
    budget = Budget(1.0)
    spec = sg.compute_spectrum(0.0, 0.0, kept=8, raw_dim=32)
    assert np.max(np.abs(spec.kept_energies - (np.arange(8) + 0.5))) <= 1e-10
    # identity modes on the kept block, phases fixed real positive
    assert np.max(np.abs(spec.modes[:8, :8] - np.eye(8))) <= 1e-10
    budget.check()


def test_c02_perturbation_theory_oracle():
    budget = Budget(5.0)
    # quartic branch: halving c2 shrinks the post-first-order residual ~x4
    def residual(c2):
        exact = np.linalg.eigvalsh(build_h0(0.0, c2, 64))[:5]
        return np.abs(exact - sg.perturbative_energies(0.0, c2, 4))

    ratio = residual(0.004) / residual(0.002)
    assert np.all(ratio >= 3.0) and np.all(ratio <= 5.0)

    # cubic branch: the pair c1 in {0.02, 0.01} pins the c1 -> 0 limit of
    # (E_exact - E0)/c1^2, which must match the summed second-order value;
    # at the smaller coupling the raw quotient itself is within 1%
    q3 = sg.position_op(16) @ sg.position_op(16) @ sg.position_op(16)
    with pytest.warns(sg.MetastableWarning):
        e_02 = np.linalg.eigvalsh(build_h0(0.02, 0.0, 64))[:4]
    with pytest.warns(sg.MetastableWarning):
        e_01 = np.linalg.eigvalsh(build_h0(0.01, 0.0, 64))[:4]
    for n in range(4):
        second_order = sum(
            abs(q3[m, n]) ** 2 / (n - m) for m in range(16) if m != n
        ).real
        r_02 = (e_02[n] - (n + 0.5)) / 0.02**2
        r_01 = (e_01[n] - (n + 0.5)) / 0.01**2
        extrapolated = (4.0 * r_01 - r_02) / 3.0
        assert abs(extrapolated - second_order) <= 0.01 * abs(second_order)
        assert abs(r_01 - second_order) <= 0.01 * abs(second_order)
    budget.check()


def test_c03_dyson_first_order_remainder():
    budget = Budget(10.0)
    spec = sg.compute_spectrum(0.03, 0.01, kept=4, raw_dim=16)
    rng = np.random.default_rng(20260809)
    base = rng.normal(size=5)
    base /= np.linalg.norm(base)
    gaps = []
    for eps in (0.1, 0.05):
        pulse = sg.ControlPulse(2.0, eps * base)
        gaps.append(
            np.linalg.norm(sg.propagate_oracle(spec, pulse)[0] - sg.dyson_gate(spec, pulse))
        )
    ratio = gaps[0] / gaps[1]
    assert 3.0 <= ratio <= 5.0
    budget.check()


def test_c04_gate_synthesis_planted_recovery():
    budget = Budget(5.0)
    spec = sg.compute_spectrum(0.03, 0.01, kept=4)
    horizon, n_h = 8.0, 6
    rng = np.random.default_rng(41)
    beta_star = rng.normal(size=2 * n_h + 1)
    beta_star *= 0.05 / np.linalg.norm(beta_star)
    a = design_matrix(spec, horizon, n_h)
    target = (sg.u0(spec, horizon).reshape(-1) + a @ beta_star).reshape(4, 4)
    prob = sg.SynthesisProblem(
        target=target, spec=spec, horizon=horizon, n_harmonics=n_h,
        lam=0.0, allow_nonunitary=True,
    )
    report = sg.synthesize(prob)
    assert report.residual <= 1e-10
    assert np.linalg.norm(report.pulse.coeffs - beta_star) <= 1e-8

    reports = sg.sweep(prob, np.geomspace(1e-4, 1e6, 10))
    energies = [r.energy for r in reports]
    residuals = [r.residual for r in reports]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert all(b >= a for a, b in zip(residuals, residuals[1:]))
    budget.check()


def test_c05_channel_laws(rng):
    budget = Budget(5.0)
    for _ in range(20):
        u = random_unitary(rng, 6)
        anc = rng.normal(size=2) + 1j * rng.normal(size=2)
        anc /= np.linalg.norm(anc)
        ch = sg.kraus_from_unitary(u, anc)
        assert ch.tp_defect() <= 1e-10
        assert np.linalg.eigvalsh(sg.choi(ch)).min() >= -1e-10
        rho = random_density(rng, 3)
        via_kraus = sg.apply_channel(ch, rho)
        joint = u @ np.kron(rho, np.outer(anc, anc.conj())) @ u.conj().T
        via_trace = sg.partial_trace(joint, (3, 2), "anc")
        assert np.max(np.abs(via_kraus - via_trace)) <= 1e-10
    budget.check()


def test_c06_lindblad_amplitude_damping():
    budget = Budget(5.0)
    gamma = 1.0
    model = sg.LindbladModel(np.zeros((2, 2)), (np.sqrt(gamma) * LOWER,))
    times = np.arange(0, 2.0 + 5e-5, 1e-4)
    traj = sg.lindblad_evolve(model, RHO_EXCITED, times)
    decay = traj.states[:, 1, 1].real
    assert np.max(np.abs(decay - np.exp(-gamma * times))) <= 1e-6
    traces = np.einsum("tii->t", traj.states).real
    assert np.max(np.abs(traces - 1.0)) <= 1e-8
    budget.check()


def test_c07_unraveling_ensemble_consistency():
    budget = Budget(60.0)
    model = sg.LindbladModel(0.5 * SX, (np.sqrt(0.7) * LOWER,))
    times = np.arange(0, 2.0 + 5e-4, 1e-3)
    det = sg.lindblad_evolve(model, RHO_EXCITED, times)
    mean, sem = ensemble_stats(
        model, 0, 0.4, RHO_EXCITED, times, n_traj=500, master_seed=2718
    )
    for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
        i = int(frac * (times.size - 1))
        gap = np.linalg.norm(mean[i] - det.states[i])
        stderr = np.sqrt(np.sum(sem[i] ** 2))
        assert gap <= 3.0 * stderr, f"checkpoint {i}: {gap:.3e} > 3x{stderr:.3e}"
    budget.check()


def test_c08_filter_fit_recovery():
    budget = Budget(60.0)
    pilot = json.loads((FIXTURES / "filter_fit_pilot.json").read_text())
    design = pilot["design"]
    family = sg.ModelFamily(h0=0.5 * SX, rate_bases=(LOWER,), param_names=("gamma",))
    truth = design["gamma_truth"]
    dt = design["dt"]
    times = np.arange(0, design["horizon"] + dt / 2, dt)
    grid = [np.linspace(design["grid"]["lo"], design["grid"]["hi"],
                        design["grid"]["points"])]

    # noiseless branch: truth off-grid, refinement localizes it to 1e-3
    est = sg.lindblad_evolve(family.at([truth]), RHO_EXCITED, times)
    fit = fit_parameters(est, family, grid, xtol=design["xtol"])
    assert abs(fit.theta[0] - truth) <= 1e-3

    # single filtered record at the pilot-pinned design
    model = family.at([truth])
    seed = pilot["pinned"]["ci_seed"]
    record = sg.sme_simulate(
        model, 0, design["eta"], RHO_EXCITED, times, seed=seed
    ).record
    est = filter_estimate(model, record, 0, design["eta"], RHO_EXCITED, times)
    fit = fit_parameters(est, family, grid, xtol=design["xtol"])
    rel_err = abs(fit.theta[0] - truth) / truth
    assert rel_err <= pilot["pinned"]["relative_tolerance"]
    budget.check()


def test_c09_susy_classifier():
    budget = Budget(5.0)
    harmonic = sg.witten_index(sg.susy_pair([0.0, 0.0, 0.5], cutoff=32))
    assert harmonic.index == 1 and harmonic.unbroken

    cubic_pair = sg.susy_pair([0.0, 0.0, 0.0, 1 / 3], cutoff=64)
    cubic = sg.witten_index(cubic_pair)
    assert cubic.index == 0 and not cubic.unbroken
    assert cubic.min_energy > 1e-3

    e_minus = np.linalg.eigvalsh(cubic_pair.h_minus)
    e_plus = np.linalg.eigvalsh(cubic_pair.h_plus)
    pos_minus = e_minus[e_minus > 1e-6][:5]
    pos_plus = e_plus[e_plus > 1e-6][:5]
    assert np.max(np.abs(pos_minus - pos_plus)) <= 1e-6
    budget.check()


def test_c10_graded_algebra(rng):
    budget = Budget(1.0)
    for _ in range(100):
        d0, d1 = rng.integers(1, 5, size=2)
        g = sg.GradedSpace(int(d0), int(d1))
        d = g.dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        theta = g.theta()
        assert np.max(np.abs(theta @ theta - np.eye(d))) == 0.0
        assert np.max(np.abs(sg.even_part(x, g) + sg.odd_part(x, g) - x)) < 1e-14
        assert np.max(np.abs(sg.tau(sg.tau(x, g), g) - x)) < 1e-14
        assert np.max(np.abs(sg.tau(x @ y, g) - sg.tau(x, g) @ sg.tau(y, g))) < 1e-12
    budget.check()
