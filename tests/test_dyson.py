import numpy as np
import pytest

from susygate import dyson
from susygate.dyson import (
    ControlPulse,
    basis_transforms,
    dyson_gate,
    propagate_oracle,
    u0,
)
from susygate.errors import OracleConvergenceError
from susygate.fock import position_op
from susygate.spectrum import build_h0, compute_spectrum


@pytest.fixture(scope="module")
def harmonic_spec():
    return compute_spectrum(0.0, 0.0, kept=4)


@pytest.fixture(scope="module")
def anharmonic_spec():
    return compute_spectrum(0.03, 0.01, kept=4, raw_dim=16)


# --- ControlPulse -----------------------------------------------------------

def test_pulse_eval_and_energy():
    p = ControlPulse(2.0, np.array([0.3, 0.1, -0.2]))
    t = np.array([0.0, 0.5, 1.0])
    expected = 0.3 + 0.1 * np.cos(np.pi * t) - 0.2 * np.sin(np.pi * t)
    assert np.allclose(p.evaluate(t), expected)
    # closed-form energy vs quadrature
    ts = np.linspace(0, 2.0, 20001)
    quad = np.trapezoid(p.evaluate(ts) ** 2, ts)
    assert p.energy() == pytest.approx(quad, rel=1e-6)


def test_pulse_eval_outside_horizon_rejected():
    p = ControlPulse(1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        p.evaluate(1.5)


def test_pulse_requires_odd_coedff_count():
    with pytest.raises(ValueError):
        ControlPulse(1.0, np.array([1.0, 2.0]))


def test_pulse_json_roundtrip():
    p = ControlPulse(3.0, np.array([0.1, 0.2, 0.3, -0.4, 0.5]))
    q = ControlPulse.from_json(p.to_json())
    assert q.horizon == 3.0 and np.array_equal(q.coeffs, p.coeffs)


# --- pulse transform --------------------------------------------------------
# b̂_T(ω) = ∫_0^T b(t) e^{iωt} dt is the basis transforms dotted with the
# coefficients

def test_transform_constant_pulse():
    p = ControlPulse(2.5, np.array([1.0]))
    assert basis_transforms(p.horizon, p.n_harmonics, 0.0) @ p.coeffs == pytest.approx(2.5)
    w = 1.3
    expected = (np.exp(1j * w * 2.5) - 1.0) / (1j * w)
    assert basis_transforms(p.horizon, p.n_harmonics, w) @ p.coeffs == pytest.approx(expected)


def test_transform_conjugate_symmetry(rng):
    p = ControlPulse(1.7, rng.normal(size=7))
    for w in rng.normal(scale=3.0, size=10):
        minus, plus = basis_transforms(p.horizon, p.n_harmonics, [-w, w]) @ p.coeffs
        assert minus == pytest.approx(np.conj(plus))


def test_transform_matches_quadrature(rng):
    p = ControlPulse(2.0, rng.normal(size=5))
    ts = np.linspace(0.0, 2.0, 200001)
    for w in (0.0, 0.9, 2 * np.pi / 2.0, -3.7):
        quad = np.trapezoid(p.evaluate(ts) * np.exp(1j * w * ts), ts)
        assert basis_transforms(p.horizon, p.n_harmonics, w) @ p.coeffs == pytest.approx(
            quad, abs=1e-8
        )


def test_transform_continuity_at_resonances():
    # removable singularities at omega = 2*pi*k/T are exact limits
    p = ControlPulse(2.0, np.array([0.5, 1.0, -0.3, 0.2, 0.7]))
    for k in (0, 1, 2):
        w0 = 2 * np.pi * k / 2.0
        below, at, above = (
            basis_transforms(p.horizon, p.n_harmonics, [w0 - 1e-9, w0, w0 + 1e-9]) @ p.coeffs
        )
        for side in (below, above):
            assert abs(side - at) <= 1e-7


def test_transform_at_resonance_values():
    # cos_k picks up T/2 and sin_k picks up iT/2 at omega = +2*pi*k/T
    T = 3.0
    bt = basis_transforms(T, 1, 2 * np.pi / T)
    assert bt[1] == pytest.approx(T / 2)
    assert bt[2] == pytest.approx(1j * T / 2)


# --- free propagator --------------------------------------------------------

def test_u0_identity_and_group(harmonic_spec):
    assert np.allclose(u0(harmonic_spec, 0.0), np.eye(4))
    u1 = u0(harmonic_spec, 0.7)
    u2 = u0(harmonic_spec, 1.1)
    assert np.allclose(u1 @ u2, u0(harmonic_spec, 1.8), atol=1e-12)


def test_u0_full_period_is_minus_identity(harmonic_spec):
    assert np.allclose(u0(harmonic_spec, 2 * np.pi), -np.eye(4), atol=1e-10)


# --- first-order gate -------------------------------------------------------

def test_zero_pulse_reproduces_free_propagator(anharmonic_spec):
    p = ControlPulse(2.0, np.zeros(5))
    assert np.allclose(dyson_gate(anharmonic_spec, p), u0(anharmonic_spec, 2.0),
                       atol=1e-14)


def test_gate_deviation_linear_in_pulse(anharmonic_spec):
    p = ControlPulse(2.0, np.array([0.11, -0.07, 0.05]))
    base = u0(anharmonic_spec, 2.0)
    d1 = np.linalg.norm(dyson_gate(anharmonic_spec, p) - base)
    d2 = np.linalg.norm(dyson_gate(anharmonic_spec, ControlPulse(p.horizon, 0.5 * p.coeffs)) - base)
    assert d1 / d2 == pytest.approx(2.0, abs=1e-9)


def test_two_level_constant_pulse_hand_value():
    # harmonic two-level gate with a constant drive, evaluated by hand:
    # U_01 = -i * b0 * Integral(e^{i(E0-E1)t}) * e^{-i E0 T} / sqrt(2)
    spec = compute_spectrum(0.0, 0.0, kept=2)
    b0, T = 0.05, 1.0
    gate = dyson_gate(spec, ControlPulse(T, np.array([b0])))
    integral = (np.exp(-1j * T) - 1.0) / (-1j)
    expected01 = -1j * b0 * integral * np.exp(-1j * 0.5 * T) / np.sqrt(2)
    assert gate[0, 1] == pytest.approx(expected01, abs=1e-14)
    expected10 = -1j * b0 * np.conj(integral) * np.exp(-1j * 1.5 * T) / np.sqrt(2)
    assert gate[1, 0] == pytest.approx(expected10, abs=1e-14)


def test_two_level_gate_matches_oracle_at_small_drive():
    spec = compute_spectrum(0.0, 0.0, kept=2)
    p = ControlPulse(1.0, np.array([1e-3]))
    gate = dyson_gate(spec, p)
    reference, _, _ = propagate_oracle(spec, p)
    assert np.linalg.norm(gate - reference) < 5e-6  # O(b^2) remainder


# --- brute-force propagator -------------------------------------------------

def test_oracle_zero_pulse_is_exponential(anharmonic_spec):
    p = ControlPulse(1.5, np.zeros(3))
    ref, _, _ = propagate_oracle(anharmonic_spec, p)
    assert np.allclose(ref, u0(anharmonic_spec, 1.5), atol=1e-9)


def test_oracle_group_property_on_free_segments(anharmonic_spec):
    pa = ControlPulse(0.8, np.zeros(1))
    pb = ControlPulse(0.6, np.zeros(1))
    uab, _, _ = propagate_oracle(anharmonic_spec, ControlPulse(1.4, np.zeros(1)))
    ua, _, _ = propagate_oracle(anharmonic_spec, pa)
    ub, _, _ = propagate_oracle(anharmonic_spec, pb)
    assert np.allclose(ub @ ua, uab, atol=1e-8)


def test_oracle_convergence_error(monkeypatch):
    spec = compute_spectrum(0.0, 0.0, kept=2, raw_dim=8)
    p = ControlPulse(2.0, np.array([0.2, 0.1, 0.1]))
    monkeypatch.setattr(dyson, "ORACLE_START_STEPS", 1)
    monkeypatch.setattr(dyson, "ORACLE_MAX_STEPS", 2)
    with pytest.raises(OracleConvergenceError):
        propagate_oracle(spec, p)


def _step_product(spec, pulse, steps):
    m = spec.cutoff_raw
    return dyson._magnus_product(
        build_h0(spec.c1, spec.c2, m).real, position_op(m).real, pulse, steps
    )


@pytest.fixture
def c03_pulse(rng):
    base = rng.normal(size=5)
    return ControlPulse(2.0, 0.1 * base / np.linalg.norm(base))


def test_oracle_step_is_fourth_order(anharmonic_spec, c03_pulse):
    # a second-order product (e.g. the two factors swapped) falls only 4x
    us = [_step_product(anharmonic_spec, c03_pulse, n) for n in (32, 64, 128, 256)]
    gaps = [np.linalg.norm(b - a) for a, b in zip(us, us[1:])]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_oracle_step_product_is_unitary(anharmonic_spec, c03_pulse):
    u = _step_product(anharmonic_spec, c03_pulse, 256)
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) < 1e-12


def test_real_step_product_matches_complex_eigh(anharmonic_spec, c03_pulse):
    # the former factor: complex eigh of the complex-typed h0 + b̃·Q
    m, steps = anharmonic_spec.cutoff_raw, 64
    h0, q = build_h0(anharmonic_spec.c1, anharmonic_spec.c2, m), position_op(m)
    dt = c03_pulse.horizon / steps
    t = (np.arange(steps)[:, None] + dyson.GAUSS_NODES) * dt
    u = np.eye(m, dtype=complex)
    for b in (c03_pulse.evaluate(t) @ dyson.CFM4_MIX.T).ravel():
        w, v = np.linalg.eigh(h0 + b * q)
        u = (v * np.exp(-0.5j * dt * w)) @ v.conj().T @ u
    assert np.max(np.abs(_step_product(anharmonic_spec, c03_pulse, steps) - u)) <= 1e-13


@pytest.mark.parametrize("coeffs", [np.zeros(3), np.array([0.1, 0.0, 0.0])],
                         ids=["zero", "constant"])
def test_oracle_stops_on_exact_step(monkeypatch, anharmonic_spec, coeffs):
    # a zero or constant drive makes every step exact, so the successive gaps
    # are rounding noise whose ratio never confirms fourth order
    calls, magnus_product = [], dyson._magnus_product

    def counted(*args):
        calls.append(args[-1])
        # an exact step that missed its stop would double toward 64·2¹⁴ steps
        assert len(calls) <= 2, f"no stop on an exact step: grids {calls}"
        return magnus_product(*args)

    monkeypatch.setattr(dyson, "_magnus_product", counted)
    _, steps, error = propagate_oracle(anharmonic_spec, ControlPulse(1.5, coeffs))
    assert calls == [dyson.ORACLE_START_STEPS, 2 * dyson.ORACLE_START_STEPS]
    assert steps == calls[-1] and error < dyson.ORACLE_TOL


def _reference(spec, pulse, steps=8192):
    u = _step_product(spec, pulse, steps)
    k = spec.cutoff_kept
    return (spec.modes.conj().T @ u @ spec.modes)[:k, :k]


def test_oracle_within_tolerance_of_fine_grid_on_c03(anharmonic_spec, c03_pulse):
    u, steps, error = propagate_oracle(anharmonic_spec, c03_pulse)
    true_error = np.linalg.norm(u - _reference(anharmonic_spec, c03_pulse))
    assert true_error < dyson.ORACLE_TOL and error < dyson.ORACLE_TOL
    assert steps <= 256


def test_oracle_within_tolerance_of_fine_grid_at_design_point():
    # the gate design point of the benchmark's control-design jobs
    spec = compute_spectrum(0.03, 0.01, kept=4, raw_dim=24)
    base = np.random.default_rng(3).normal(size=7)
    pulse = ControlPulse(4.0, 0.1 * base / np.linalg.norm(base))
    u, steps, error = propagate_oracle(spec, pulse)
    true_error = np.linalg.norm(u - _reference(spec, pulse))
    assert true_error < dyson.ORACLE_TOL and error < dyson.ORACLE_TOL
    assert steps <= 256


def test_dyson_remainder_quadratic_in_drive(rng):
    # the module's core property: |oracle - gate| scales as drive^2
    spec = compute_spectrum(0.03, 0.01, kept=4, raw_dim=16)
    base = rng.normal(size=5)
    base /= np.linalg.norm(base)
    gaps = []
    for eps in (0.1, 0.05):
        p = ControlPulse(2.0, eps * base)
        gaps.append(np.linalg.norm(propagate_oracle(spec, p)[0] - dyson_gate(spec, p)))
    ratio = gaps[0] / gaps[1]
    assert 3.0 <= ratio <= 5.0


def test_row_norm_defect_scales_quadratically(anharmonic_spec):
    # unitarity defect <= C * |b|^2 with C fitted at one scale
    base = ControlPulse(2.0, np.array([0.2, -0.1, 0.15]))
    def defect(pulse):
        g = dyson_gate(anharmonic_spec, pulse)
        return np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0))

    half = ControlPulse(base.horizon, 0.5 * base.coeffs)
    d1, d2 = defect(base), defect(half)
    c_fit = d1 / base.energy()
    print(f"row-norm defect constant C = {c_fit:.4f}")
    assert d2 <= c_fit * half.energy() * 1.25


def test_eigen_and_fock_representations_conjugate(anharmonic_spec):
    # same gate in both bases, related exactly by the eigenvector rotation
    spec = compute_spectrum(0.03, 0.01, kept=16, raw_dim=16)
    p = ControlPulse(1.2, np.array([0.1, 0.05, -0.03]))
    u_eig = dyson_gate(spec, p)
    u_fock = spec.modes @ u_eig @ spec.modes.conj().T
    back = spec.modes.conj().T @ u_fock @ spec.modes
    assert np.allclose(back, u_eig, atol=1e-13)
    # the Spectrum methods are the same two rotations; the kept block is all of it here
    assert np.array_equal(spec.to_fock(u_eig), u_fock)
    assert np.allclose(spec.kept_block(spec.to_fock(u_eig)), u_eig, atol=1e-13)
    stack = spec.to_fock(np.stack([u_eig, u_eig.T, np.eye(16)]))
    assert np.allclose(stack[0], u_fock, atol=1e-13)
    assert np.allclose(stack[1], spec.to_fock(u_eig.T), atol=1e-13)
    assert np.allclose(stack[2], np.eye(16), atol=1e-13)
