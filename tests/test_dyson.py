import numpy as np
import pytest

from susygate import dyson
from susygate.dyson import (
    ControlPulse,
    basis_transforms,
    dyson_gate,
    propagate_oracle,
    pulse_transform,
    u0,
)
from susygate.errors import OracleConvergenceError
from susygate.spectrum import compute_spectrum


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

def test_transform_constant_pulse():
    p = ControlPulse(2.5, np.array([1.0]))
    assert pulse_transform(p, 0.0) == pytest.approx(2.5)
    w = 1.3
    expected = (np.exp(1j * w * 2.5) - 1.0) / (1j * w)
    assert pulse_transform(p, w) == pytest.approx(expected)


def test_transform_conjugate_symmetry(rng):
    p = ControlPulse(1.7, rng.normal(size=7))
    for w in rng.normal(scale=3.0, size=10):
        assert pulse_transform(p, -w) == pytest.approx(np.conj(pulse_transform(p, w)))


def test_transform_matches_quadrature(rng):
    p = ControlPulse(2.0, rng.normal(size=5))
    ts = np.linspace(0.0, 2.0, 200001)
    for w in (0.0, 0.9, 2 * np.pi / 2.0, -3.7):
        quad = np.trapezoid(p.evaluate(ts) * np.exp(1j * w * ts), ts)
        assert pulse_transform(p, w) == pytest.approx(quad, abs=1e-8)


def test_transform_continuity_at_resonances():
    # removable singularities at omega = 2*pi*k/T are exact limits
    p = ControlPulse(2.0, np.array([0.5, 1.0, -0.3, 0.2, 0.7]))
    for k in (0, 1, 2):
        w0 = 2 * np.pi * k / 2.0
        for w in (w0 - 1e-9, w0 + 1e-9):
            assert abs(pulse_transform(p, w) - pulse_transform(p, w0)) <= 1e-7


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


def test_u0_fock_flavor_is_rotation(anharmonic_spec):
    spec = anharmonic_spec
    uf = u0(spec, 0.9, basis="fock")
    ue_full = np.diag(np.exp(-1j * spec.energies * 0.9))
    assert np.allclose(uf, spec.modes @ ue_full @ spec.modes.conj().T, atol=1e-12)


# --- first-order gate -------------------------------------------------------

def test_zero_pulse_reproduces_free_propagator(anharmonic_spec):
    p = ControlPulse(2.0, np.zeros(5))
    assert np.allclose(dyson_gate(anharmonic_spec, p), u0(anharmonic_spec, 2.0),
                       atol=1e-14)


def test_gate_deviation_linear_in_pulse(anharmonic_spec):
    p = ControlPulse(2.0, np.array([0.11, -0.07, 0.05]))
    base = u0(anharmonic_spec, 2.0)
    d1 = np.linalg.norm(dyson_gate(anharmonic_spec, p.scaled(1.0)) - base)
    d2 = np.linalg.norm(dyson_gate(anharmonic_spec, p.scaled(0.5)) - base)
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
    reference = propagate_oracle(spec, p)
    assert np.linalg.norm(gate - reference) < 5e-6  # O(b^2) remainder


# --- brute-force propagator -------------------------------------------------

def test_oracle_zero_pulse_is_exponential(anharmonic_spec):
    p = ControlPulse(1.5, np.zeros(3))
    ref = propagate_oracle(anharmonic_spec, p)
    assert np.allclose(ref, u0(anharmonic_spec, 1.5), atol=1e-9)


def test_oracle_group_property_on_free_segments(anharmonic_spec):
    pa = ControlPulse(0.8, np.zeros(1))
    pb = ControlPulse(0.6, np.zeros(1))
    uab = propagate_oracle(anharmonic_spec, ControlPulse(1.4, np.zeros(1)))
    ua = propagate_oracle(anharmonic_spec, pa)
    ub = propagate_oracle(anharmonic_spec, pb)
    assert np.allclose(ub @ ua, uab, atol=1e-8)


def test_oracle_convergence_error(monkeypatch):
    spec = compute_spectrum(0.0, 0.0, kept=2, raw_dim=8)
    p = ControlPulse(2.0, np.array([0.2, 0.1, 0.1]))
    monkeypatch.setattr(dyson, "ORACLE_START_STEPS", 1)
    monkeypatch.setattr(dyson, "ORACLE_MAX_STEPS", 2)
    with pytest.raises(OracleConvergenceError):
        propagate_oracle(spec, p)


def test_dyson_remainder_quadratic_in_drive(rng):
    # the module's core property: |oracle - gate| scales as drive^2
    spec = compute_spectrum(0.03, 0.01, kept=4, raw_dim=16)
    base = rng.normal(size=5)
    base /= np.linalg.norm(base)
    gaps = []
    for eps in (0.1, 0.05):
        p = ControlPulse(2.0, eps * base)
        gaps.append(np.linalg.norm(propagate_oracle(spec, p) - dyson_gate(spec, p)))
    ratio = gaps[0] / gaps[1]
    assert 3.0 <= ratio <= 5.0


def test_row_norm_defect_scales_quadratically(anharmonic_spec):
    # unitarity defect <= C * |b|^2 with C fitted at one scale
    base = ControlPulse(2.0, np.array([0.2, -0.1, 0.15]))
    def defect(pulse):
        g = dyson_gate(anharmonic_spec, pulse)
        return np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0))

    d1, d2 = defect(base), defect(base.scaled(0.5))
    c_fit = d1 / base.energy()
    print(f"row-norm defect constant C = {c_fit:.4f}")
    assert d2 <= c_fit * base.scaled(0.5).energy() * 1.25


def test_eigen_and_fock_representations_conjugate(anharmonic_spec):
    # same gate in both bases, related exactly by the eigenvector rotation
    spec = compute_spectrum(0.03, 0.01, kept=16, raw_dim=16)
    p = ControlPulse(1.2, np.array([0.1, 0.05, -0.03]))
    u_eig = dyson_gate(spec, p)
    u_fock = spec.modes @ u_eig @ spec.modes.conj().T
    back = spec.modes.conj().T @ u_fock @ spec.modes
    assert np.allclose(back, u_eig, atol=1e-13)
