from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susygate.serialize import matrix_from_json, matrix_to_json
from susygate.spectrum import (
    MetastableWarning,
    Spectrum,
    build_h0,
    compute_spectrum,
    diagonalize,
    perturbative_energies,
)


# --- independent ladder-expansion oracle (no matrices involved) -----------

def ladder_element(m: int, power: int, n: int) -> float:
    """<m|Q^power|n> by exact amplitude propagation through the ladder."""
    state = {n: 1.0}
    for _ in range(power):
        new = defaultdict(float)
        for j, amp in state.items():
            if j > 0:
                new[j - 1] += amp * np.sqrt(j / 2.0)
            new[j + 1] += amp * np.sqrt((j + 1) / 2.0)
        state = dict(new)
    return state.get(m, 0.0)


def quartic_shift(n: int) -> float:
    return ladder_element(n, 4, n)


def cubic_second_order(n: int) -> float:
    total = 0.0
    for m in range(max(0, n - 3), n + 4):
        if m == n:
            continue
        total += ladder_element(m, 3, n) ** 2 / (n - m)
    return total


def test_ladder_oracle_matches_textbook_closed_forms():
    for n in range(6):
        assert quartic_shift(n) == pytest.approx(0.75 * (2 * n**2 + 2 * n + 1))
        assert cubic_second_order(n) == pytest.approx(-(30 * n**2 + 30 * n + 11) / 8.0)


# --- build_h0 --------------------------------------------------------------

def test_harmonic_limit_is_exact_diagonal():
    # trusted block: the edge diagonal entry is (M-1)/2, a truncation artifact
    h = build_h0(0.0, 0.0, 8)
    assert np.max(np.abs(h - np.diag(np.diagonal(h)))) == 0.0
    assert np.allclose(np.diagonal(h)[:7], np.arange(7) + 0.5, atol=1e-14)
    assert h[7, 7].real == pytest.approx(3.5)


def test_quartic_vacuum_entry_frozen_value():
    # 0.5 + 0.01 * <0|Q^4|0> with the ladder oracle giving 3/4
    assert 0.01 * quartic_shift(0) == pytest.approx(0.0075)
    h = build_h0(0.0, 0.01, 32)
    assert h[0, 0].real == pytest.approx(0.5075, abs=1e-12)


def test_hermitian_for_random_coefficients(rng):
    for _ in range(5):
        c1, c2 = rng.normal(scale=0.3, size=2)
        h = build_h0(c1, abs(c2), 12)
        assert np.max(np.abs(h - h.conj().T)) < 1e-13


def test_metastable_warnings():
    with pytest.warns(MetastableWarning):
        build_h0(0.05, 0.0, 16)
    with pytest.warns(MetastableWarning):
        build_h0(0.0, -0.01, 16)


def test_build_h0_needs_reach():
    # the check sits where a user picks the truncation; build_h0 itself also
    # serves the small joint-system factors
    with pytest.raises(ValueError, match="reach"):
        compute_spectrum(0.0, 0.0, kept=2, raw_dim=3)


# --- diagonalize -----------------------------------------------------------

def test_harmonic_spectrum_and_modes():
    spec = diagonalize(build_h0(0.0, 0.0, 16), kept=8)
    assert np.allclose(spec.kept_energies, np.arange(8) + 0.5, atol=1e-12)
    # kept block of the eigenvector matrix is the identity (edge levels above
    # the kept block may reorder because of the truncation edge entry)
    assert np.allclose(spec.modes[:8, :8], np.eye(8), atol=1e-12)


def test_rejects_non_hermitian():
    h = np.eye(4, dtype=complex)
    h[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        diagonalize(h, kept=2)


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
def test_cubic_ground_energy_second_order():
    c1 = 0.01
    spec = diagonalize(build_h0(c1, 0.0, 64), kept=4, c1=c1)
    expected = 0.5 + c1**2 * cubic_second_order(0)
    assert abs(spec.energies[0] - expected) < 0.01 * abs(expected - 0.5)


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
def test_cutoff_convergence_64_to_96():
    for c1, c2 in [(0.01, 0.0), (0.0, 0.01), (0.02, 0.02)]:
        e64 = np.linalg.eigvalsh(build_h0(c1, c2, 64))[:6]
        e96 = np.linalg.eigvalsh(build_h0(c1, c2, 96))[:6]
        assert np.max(np.abs(e64 - e96)) < 1e-8


def test_modes_unitary_and_eigen_equation():
    h = build_h0(0.03, 0.02, 48)
    spec = diagonalize(h, kept=6)
    gram = spec.modes.conj().T @ spec.modes
    assert np.max(np.abs(gram - np.eye(48))) < 1e-10
    resid = h @ spec.modes - spec.modes * spec.energies
    assert np.max(np.abs(resid)) < 1e-9 * np.linalg.norm(h)


def test_phase_convention_deterministic():
    spec = diagonalize(build_h0(0.02, 0.015, 32), kept=4)
    for col in spec.modes.T:
        piv = col[np.argmax(np.abs(col))]
        assert piv.imag == pytest.approx(0.0, abs=1e-14)
        assert piv.real > 0


def test_spectrum_json_roundtrip():
    spec = compute_spectrum(0.01, 0.005, kept=5)
    back = Spectrum.from_json(spec.to_json())
    assert np.allclose(back.energies, spec.energies)
    assert np.allclose(back.modes, spec.modes)
    assert back.cutoff_kept == 5 and back.c1 == 0.01


def test_spectrum_json_refuses_non_unitary_modes():
    # the package's one unitarity rule, max|V†V − I| ≤ 1e-8
    obj = compute_spectrum(0.01, 0.005, kept=2, raw_dim=8).to_json()
    modes = matrix_from_json(obj["modes"])
    Spectrum.from_json({**obj, "modes": matrix_to_json(modes * (1 + 4e-9))})
    for bad in (modes * (1 + 6e-9), np.where(np.eye(8) == 1, modes, 2 * modes)):
        with pytest.raises(ValueError, match="^modes not unitary within tolerance$"):
            Spectrum.from_json({**obj, "modes": matrix_to_json(bad)})


@pytest.mark.parametrize("change, message", [
    (lambda obj: {"energies": obj["energies"][:-1]}, "^energies length != cutoff_raw$"),
    (lambda obj: {"modes": matrix_to_json(np.eye(7))}, "^modes must be square of size cutoff_raw$"),
    (lambda obj: {"cutoff_kept": 9}, r"^cutoff_kept must lie in \[1, cutoff_raw\]$"),
    (lambda obj: {"energies": obj["energies"][::-1]}, "^energies not ascending$"),
], ids=["energies-short", "modes-7x7", "kept-9-of-8", "energies-descending"])
def test_spectrum_json_refuses_inconsistent_fields(change, message):
    obj = compute_spectrum(0.01, 0.005, kept=2, raw_dim=8).to_json()
    with pytest.raises(ValueError, match=message):
        Spectrum.from_json({**obj, **change(obj)})


@pytest.mark.parametrize("call, message", [
    (lambda: diagonalize(np.eye(3), kept=4), r"^kept=4 outside \[1, 3\]$"),
    (lambda: diagonalize(np.eye(3), kept=0), r"^kept=0 outside \[1, 3\]$"),
    (lambda: perturbative_energies(0.0, 0.0, -1), "^n_max must be >= 0$"),
], ids=["kept-above", "kept-0", "n-max-negative"])
def test_spectrum_builders_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- perturbative energies --------------------------------------------------

def test_pt_harmonic_limit():
    assert np.allclose(perturbative_energies(0.0, 0.0, 5), np.arange(6) + 0.5)


def test_pt_matches_ladder_oracle():
    e = perturbative_energies(0.01, 0.02, 4)
    for n in range(5):
        expected = n + 0.5 + 0.02 * quartic_shift(n) + 0.01**2 * cubic_second_order(n)
        assert e[n] == pytest.approx(expected, abs=1e-12)


def test_pt_frozen_first_order_values():
    # the correction is exactly linear in c2, so dividing recovers <n|Q^4|n>;
    # frozen values computed with the ladder oracle: (3/4)(2n^2+2n+1)
    e = (perturbative_energies(0.0, 0.1, 2) - (np.arange(3) + 0.5)) / 0.1
    assert np.allclose(e, [0.75, 3.75, 9.75], atol=1e-12)


def test_pt_frozen_second_order_value():
    e = perturbative_energies(1e-3, 0.0, 0)
    assert (e[0] - 0.5) / 1e-6 == pytest.approx(-1.375, abs=1e-9)


def test_pt_validity_guard():
    with pytest.raises(ValueError, match="perturbative"):
        perturbative_energies(0.2, 0.0, 3)


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
@settings(max_examples=50, deadline=None)
@given(c1=st.floats(-0.05, 0.05), c2=st.floats(-0.05, 0.05), kept=st.integers(1, 6),
       extra=st.integers(0, 30))
def test_spectrum_diagonalizes_the_h0_its_coefficients_build(c1, c2, kept, extra):
    # the oracle rebuilds H0 from (c1, c2): the modes and energies must be its own
    raw = max(kept, 4) + extra
    spec = compute_spectrum(c1, c2, kept, raw)
    h0 = build_h0(c1, c2, raw)
    rebuilt = spec.modes @ np.diag(spec.energies) @ spec.modes.conj().T
    assert np.linalg.norm(rebuilt - h0) <= 1e-10 * np.linalg.norm(h0)


# --- scaling invariants -----------------------------------------------------

def test_quartic_residual_second_order_scaling():
    # residual after first order in c2 shrinks ~x4 when c2 halves
    def residual(c2):
        exact = np.linalg.eigvalsh(build_h0(0.0, c2, 64))[:5]
        pt = perturbative_energies(0.0, c2, 4)
        return np.abs(exact - pt)

    ratio = residual(0.004) / residual(0.002)
    assert np.all(ratio >= 3.0) and np.all(ratio <= 5.0)


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
def test_cubic_residual_beyond_second_order():
    # after removing the c1^2 term the residual is o(c1^2): ratio >= 3
    def residual(c1):
        exact = np.linalg.eigvalsh(build_h0(c1, 0.0, 64))[:4]
        pt = perturbative_energies(c1, 0.0, 3)
        return np.abs(exact - pt)

    ratio = residual(0.02) / residual(0.01)
    assert np.all(ratio >= 3.0)


def test_kept_energies_stable_when_raw_grows():
    for c1, c2 in [(0.02, 0.02), (0.0, 0.02)]:
        a = compute_spectrum(c1, c2, kept=6, raw_dim=64).kept_energies
        b = compute_spectrum(c1, c2, kept=6, raw_dim=96).kept_energies
        assert np.max(np.abs(a - b)) < 1e-8
