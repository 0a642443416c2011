import warnings

import numpy as np
import pytest

from conftest import random_density, random_unitary

from susygate.channel import (
    JointSystem,
    _trace_ancilla,
    QuantumChannel,
    apply_channel,
    choi,
    dyson_channel,
    kraus_from_unitary,
    partial_trace,
    synthesize_channel,
)
from susygate.dyson import ControlPulse, design_matrix, u0
from susygate.fock import position_op
from susygate.spectrum import MetastableWarning, compute_spectrum


# --- partial trace ----------------------------------------------------------

def test_product_state_traces_to_factor(rng):
    rho_s = random_density(rng, 3)
    rho_a = random_density(rng, 2)
    joint = np.kron(rho_s, rho_a)
    assert np.allclose(partial_trace(joint, (3, 2), "anc"), rho_s, atol=1e-12)
    assert np.allclose(partial_trace(joint, (3, 2), "sys"), rho_a, atol=1e-12)


def test_bell_state_traces_to_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, (2, 2)), np.eye(2) / 2, atol=1e-14)


def test_trace_preserved(rng):
    rho = random_density(rng, 6)
    out = partial_trace(rho, (3, 2))
    assert np.trace(out) == pytest.approx(np.trace(rho), abs=1e-14)


def test_partial_trace_warns_on_nonstate(rng):
    # the state rule of trajectories: Hermitian and trace 1 within 1e-8, no
    # eigenvalue below −1e-6; the warning names the first test that fails
    for rho, fault in [
        (np.eye(4) * 2.0, "trace differs from 1"),
        (np.eye(4) / 4 * (1 + 1e-7), "trace differs from 1"),
        (np.full((4, 4), np.nan), "not Hermitian"),
        (random_density(rng, 4) + 1e-7j * np.triu(np.ones((4, 4)), 1), "not Hermitian"),
        (np.diag([1.5, -0.5, 0.0, 0.0]), "has a negative eigenvalue"),
    ]:
        with pytest.warns(UserWarning) as record:
            partial_trace(rho, (2, 2))
        assert [str(w.message) for w in record] == [
            f"input is not a normalized state ({fault}); tracing anyway"
        ]
        assert record[0].filename == __file__  # points at the caller


def test_partial_trace_of_a_state_does_not_warn(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d_sys, d_anc in [(2, 2), (3, 2), (1, 4)]:
            partial_trace(random_density(rng, d_sys * d_anc), (d_sys, d_anc))


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 2))


# --- Kraus from unitary -----------------------------------------------------

def test_trivial_ancilla_gives_unitary_conjugation(rng):
    u = random_unitary(rng, 4)
    ch = kraus_from_unitary(u, np.array([1.0]))
    assert len(ch.kraus) == 1
    assert np.allclose(ch.kraus[0], u)


def test_swap_gate_replaces_state():
    # joint swap on 2x2 with ancilla |0>: K_i = |0><i|, so every state is
    # reset to |0><0| (four-line hand computation)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    ch = kraus_from_unitary(swap, np.array([1.0, 0.0]))
    for i, k in enumerate(ch.kraus):
        expected = np.zeros((2, 2))
        expected[0, i] = 1.0
        assert np.allclose(k, expected, atol=1e-14)
    s = sum(k.conj().T @ k for k in ch.kraus)
    assert np.allclose(s, np.eye(2), atol=1e-14)
    rho = np.array([[0.3, 0.4], [0.4, 0.7]], dtype=complex)
    out = apply_channel(ch, rho)
    assert np.allclose(out, np.array([[1.0, 0], [0, 0]]), atol=1e-14)


def test_completeness_for_random_unitaries(rng):
    for _ in range(5):
        u = random_unitary(rng, 6)
        ch = kraus_from_unitary(u, np.array([1.0, 0.0, 0.0]))
        s = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(s - np.eye(2))) < 1e-12


def test_non_unitary_rejected():
    with pytest.raises(ValueError, match="unitary"):
        kraus_from_unitary(np.eye(4) * 1.1, np.array([1.0, 0.0]))


def test_unnormalized_ancilla_rejected(rng):
    # a NaN norm fails too; it would give an all-NaN Kraus stack
    for anc in ([1.0, 1.0], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="^ancilla state must be normalized$"):
            kraus_from_unitary(random_unitary(rng, 4), np.array(anc))


@pytest.mark.parametrize(
    "kraus",
    [(), (np.eye(2), np.eye(3)), (np.eye(3),)],
    ids=["empty", "ragged", "wrong-shape"],
)
def test_channel_rejects_bad_kraus_stack(kraus):
    with pytest.raises(ValueError):
        QuantumChannel(kraus=kraus, d_in=2, d_out=2)


# --- apply / choi / distance -------------------------------------------------

def test_identity_channel_choi_eigenvalues():
    ch = QuantumChannel(kraus=(np.eye(2),), d_in=2, d_out=2)
    w = np.linalg.eigvalsh(choi(ch))
    assert np.allclose(sorted(w), [0, 0, 0, 2], atol=1e-14)


def test_depolarizing_choi_is_maximally_mixed():
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    ]
    ch = QuantumChannel(kraus=tuple(p / 2 for p in paulis), d_in=2, d_out=2)
    assert np.allclose(choi(ch), np.eye(4) / 2, atol=1e-14)


def test_choi_trace_is_input_dim(rng):
    u = random_unitary(rng, 6)
    ch = kraus_from_unitary(u, np.array([1.0, 0, 0]))
    assert np.trace(choi(ch)).real == pytest.approx(2.0, abs=1e-12)


def test_apply_matches_conjugate_and_trace(rng):
    # two independent code paths for the same channel action
    for _ in range(5):
        u = random_unitary(rng, 6)
        anc = rng.normal(size=2) + 1j * rng.normal(size=2)
        anc /= np.linalg.norm(anc)
        ch = kraus_from_unitary(u, anc)
        rho = random_density(rng, 3)
        via_kraus = apply_channel(ch, rho)
        joint = u @ np.kron(rho, np.outer(anc, anc.conj())) @ u.conj().T
        via_trace = partial_trace(joint, (3, 2), "anc")
        assert np.max(np.abs(via_kraus - via_trace)) < 1e-10


def test_choi_respects_composition_via_apply(rng):
    # compare channel application through the Choi matrix against Kraus form
    ch = kraus_from_unitary(random_unitary(rng, 4), np.array([1.0, 0.0]))
    rho = random_density(rng, 2)
    j = choi(ch).reshape(2, 2, 2, 2)
    via_choi = np.einsum("ixjy,ij->xy", j, rho)
    assert np.allclose(via_choi, apply_channel(ch, rho), atol=1e-12)


def test_channel_invariants_validate(rng):
    ch = kraus_from_unitary(random_unitary(rng, 6), np.array([0, 1.0, 0]))
    assert ch.tp_defect() < 1e-12
    assert ch.cp_defect() < 1e-12


# --- joint-system channel design ---------------------------------------------

@pytest.mark.parametrize("sys_dim", [2, 3])
def test_joint_hamiltonian_uses_anharmonic_builder(sys_dim):
    # the system factor is the kept block of the mode diagonalized at its raw
    # margin, as in gate design; its position block drives and couples
    joint = JointSystem(sys_dim=sys_dim, anc_dim=2, anc_freq=1.3, coupling=0.15,
                        c1=0.02, c2=0.01)
    spec = compute_spectrum(0.02, 0.01, kept=sys_dim)
    q_sys = spec.kept_block(position_op(spec.cutoff_raw))
    h_anc = np.diag([0.0, 1.3]).astype(complex)
    expected = (
        np.kron(np.diag(spec.kept_energies), np.eye(2))
        + np.kron(np.eye(sys_dim), h_anc)
        + 0.15 * np.kron(q_sys, position_op(2))
    )
    assert np.array_equal(joint.hamiltonian(), expected)
    assert np.array_equal(joint.control_op(), np.kron(q_sys, np.eye(2)))
    alone = JointSystem(sys_dim=sys_dim, anc_dim=1, c1=0.02, c2=0.01).spectrum()
    assert np.max(np.abs(alone.energies - spec.kept_energies)) <= 1e-12


@pytest.mark.parametrize("anc_dim", [2, 3])
def test_qubit_design_harmonics_act(anc_dim):
    # a qubit system factor truncated at its own dimension commutes with Q,
    # which leaves every harmonic column of the joint design at zero
    joint = JointSystem(sys_dim=2, anc_dim=anc_dim, coupling=0.15, c1=0.02, c2=0.01)
    a = design_matrix(joint.spectrum(), 6.0, 2, control=joint.control_op())
    assert np.linalg.norm(a[:, 1:], axis=0).min() > 0.1


def test_joint_pure_cubic_tilt_warns():
    with pytest.warns(MetastableWarning):
        JointSystem(sys_dim=3, anc_dim=2, c1=0.05, c2=0.0).hamiltonian()


def test_trivial_ancilla_channel_matches_free_propagator():
    joint = JointSystem(sys_dim=3, anc_dim=1)
    pulse = ControlPulse(2.0, np.zeros(3))
    ch = dyson_channel(joint, pulse)
    assert len(ch.kraus) == 1
    assert ch.tp_defect() < 1e-10


@pytest.mark.parametrize("sys_dim", [2, 3])
def test_zero_pulse_channel_is_the_traced_free_gate(sys_dim):
    # with no drive the joint gate is exactly u0, so the design's Kraus map
    # and the unitary route give the same operators
    joint = JointSystem(sys_dim=sys_dim, anc_dim=2, coupling=0.15)
    spec = joint.spectrum()
    gate = spec.modes @ u0(spec, 2.0) @ spec.modes.conj().T
    ground = np.eye(2)[0]
    via_dyson = dyson_channel(joint, ControlPulse(2.0, np.zeros(3))).kraus
    assert np.array_equal(via_dyson, kraus_from_unitary(gate, ground).kraus)


@pytest.mark.parametrize("d_sys, d_anc", [(3, 2), (2, 3)])
def test_ancilla_trace_of_joint_unitaries_is_kraus_from_unitary(rng, d_sys, d_anc):
    # a stack of random 6×6 joint unitaries, the ancilla in a superposition
    # of all its levels: one call on the stack gives each unitary's operators
    # K_i = (I ⊗ <i|) U (I ⊗ |a>)
    gates = np.stack([random_unitary(rng, 6) for _ in range(4)])
    anc = rng.normal(size=d_anc) + 1j * rng.normal(size=d_anc)
    anc /= np.linalg.norm(anc)
    kraus = _trace_ancilla(gates, anc)
    assert kraus.shape == (4, d_anc, d_sys, d_sys)
    for u, ops in zip(gates, kraus):
        assert np.array_equal(ops, kraus_from_unitary(u, anc).kraus)
        for i, k in enumerate(ops):
            bra = np.kron(np.eye(d_sys), np.eye(d_anc)[i][None])
            assert np.max(np.abs(k - bra @ u @ np.kron(np.eye(d_sys), anc[:, None]))) <= 1e-14


def test_ancilla_trace_of_first_order_gates_is_their_ground_column():
    # the joint gates of the channel design are not unitary; from the ground
    # state, the stack's operators are the gates' column blocks U[(x, i), (y, 0)]
    joint = JointSystem(sys_dim=3, anc_dim=2, coupling=0.15)
    spec = joint.spectrum()
    a = design_matrix(spec, 2.0, 2, control=joint.control_op())
    gates = spec.to_fock(np.concatenate([u0(spec, 2.0)[None], a.T.reshape(-1, 6, 6)]))
    kraus = _trace_ancilla(gates, np.eye(2)[0])
    assert np.array_equal(kraus, gates.reshape(-1, 3, 2, 3, 2)[..., 0].swapaxes(-2, -3))
    for u, ops in zip(gates, kraus):
        assert np.array_equal(ops, _trace_ancilla(u, np.eye(2)[0]))


def test_zero_pulse_optimal_for_free_target():
    joint = JointSystem(sys_dim=3, anc_dim=1)
    target = choi(dyson_channel(joint, ControlPulse(2.0, np.zeros(5))))
    pulse, report = synthesize_channel(target, joint, 2.0, 2, lam=0.0)
    assert report.distance < 1e-6
    assert np.max(np.abs(pulse.coeffs)) < 1e-6


@pytest.mark.parametrize("sys_dim, n_harmonics", [(3, 2), (2, 1)])
def test_planted_channel_recovery(sys_dim, n_harmonics):
    # horizon 6 keeps the affine map well conditioned (drive harmonics clear
    # of the level spacings), so Gauss–Newton recovers the planted channel
    joint = JointSystem(sys_dim=sys_dim, anc_dim=2, anc_freq=1.3, coupling=0.15,
                        c1=0.02, c2=0.01)
    rng = np.random.default_rng(11)
    beta_star = rng.normal(size=2 * n_harmonics + 1)
    beta_star *= 0.03 / np.linalg.norm(beta_star)
    target = choi(dyson_channel(joint, ControlPulse(6.0, beta_star)))
    pulse, report = synthesize_channel(target, joint, 6.0, n_harmonics, lam=0.0)
    assert report.converged
    assert report.distance <= 1e-6
    assert np.linalg.norm(pulse.coeffs - beta_star) < 1e-6


def test_large_penalty_freezes_pulse():
    joint = JointSystem(sys_dim=2, anc_dim=2)
    target = choi(dyson_channel(joint, ControlPulse(1.5, np.array([0.2, 0.1, 0.0]))))
    pulse, report = synthesize_channel(target, joint, 1.5, 1, lam=1e6)
    assert np.max(np.abs(pulse.coeffs)) < 1e-5


def test_synthesis_report_defects_visible():
    joint = JointSystem(sys_dim=2, anc_dim=2, coupling=0.2)
    target = choi(dyson_channel(joint, ControlPulse(1.5, np.array([0.3, 0.0, 0.0]))))
    _, report = synthesize_channel(target, joint, 1.5, 1, lam=0.0)
    assert report.tp_defect >= 0.0
    assert report.cp_defect >= 0.0
    assert report.n_evaluations > 0


def test_synthesis_diagonalizes_and_builds_design_once(monkeypatch):
    # the report channel reuses the solve's spectrum and design matrix
    from susygate import channel, dyson

    joint = JointSystem(sys_dim=2, anc_dim=2, coupling=0.2)
    target = choi(dyson_channel(joint, ControlPulse(1.5, np.array([0.3, 0.0, 0.0]))))
    calls = {"diagonalize": 0, "design_matrix": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(channel, "diagonalize")
    counted(dyson, "design_matrix")
    pulse, report = synthesize_channel(target, joint, 1.5, 1, lam=0.0)
    assert calls == {"diagonalize": 1, "design_matrix": 1}
    monkeypatch.undo()
    assert report.distance == float(np.linalg.norm(choi(dyson_channel(joint, pulse)) - target))


@pytest.mark.parametrize(
    "kwargs",
    [{"anc_freq": float("nan")}, {"coupling": float("inf")}, {"c1": float("nan")}],
)
def test_joint_system_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        JointSystem(sys_dim=2, anc_dim=2, **kwargs).hamiltonian()


@pytest.mark.parametrize(
    "horizon, n_harmonics, lam",
    [(1.5, 1, float("nan")), (1.5, 1, float("inf")), (0.0, 1, 0.0), (float("nan"), 1, 0.0),
     (1.5, -1, 0.0)],
)
def test_synthesis_rejects_bad_horizon_and_multiplier(horizon, n_harmonics, lam):
    joint = JointSystem(sys_dim=2, anc_dim=2)
    target = choi(dyson_channel(joint, ControlPulse(1.5, np.zeros(3))))
    with pytest.raises(ValueError):
        synthesize_channel(target, joint, horizon, n_harmonics, lam=lam)
