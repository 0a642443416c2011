"""TPCP maps from joint unitaries: partial trace, Kraus/Choi forms, and
pulse design against a target channel.

A channel here arises by evolving system ⊗ ancilla jointly and tracing out
the ancilla (the unobserved sector).  The ancilla stands in for whatever
degrees of freedom are averaged over: it carries a free diagonal
Hamiltonian diag(0, ω_a, 2ω_a, ...) and couples to the system through
g·(Q ⊗ Q_anc), with Q the kept block of the mode's position (see
:class:`JointSystem`) and Q_anc the ancilla's position-like tridiagonal
operator; the drive b(t) acts on the system position only (Q ⊗ I).

Channel comparison uses the Frobenius distance between Choi matrices.
Because the first-order gate is affine in the drive coefficients, so is
each Kraus operator, and the Choi matrix is exactly quadratic in them; the
design routine is therefore a small nonlinear least-squares problem with a
closed-form Jacobian, solved by damped Gauss–Newton.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import dyson
from .dyson import ControlPulse
from .filter_fit import _STATE_FAULTS, _state_faults
from .fock import is_unitary, position_op
from .solver import gauss_newton
from .spectrum import Spectrum, compute_spectrum, diagonalize


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus form of a map: one (r, d_out, d_in) stack, whose shape gives the
    dimensions.  A map in Kraus form is completely positive by construction."""

    kraus: np.ndarray
    d_out: int = field(init=False)
    d_in: int = field(init=False)

    def __post_init__(self):
        ops = np.asarray(self.kraus, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] < 1:
            raise ValueError(f"Kraus stack shape {ops.shape} != (r >= 1, d_out, d_in)")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "d_out", ops.shape[1])
        object.__setattr__(self, "d_in", ops.shape[2])

    def tp_defect(self) -> float:
        """max|sum K†K − I|; zero for a trace-preserving map."""
        s = sum(k.conj().T @ k for k in self.kraus)
        return float(np.max(np.abs(s - np.eye(self.d_in))))


def partial_trace(rho: np.ndarray, dims: tuple[int, int], which: str = "anc") -> np.ndarray:
    """Trace out one tensor factor of a (d_sys·d_anc)-dimensional operator.

    ``which="anc"`` keeps the system factor, ``which="sys"`` keeps the
    ancilla.  The operation is total (any square matrix of the right size);
    a warning names the first fault if the input fails the state test of
    trajectories (``filter_fit._state_faults``: Hermitian and trace 1 within
    1e-8, no eigenvalue below −1e-6; a NaN entry fails it).
    """
    d_sys, d_anc = dims
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d_sys * d_anc, d_sys * d_anc):
        raise ValueError(f"shape {rho.shape} does not factor as {d_sys}x{d_anc}")
    if (fault := _state_faults(rho)[0]) < 3:
        warnings.warn(f"input is not a normalized state ({_STATE_FAULTS[fault]}); tracing anyway",
                      stacklevel=2)
    r4 = rho.reshape(d_sys, d_anc, d_sys, d_anc)
    if which == "anc":
        return np.einsum("iaja->ij", r4)
    if which == "sys":
        return np.einsum("iaib->ab", r4)
    raise ValueError(f"which must be 'sys' or 'anc', got {which!r}")


def kraus_from_unitary(u: np.ndarray, anc_state: np.ndarray) -> QuantumChannel:
    """Channel obtained by conjugating with a joint unitary and tracing the
    ancilla prepared in ``anc_state``: K_i = (I ⊗ <i|) U (I ⊗ |anc>).  The
    ancilla dimension is the length of ``anc_state``."""
    u = np.asarray(u, dtype=complex)
    anc_state = np.asarray(anc_state, dtype=complex).reshape(-1)
    d_anc = anc_state.size
    if not abs(np.linalg.norm(anc_state) - 1.0) <= 1e-8:
        raise ValueError("ancilla state must be normalized")
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % d_anc:
        raise ValueError(f"operator shape {u.shape} does not factor over d_anc={d_anc}")
    if not is_unitary(u):
        raise ValueError("joint operator is not unitary to 1e-08")
    return QuantumChannel(_trace_ancilla(u, anc_state))


def _trace_ancilla(u: np.ndarray, anc_state: np.ndarray) -> np.ndarray:
    """Kraus stacks K_i = (I ⊗ <i|) U (I ⊗ |anc>), shape (..., d_anc, d, d), of
    joint operators U, shape (..., d·d_anc, d·d_anc).  Nothing is checked:
    first-order gates are only approximately unitary."""
    d_anc = anc_state.size
    d = u.shape[-1] // d_anc
    return np.einsum("...xiyb,b->...ixy", u.reshape(*u.shape[:-2], d, d_anc, d, d_anc), anc_state)


def apply_channel(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.d_in, ch.d_in):
        raise ValueError(f"state shape {rho.shape} != input dim {ch.d_in}")
    out = np.zeros((ch.d_out, ch.d_out), dtype=complex)
    for k in ch.kraus:
        out += k @ rho @ k.conj().T
    return out


def _kraus_columns(kraus: np.ndarray) -> np.ndarray:
    # (..., r, d_out, d_in) -> (..., d_in·d_out, r): column k is vec(K_k) over
    # the composite index (input i, output x), row-major, so Choi = C C†
    return kraus.swapaxes(-1, -2).reshape(*kraus.shape[:-2], -1).swapaxes(-1, -2)


def choi(ch: QuantumChannel) -> np.ndarray:
    """Choi matrix J = sum_ij |i><j| ⊗ Φ(|i><j|); trace d_in, PSD iff CP."""
    c = _kraus_columns(ch.kraus)
    return c @ c.conj().T


@dataclass(frozen=True)
class JointSystem:
    """System ⊗ ancilla model used for channel design.

    The system factor is the driven anharmonic mode as the gate path models
    it: ``compute_spectrum`` diagonalizes it at its raw margin, H_sys is the
    diagonal of the ``sys_dim`` lowest energies, and Q_sys, the kept block
    of Q, serves both the drive and the coupling.  (``build_h0`` truncated
    at ``sys_dim`` itself is wrong at its edge: at sys_dim = 2 it commutes
    with Q, and no harmonic of the drive acts.)
    """

    sys_dim: int
    anc_dim: int
    anc_freq: float = 1.3
    coupling: float = 0.1
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        if self.sys_dim < 2 or self.anc_dim < 1:
            raise ValueError("need sys_dim >= 2 and anc_dim >= 1")
        if not (np.isfinite(self.anc_freq) and np.isfinite(self.coupling)):
            raise ValueError("anc_freq and coupling must be finite")

    @property
    def dim(self) -> int:
        return self.sys_dim * self.anc_dim

    @cached_property
    def _system(self) -> tuple[np.ndarray, np.ndarray]:
        """H_sys and Q_sys in the eigenbasis of the mode's kept block,
        diagonalized once per instance."""
        spec = compute_spectrum(self.c1, self.c2, kept=self.sys_dim)
        return np.diag(spec.kept_energies), spec.kept_block(position_op(spec.cutoff_raw))

    def hamiltonian(self) -> np.ndarray:
        h_sys, q_sys = self._system
        h_anc = np.diag(self.anc_freq * np.arange(self.anc_dim)).astype(complex)
        h = np.kron(h_sys, np.eye(self.anc_dim)) + np.kron(np.eye(self.sys_dim), h_anc)
        if self.anc_dim > 1:
            h = h + self.coupling * np.kron(q_sys, position_op(self.anc_dim))
        return h

    def control_op(self) -> np.ndarray:
        return np.kron(self._system[1], np.eye(self.anc_dim))

    def spectrum(self) -> Spectrum:
        # Keep every level: the joint model is exact at its own dimension.
        return diagonalize(self.hamiltonian(), kept=self.dim, c1=self.c1, c2=self.c2)


def dyson_channel(joint: JointSystem, pulse: ControlPulse) -> QuantumChannel:
    """Channel realized by the first-order joint gate followed by tracing
    out the ancilla from its ground state.  It is completely positive by
    construction, but the gate is only approximately unitary, so the channel
    carries a TP defect of the same order; inspect it via ``tp_defect``."""
    spec = joint.spectrum()
    u_eig = dyson.dyson_gate(spec, pulse, control=joint.control_op())
    return QuantumChannel(_trace_ancilla(spec.to_fock(u_eig), np.eye(joint.anc_dim)[0]))


@dataclass
class ChannelSynthesisReport:
    pulse: ControlPulse
    distance: float
    tp_defect: float
    energy: float
    multiplier: float
    converged: bool
    n_evaluations: int

    def to_json(self) -> dict:
        return {**vars(self), "pulse": self.pulse.to_json()}


def synthesize_channel(
    target_choi: np.ndarray,
    joint: JointSystem,
    horizon: float,
    n_harmonics: int,
    lam: float = 0.0,
) -> tuple[ControlPulse, ChannelSynthesisReport]:
    """Damped Gauss–Newton on |Choi(β) − target|_F² + λ·energy(β) from β = 0,
    with the ancilla prepared in its ground state (as in :func:`dyson_channel`).

    The joint gate is affine in β, so the stacked Kraus vectors are too:
    Choi(β) = C C† with C = C0 + Σ_j β_j C_j, and dChoi/dβ_j = C_j C† + C C_j†
    exactly.  :func:`~susygate.solver.gauss_newton` takes minimum-norm
    least-squares steps, so β never moves along directions the Choi matrix
    ignores; it stops at a step below 1e-10·(1 + |β|), and ``converged`` is
    False only when its iteration cap ran out.
    """
    target_choi = np.asarray(target_choi, dtype=complex)
    d = joint.sys_dim
    if target_choi.shape != (d * d, d * d):
        raise ValueError(f"target Choi shape {target_choi.shape} != ({d*d}, {d*d})")
    if not 0 <= lam < np.inf:
        raise ValueError(f"energy multiplier must be finite and non-negative, got {lam!r}")
    if not (0 < horizon < np.inf and 0 <= n_harmonics <= dyson.MAX_HARMONICS):
        raise ValueError(f"need a finite horizon T > 0 and 0 <= K <= {dyson.MAX_HARMONICS}")
    spec = joint.spectrum()
    dim = joint.dim
    a = dyson.design_matrix(spec, horizon, n_harmonics, control=joint.control_op())
    u0 = dyson.u0(spec, horizon)
    ground = np.eye(joint.anc_dim)[0]
    factors = _kraus_columns(_trace_ancilla(
        spec.to_fock(np.concatenate([u0[None], a.T.reshape(-1, dim, dim)])), ground
    ))
    c0, cs = factors[0], factors[1:]
    n_params = 2 * n_harmonics + 1
    sqrt_w = np.sqrt(lam * dyson.energy_weights(horizon, n_harmonics))

    evals = 0

    def evaluate(beta):
        nonlocal evals
        evals += 1
        c = c0 + np.tensordot(beta, cs, axes=1)
        diff = (c @ c.conj().T - target_choi).reshape(-1)

        def jacobian():
            m = cs @ c.conj().T
            dchoi = (m + m.conj().transpose(0, 2, 1)).reshape(n_params, -1).T
            return np.vstack([dchoi.real, dchoi.imag, np.diag(sqrt_w)])

        return np.concatenate([diff.real, diff.imag, sqrt_w * beta]), jacobian

    beta, converged = gauss_newton(evaluate, np.zeros(n_params), 1e-10)

    pulse = ControlPulse(horizon, beta)
    ch = QuantumChannel(_trace_ancilla(spec.to_fock(u0 + (a @ beta).reshape(dim, dim)), ground))
    report = ChannelSynthesisReport(
        pulse=pulse,
        distance=float(np.linalg.norm(choi(ch) - target_choi)),
        tp_defect=ch.tp_defect(),
        energy=pulse.energy(),
        multiplier=float(lam),
        converged=converged,
        n_evaluations=evals,
    )
    return pulse, report
