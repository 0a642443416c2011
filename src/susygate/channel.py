"""TPCP maps from joint unitaries: partial trace, Kraus/Choi forms, and
pulse design against a target channel.

A channel here arises by evolving system ⊗ ancilla jointly and tracing out
the ancilla (the unobserved sector).  The ancilla stands in for whatever
degrees of freedom are averaged over: it carries a free diagonal
Hamiltonian diag(0, ω_a, 2ω_a, ...) and couples to the system through
g·(Q ⊗ Q_anc), with Q_anc the ancilla's position-like tridiagonal
operator; the drive b(t) acts on the system position only (Q ⊗ I).

Channel comparison uses the Frobenius distance between Choi matrices.
Because the first-order gate is affine in the drive coefficients, so is
each Kraus operator, and the Choi matrix is exactly quadratic in them; the
design routine is therefore a small nonlinear least-squares problem with a
closed-form Jacobian, solved by damped Gauss–Newton.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dyson
from .dyson import ControlPulse
from .fock import is_psd, is_unitary, position_op
from .solver import gauss_newton
from .spectrum import Spectrum, build_h0, diagonalize


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus form of a completely positive map: one (r, d_out, d_in) stack."""

    kraus: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        ops = np.asarray(self.kraus, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] < 1 or ops.shape[1:] != (self.d_out, self.d_in):
            raise ValueError(
                f"Kraus stack shape {ops.shape} != (r >= 1, {self.d_out}, {self.d_in})"
            )
        object.__setattr__(self, "kraus", ops)

    def tp_defect(self) -> float:
        """max|sum K†K − I|; zero for a trace-preserving map."""
        s = sum(k.conj().T @ k for k in self.kraus)
        return float(np.max(np.abs(s - np.eye(self.d_in))))

    def cp_defect(self) -> float:
        """max(0, −min eigenvalue of the Choi matrix); zero for a CP map."""
        w = np.linalg.eigvalsh(choi(self))
        return float(max(0.0, -w.min()))


def partial_trace(rho: np.ndarray, dims: tuple[int, int], which: str = "anc") -> np.ndarray:
    """Trace out one tensor factor of a (d_sys·d_anc)-dimensional operator.

    ``which="anc"`` keeps the system factor, ``which="sys"`` keeps the
    ancilla.  The operation is total (any square matrix of the right size);
    a warning is emitted if the input is far from a density matrix.
    """
    d_sys, d_anc = dims
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d_sys * d_anc, d_sys * d_anc):
        raise ValueError(f"shape {rho.shape} does not factor as {d_sys}x{d_anc}")
    _warn_if_not_state(rho)
    r4 = rho.reshape(d_sys, d_anc, d_sys, d_anc)
    if which == "anc":
        return np.einsum("iaja->ij", r4)
    if which == "sys":
        return np.einsum("iaib->ab", r4)
    raise ValueError(f"which must be 'sys' or 'anc', got {which!r}")


def _warn_if_not_state(rho, tol=1e-6):
    herm = np.max(np.abs(rho - rho.conj().T))
    tr = abs(np.trace(rho) - 1.0)
    if herm > tol or tr > tol or not is_psd(rho, tol):
        warnings.warn(
            f"input is not a normalized state (hermiticity defect {herm:.2e}, "
            f"trace defect {tr:.2e}); tracing anyway",
            stacklevel=3,
        )


def kraus_from_unitary(u: np.ndarray, anc_state: np.ndarray) -> QuantumChannel:
    """Channel obtained by conjugating with a joint unitary and tracing the
    ancilla prepared in ``anc_state``: K_i = (I ⊗ <i|) U (I ⊗ |anc>).  The
    ancilla dimension is the length of ``anc_state``."""
    u = np.asarray(u, dtype=complex)
    anc_state = np.asarray(anc_state, dtype=complex).reshape(-1)
    d_anc = anc_state.size
    if abs(np.linalg.norm(anc_state) - 1.0) > 1e-8:
        raise ValueError("ancilla state must be normalized")
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % d_anc:
        raise ValueError(f"operator shape {u.shape} does not factor over d_anc={d_anc}")
    if not is_unitary(u, tol=1e-8):
        raise ValueError("joint operator is not unitary to 1e-08")
    d_sys = u.shape[0] // d_anc
    ops = np.einsum("xiyb,b->ixy", u.reshape(d_sys, d_anc, d_sys, d_anc), anc_state)
    return QuantumChannel(kraus=ops, d_in=d_sys, d_out=d_sys)


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

    The system factor is the driven anharmonic mode, ``build_h0`` truncated
    at the gate dimension itself: the joint model is treated as a concrete
    finite system, not as a further truncation of something larger.
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

    def hamiltonian(self) -> np.ndarray:
        h_sys = build_h0(self.c1, self.c2, self.sys_dim)
        h_anc = np.diag(self.anc_freq * np.arange(self.anc_dim)).astype(complex)
        h = np.kron(h_sys, np.eye(self.anc_dim)) + np.kron(np.eye(self.sys_dim), h_anc)
        if self.anc_dim > 1:
            h = h + self.coupling * np.kron(position_op(self.sys_dim), position_op(self.anc_dim))
        return h

    def control_op(self) -> np.ndarray:
        return np.kron(position_op(self.sys_dim), np.eye(self.anc_dim))

    def spectrum(self) -> Spectrum:
        # Keep every level: the joint model is exact at its own dimension.
        return diagonalize(self.hamiltonian(), kept=self.dim, c1=self.c1, c2=self.c2)



def _kraus_stack(joint: JointSystem, spec: Spectrum, gates: np.ndarray) -> np.ndarray:
    """Kraus stacks K_i = (I ⊗ <i|) U (I ⊗ |0>), shape (..., anc_dim, d, d), of
    joint gates U, (..., dim, dim) in the eigenbasis, after ``Spectrum.to_fock``.
    First-order gates are only approximately unitary; no unitarity is checked."""
    d, a = joint.sys_dim, joint.anc_dim
    u_fock = spec.to_fock(gates)
    u4 = u_fock.reshape(*u_fock.shape[:-2], d, a, d, a)
    return u4[..., 0].swapaxes(-2, -3)


def dyson_channel(joint: JointSystem, pulse: ControlPulse) -> QuantumChannel:
    """Channel realized by the first-order joint gate followed by tracing
    out the ancilla from its ground state.  The gate is only approximately
    unitary, so the channel carries a TP defect of the same order; inspect
    it via ``tp_defect`` rather than expecting exact trace preservation."""
    spec = joint.spectrum()
    u_eig = dyson.dyson_gate(spec, pulse, control=joint.control_op())
    return QuantumChannel(_kraus_stack(joint, spec, u_eig), joint.sys_dim, joint.sys_dim)


@dataclass
class ChannelSynthesisReport:
    pulse: ControlPulse
    distance: float
    tp_defect: float
    cp_defect: float
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
    factors = _kraus_columns(_kraus_stack(
        joint, spec, np.concatenate([u0[None], a.T.reshape(-1, dim, dim)])
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
    ch = QuantumChannel(_kraus_stack(joint, spec, u0 + (a @ beta).reshape(dim, dim)), d, d)
    report = ChannelSynthesisReport(
        pulse=pulse,
        distance=float(np.linalg.norm(choi(ch) - target_choi)),
        tp_defect=ch.tp_defect(),
        cp_defect=ch.cp_defect(),
        energy=pulse.energy(),
        multiplier=float(lam),
        converged=converged,
        n_evaluations=evals,
    )
    return pulse, report
