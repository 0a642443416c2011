"""Supersymmetric quantum-mechanics toys: control coefficients from vacuum
expectation values, the effective polynomial gauge Hamiltonian, partner
Hamiltonians from a superpotential, and the paired-spectrum index.

Partner pair convention (fixed here, with A = (iP + W'(Q))/sqrt(2)):

    H∓ = (P² + W'(Q)²)/2 ∓ W''(Q)/2,   H− = A†A,   H+ = AA†.

Both partners are positive semidefinite; their positive spectra coincide
(A intertwines them), and only zero-energy states can be unpaired.  The
index is computed directly from the spectra of the truncated pair (no
heat-kernel regularization), with the zero threshold exposed and a 10x
sensitivity scan reported alongside.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CutoffError
from .fock import momentum_op, position_op


@dataclass(frozen=True)
class VevControl:
    """Trilinear coupling tensor contracted with two expectation vectors."""

    d2: np.ndarray      # shape (R, S, K)
    p_vev: np.ndarray   # shape (R,)
    q_vev: np.ndarray   # shape (K,)

    def __post_init__(self):
        d2 = np.asarray(self.d2, dtype=float)
        p = np.asarray(self.p_vev, dtype=float).reshape(-1)
        q = np.asarray(self.q_vev, dtype=float).reshape(-1)
        if d2.ndim != 3:
            raise ValueError("coupling tensor must have three indices")
        if d2.shape[0] != p.size or d2.shape[2] != q.size:
            raise ValueError(
                f"tensor extents {d2.shape} inconsistent with vev lengths "
                f"{p.size}, {q.size}"
            )
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "p_vev", p)
        object.__setattr__(self, "q_vev", q)


def vev_control(v: VevControl) -> np.ndarray:
    """a(s) = sum_{r,k} D2[r,s,k] <p_r> <q_k>; bilinear in the vevs."""
    return np.einsum("rsk,r,k->s", v.d2, v.p_vev, v.q_vev)


def _mode_ops(extent: int, cutoff: int) -> tuple[list, list]:
    q1 = position_op(cutoff)
    p1 = momentum_op(cutoff)
    qs, ps = [], []
    for r in range(extent):
        factors_q = [np.eye(cutoff, dtype=complex)] * extent
        factors_p = [np.eye(cutoff, dtype=complex)] * extent
        factors_q[r] = q1
        factors_p[r] = p1
        qk, pk = factors_q[0], factors_p[0]
        for f_q, f_p in zip(factors_q[1:], factors_p[1:]):
            qk = np.kron(qk, f_q)
            pk = np.kron(pk, f_p)
        qs.append(qk)
        ps.append(pk)
    return qs, ps


def effective_hamiltonian(
    quad_p: np.ndarray,
    quad_q: np.ndarray,
    cubic_q: np.ndarray | None = None,
    quartic_q: np.ndarray | None = None,
    linear_q: np.ndarray | None = None,
    cutoff: int = 16,
) -> np.ndarray:
    """Polynomial Hamiltonian sum C1_rs P_r P_s + C2_rs Q_r Q_s
    + C3_rsk Q_r Q_s Q_k + C4_rskm Q..Q + a_s Q_s on the tensor-product
    truncated space.

    Supports one or two modes (tensor dimensions grow combinatorially
    beyond that).  For a single mode with C1 = C2 = 1/2 this reproduces the
    anharmonic builder in :mod:`susygate.spectrum` plus the linear drive
    term, entry for entry.
    """
    quad_p = np.asarray(quad_p, dtype=float)
    quad_q = np.asarray(quad_q, dtype=float)
    if quad_p.ndim != 2 or quad_p.shape[0] != quad_p.shape[1]:
        raise ValueError("quadratic momentum coefficients must be square")
    extent = quad_p.shape[0]
    if quad_q.shape != (extent, extent):
        raise ValueError("quadratic position coefficients extent mismatch")
    if extent > 2:
        raise ValueError("at most two modes are supported")
    for name, arr, nidx in (
        ("cubic_q", cubic_q, 3),
        ("quartic_q", quartic_q, 4),
        ("linear_q", linear_q, 1),
    ):
        if arr is not None and np.asarray(arr).shape != (extent,) * nidx:
            raise ValueError(f"{name} extent mismatch")

    qs, ps = _mode_ops(extent, cutoff)
    dim = cutoff**extent
    h = np.zeros((dim, dim), dtype=complex)
    # Term order mirrors the single-mode builder so the extent-1 path is
    # bit-identical to build_h0 + a·Q.
    for r, s in product(range(extent), repeat=2):
        if quad_p[r, s]:
            h += quad_p[r, s] * (ps[r] @ ps[s])
        if quad_q[r, s]:
            h += quad_q[r, s] * (qs[r] @ qs[s])
    if cubic_q is not None:
        cubic_q = np.asarray(cubic_q, dtype=float)
        for r, s, k in product(range(extent), repeat=3):
            if cubic_q[r, s, k]:
                h += cubic_q[r, s, k] * ((qs[r] @ qs[s]) @ qs[k])
    if quartic_q is not None:
        quartic_q = np.asarray(quartic_q, dtype=float)
        for r, s, k, m in product(range(extent), repeat=4):
            if quartic_q[r, s, k, m]:
                h += quartic_q[r, s, k, m] * ((qs[r] @ qs[s]) @ (qs[k] @ qs[m]))
    if linear_q is not None:
        linear_q = np.asarray(linear_q, dtype=float)
        for s in range(extent):
            if linear_q[s]:
                h += linear_q[s] * qs[s]
    return h


@dataclass(frozen=True)
class SusyPair:
    """Partner Hamiltonians generated by a polynomial superpotential."""

    w_coeffs: np.ndarray  # ascending powers, w[j] multiplies q^j
    cutoff: int
    h_plus: np.ndarray
    h_minus: np.ndarray


def _poly_of_matrix(coeffs: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = coeffs[-1] * np.eye(q.shape[0], dtype=complex)
    for c in coeffs[-2::-1]:
        out = out @ q + c * np.eye(q.shape[0], dtype=complex)
    return out


def _pair_at(w_coeffs: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    q = position_op(cutoff)
    p = momentum_op(cutoff)
    d1 = np.polynomial.polynomial.polyder(w_coeffs)
    d2 = np.polynomial.polynomial.polyder(w_coeffs, 2)
    wp = _poly_of_matrix(d1, q)
    wpp = _poly_of_matrix(np.atleast_1d(d2), q)
    kinetic = 0.5 * (p @ p + wp @ wp)
    return kinetic + 0.5 * wpp, kinetic - 0.5 * wpp  # (h_plus, h_minus)


def susy_pair(w_coeffs, cutoff: int) -> SusyPair:
    """Build the partner pair and verify that the lowest levels are
    cutoff-converged (compared against a 1.5× larger truncation)."""
    w = np.asarray(w_coeffs, dtype=float).reshape(-1)
    if w.size < 3:
        raise ValueError("superpotential degree must be >= 2")
    if cutoff < 8:
        raise ValueError("cutoff too small for a meaningful pair")
    h_plus, h_minus = _pair_at(w, cutoff)
    bigger = int(np.ceil(1.5 * cutoff))
    hp2, hm2 = _pair_at(w, bigger)
    n_check = 6
    for h_small, h_big, name in ((h_plus, hp2, "+"), (h_minus, hm2, "-")):
        e_small = np.linalg.eigvalsh(h_small)[:n_check]
        e_big = np.linalg.eigvalsh(h_big)[:n_check]
        drift = float(np.max(np.abs(e_small - e_big)))
        if drift >= 1e-6:
            raise CutoffError(
                f"sector {name}: lowest-{n_check} levels drift {drift:.2e} "
                f"between cutoffs {cutoff} and {bigger}; raise the cutoff"
            )
    return SusyPair(w_coeffs=w, cutoff=cutoff, h_plus=h_plus, h_minus=h_minus)


@dataclass
class WittenIndexReport:
    """Zero-mode count difference plus the vacuum-energy classification."""

    index: int
    unbroken: bool
    min_energy: float
    zero_tol: float
    index_tol_down: int  # recomputed at zero_tol / 10
    index_tol_up: int    # recomputed at zero_tol * 10
    ambiguous: bool

    @property
    def label(self) -> str:
        return "unbroken" if self.unbroken else "broken"

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "susy": self.label,
            "min_energy": self.min_energy,
            "zero_tol": self.zero_tol,
            "index_tol_down": self.index_tol_down,
            "index_tol_up": self.index_tol_up,
            "ambiguous": self.ambiguous,
        }


def witten_index(pair: SusyPair, zero_tol: float = 1e-6) -> WittenIndexReport:
    """Count zero modes of the pair: index = #(H− < tol) − #(H+ < tol).

    Supersymmetry is labeled unbroken iff the index is nonzero or any
    zero-energy state exists (vacuum-energy criterion).  Eigenvalues inside
    [tol/10, tol·10] trigger an ambiguity warning since the count then
    depends on the threshold choice.
    """
    if zero_tol <= 0:
        raise ValueError("zero_tol must be positive")
    ev_minus = np.linalg.eigvalsh(pair.h_minus)
    ev_plus = np.linalg.eigvalsh(pair.h_plus)

    def count(tol):
        return int(np.sum(ev_minus < tol)) - int(np.sum(ev_plus < tol))

    both = np.concatenate([ev_minus, ev_plus])
    ambiguous = bool(np.any((both >= zero_tol / 10.0) & (both < zero_tol * 10.0)))
    if ambiguous:
        warnings.warn(
            f"eigenvalue(s) within [{zero_tol/10:.1e}, {zero_tol*10:.1e}]: "
            "index depends on the zero threshold",
            stacklevel=2,
        )
    index = count(zero_tol)
    min_energy = float(both.min())
    return WittenIndexReport(
        index=index,
        unbroken=bool(index != 0 or min_energy < zero_tol),
        min_energy=min_energy,
        zero_tol=float(zero_tol),
        index_tol_down=count(zero_tol / 10.0),
        index_tol_up=count(zero_tol * 10.0),
        ambiguous=ambiguous,
    )
