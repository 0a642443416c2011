"""Supersymmetric quantum-mechanics toys: control coefficients from vacuum
expectation values, partner Hamiltonians from a superpotential, and the
paired-spectrum index.

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

import numpy as np

from . import fock
from .errors import CutoffError


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
        if not all(np.isfinite(x).all() for x in (d2, p, q)):
            raise ValueError("coupling tensor and vevs must be finite")
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "p_vev", p)
        object.__setattr__(self, "q_vev", q)


def vev_control(v: VevControl) -> np.ndarray:
    """a(s) = sum_{r,k} D2[r,s,k] <p_r> <q_k>; bilinear in the vevs."""
    return np.einsum("rsk,r,k->s", v.d2, v.p_vev, v.q_vev)


@dataclass(frozen=True)
class SusyPair:
    """Partner Hamiltonians generated by a polynomial superpotential, with
    their ascending spectra from the cutoff check."""

    h_plus: np.ndarray
    h_minus: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray


def _poly_of_matrix(coeffs: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = coeffs[-1] * np.eye(q.shape[0])
    for c in coeffs[-2::-1]:
        out = out @ q + c * np.eye(q.shape[0])
    return out


def _pair_at(w_coeffs: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    # Q and P² are real in the Fock basis, so the pair is real symmetric
    q = fock.position_op(cutoff).real
    p = fock.momentum_op(cutoff)
    d1 = np.polynomial.polynomial.polyder(w_coeffs)
    d2 = np.polynomial.polynomial.polyder(w_coeffs, 2)
    wp = _poly_of_matrix(d1, q)
    wpp = _poly_of_matrix(np.atleast_1d(d2), q)
    kinetic = 0.5 * ((p @ p).real + wp @ wp)
    return kinetic + 0.5 * wpp, kinetic - 0.5 * wpp  # (h_plus, h_minus)


def susy_pair(w_coeffs, cutoff: int) -> SusyPair:
    """Build the partner pair of W(q) = Σ_j w_coeffs[j]·q^j and verify that
    its lowest levels are cutoff-converged (compared against a 1.5× larger
    truncation).  The partners' spectra from that check are kept on the pair.  That check's
    ⌈1.5·cutoff⌉ levels must not exceed ``fock.MAX_CUTOFF``, which bounds the
    cutoff by 2730; a larger one is refused before anything is built."""
    w = np.asarray(w_coeffs, dtype=float).reshape(-1)
    if w.size < 3:
        raise ValueError("superpotential degree must be >= 2")
    if not np.isfinite(w).all():
        raise ValueError("superpotential coefficients must be finite")
    if cutoff < 8:
        raise ValueError("cutoff too small for a meaningful pair")
    if cutoff > (limit := 2 * fock.MAX_CUTOFF // 3):  # largest c with ⌈1.5·c⌉ ≤ MAX_CUTOFF
        raise ValueError(f"cutoff {cutoff} exceeds the limit of {limit}")
    h_plus, h_minus = _pair_at(w, cutoff)
    bigger = int(np.ceil(1.5 * cutoff))
    hp2, hm2 = _pair_at(w, bigger)
    n_check = 6
    e_plus, e_minus = np.linalg.eigvalsh(h_plus), np.linalg.eigvalsh(h_minus)
    for e_small, h_big, name in ((e_plus, hp2, "+"), (e_minus, hm2, "-")):
        e_big = np.linalg.eigvalsh(h_big)[:n_check]
        drift = float(np.max(np.abs(e_small[:n_check] - e_big)))
        if drift >= 1e-6:
            raise CutoffError(
                f"sector {name}: lowest-{n_check} levels drift {drift:.2e} "
                f"between cutoffs {cutoff} and {bigger}; raise the cutoff"
            )
    return SusyPair(h_plus=h_plus, h_minus=h_minus, e_plus=e_plus, e_minus=e_minus)


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
    """Count zero modes of the pair: index = #(H− < tol) − #(H+ < tol),
    from the spectra that :func:`susy_pair` kept.

    Supersymmetry is labeled unbroken iff the index is nonzero or any
    zero-energy state exists (vacuum-energy criterion).  Eigenvalues inside
    [tol/10, tol·10] trigger an ambiguity warning since the count then
    depends on the threshold choice.
    """
    if not 0 < zero_tol < np.inf:
        raise ValueError("zero_tol must be positive and finite")

    def count(tol):
        return int(np.sum(pair.e_minus < tol)) - int(np.sum(pair.e_plus < tol))

    both = np.concatenate([pair.e_minus, pair.e_plus])
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
