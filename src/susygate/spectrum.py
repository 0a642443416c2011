"""Eigen-decomposition of the anharmonic Hamiltonian
H0 = (P² + Q²)/2 + c1·Q³ + c2·Q⁴ on a truncated Fock space.

Gate design runs on the exact (dense) diagonalization of the truncation.
Low-order Rayleigh-Schrödinger energies are provided beside it as an
independent check: they are computed from Q³/Q⁴ matrix elements, never from
hard-coded coefficient tables, so closed forms can serve as oracles in tests.

A diagonalization keeps two cutoffs: ``cutoff_raw`` is the matrix dimension
actually diagonalized, ``cutoff_kept`` the block later used for gate design.
The default raw dimension is max(4·kept, 32); the anharmonic terms couple at
most ±4 Fock levels, so a 4x margin makes kept-block truncation error
negligible for the coefficient sizes this package targets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fock import is_unitary, momentum_op, position_op, require_hermitian
from .serialize import float_array, matrix_from_json, matrix_to_json, scalar


class MetastableWarning(UserWarning):
    """The requested potential is not bounded below; the truncated spectrum
    is still returned (it approximates the metastable well)."""


PERTURBATIVE_COEFF_MAX = 0.1  # validity guard for the perturbative energies


def default_raw_dim(kept: int) -> int:
    return max(4 * kept, 32)


def build_h0(c1: float, c2: float, cutoff: int) -> np.ndarray:
    """Assemble (P² + Q²)/2 + c1·Q³ + c2·Q⁴ at the given truncation."""
    if not (np.isfinite(c1) and np.isfinite(c2)):
        raise ValueError(f"c1 and c2 must be finite, got {c1!r}, {c2!r}")
    if c2 < 0 or (c1 != 0 and c2 == 0):
        warnings.warn(
            "potential unbounded below (c2 < 0 or pure cubic tilt); "
            "treating the truncated well as metastable",
            MetastableWarning,
            stacklevel=2,
        )
    q = position_op(cutoff)
    p = momentum_op(cutoff)
    q2 = q @ q
    return 0.5 * (p @ p + q2) + c1 * (q2 @ q) + c2 * (q2 @ q2)


@dataclass(frozen=True)
class Spectrum:
    """Eigen-data of a diagonalized Hamiltonian with cutoff provenance.

    ``energies`` is the full ascending spectrum of the raw truncation;
    ``modes`` holds the eigenvectors as columns (Fock basis, unitary).
    ``kept_energies`` is the block used downstream for gate design.
    """

    energies: np.ndarray
    modes: np.ndarray
    cutoff_raw: int
    cutoff_kept: int
    c1: float
    c2: float

    @property
    def kept_energies(self) -> np.ndarray:
        return self.energies[: self.cutoff_kept]

    def kept_block(self, op: np.ndarray) -> np.ndarray:
        """Kept block, in the eigenbasis, of a Fock-basis ``(raw, raw)`` operator."""
        return (self.modes.conj().T @ op @ self.modes)[: self.cutoff_kept, : self.cutoff_kept]

    def to_fock(self, ops: np.ndarray) -> np.ndarray:
        """A ``(..., raw, raw)`` stack of eigenbasis operators in the Fock basis."""
        return self.modes @ ops @ self.modes.conj().T

    def to_json(self) -> dict:
        return {
            **vars(self),
            "energies": [float(e) for e in self.energies],
            "modes": matrix_to_json(self.modes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Spectrum":
        spec = cls(
            energies=float_array(obj["energies"], "energies"),
            modes=matrix_from_json(obj["modes"]),
            cutoff_raw=scalar(obj, "cutoff_raw", int),
            cutoff_kept=scalar(obj, "cutoff_kept", int),
            c1=scalar(obj, "c1", float),
            c2=scalar(obj, "c2", float),
        )
        if spec.energies.shape != (spec.cutoff_raw,):
            raise ValueError("energies length != cutoff_raw")
        if spec.modes.shape != (spec.cutoff_raw, spec.cutoff_raw):
            raise ValueError("modes must be square of size cutoff_raw")
        if not (1 <= spec.cutoff_kept <= spec.cutoff_raw):
            raise ValueError("cutoff_kept must lie in [1, cutoff_raw]")
        if np.any(np.diff(spec.energies) < -1e-8):
            raise ValueError("energies not ascending")
        if not is_unitary(spec.modes):
            raise ValueError("modes not unitary within tolerance")
        return spec


def _fix_phases(v: np.ndarray) -> np.ndarray:
    # Make the largest-magnitude component of each column real positive so
    # eigenvectors (hence gates) are reproducible across LAPACK builds.
    idx = np.argmax(np.abs(v), axis=0)
    piv = v[idx, np.arange(v.shape[1])]
    phase = piv / np.abs(piv)
    return v * phase.conj()


def diagonalize(h: np.ndarray, kept: int, c1: float = 0.0, c2: float = 0.0) -> Spectrum:
    """Diagonalize a Hermitian matrix, keeping ``kept`` levels for design.

    Rejects non-Hermitian input; eigenvector phases follow the
    largest-component-real-positive convention.
    """
    h = require_hermitian(h, "Hamiltonian")
    m = h.shape[0]
    if not (1 <= kept <= m):
        raise ValueError(f"kept={kept} outside [1, {m}]")
    w, v = np.linalg.eigh(h)
    return Spectrum(w, _fix_phases(v), m, kept, float(c1), float(c2))


def compute_spectrum(c1: float, c2: float, kept: int, raw_dim: int | None = None) -> Spectrum:
    """Diagonalize ``build_h0(c1, c2, raw)``, raw = ``raw_dim`` or
    ``default_raw_dim(kept)``: the modes are those of the H0 (c1, c2) rebuild."""
    raw = default_raw_dim(kept) if raw_dim is None else int(raw_dim)
    if raw < kept:
        raise ValueError("raw_dim must be >= kept")
    if raw < 4:
        raise ValueError("raw_dim must be >= 4 (quartic term needs reach)")
    return diagonalize(build_h0(c1, c2, raw), kept, c1, c2)


def perturbative_energies(c1: float, c2: float, n_max: int) -> np.ndarray:
    """Rayleigh-Schrödinger energies E_n for n = 0..n_max.

    First order in c2 plus second order in c1:

        E_n = (n + 1/2) + c2·<n|Q⁴|n> + c1²·sum_{m≠n} |<m|Q³|n>|²/(n−m)

    Mixed c1·c2 and all higher orders are excluded.  Both corrections are
    evaluated from operator matrices truncated at max(n_max + 8, 12)
    levels, which clears the ±3/±4 level reach of the matrix elements.
    """
    if not (abs(c1) <= PERTURBATIVE_COEFF_MAX and abs(c2) <= PERTURBATIVE_COEFF_MAX):
        raise ValueError(
            f"|c1|, |c2| must be <= {PERTURBATIVE_COEFF_MAX} for the "
            "perturbative energies"
        )
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    m = max(n_max + 8, 12)
    q = position_op(m)
    q2 = q @ q
    q3 = q2 @ q
    q4 = q2 @ q2
    ns = np.arange(n_max + 1)
    e = ns + 0.5
    e = e + c2 * np.real(np.diagonal(q4))[: n_max + 1]
    second = np.zeros(n_max + 1)
    for n in ns:
        amps = np.abs(q3[:, n]) ** 2
        denom = n - np.arange(m, dtype=float)
        denom[n] = np.inf
        second[n] = np.sum(amps / denom)
    return e + c1**2 * second
