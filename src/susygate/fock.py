"""Truncated Fock-space operators and a Z2-graded operator algebra.

Units are fixed to hbar = m = omega = 1 with Q = (a + a†)/sqrt(2) and
P = i(a† − a)/sqrt(2).  Canonical identities ([Q, P] = iI, diagonal number
operator) survive truncation only away from the edge of the matrix: they are
asserted on the top-left (M−1)×(M−1) block of an M-level truncation (the
"trusted block" convention).

All operators are dense complex matrices; dimensions in this package stay in
the hundreds at most, so no sparse formats are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest truncation any operator is built at; a dense complex matrix of this
# size already takes 256 MiB
MAX_CUTOFF = 4096


def annihilation_op(cutoff: int) -> np.ndarray:
    """Annihilation operator on the lowest ``cutoff`` number states:
    entry (n, n+1) = sqrt(n+1)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds the limit of {MAX_CUTOFF}")
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1).astype(complex)


def creation_op(cutoff: int) -> np.ndarray:
    return annihilation_op(cutoff).conj().T


def position_op(cutoff: int) -> np.ndarray:
    """Q = (a + a†)/sqrt(2); real symmetric tridiagonal."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    a = annihilation_op(cutoff)
    return (a + a.conj().T) / np.sqrt(2.0)


def momentum_op(cutoff: int) -> np.ndarray:
    """P = i(a† − a)/sqrt(2); Hermitian, purely imaginary entries."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    a = annihilation_op(cutoff)
    return 1j * (a.conj().T - a) / np.sqrt(2.0)


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(a.conj().T @ a - eye)) <= tol)


def is_psd(a: np.ndarray, tol: float = 1e-10) -> bool:
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh(np.asarray(a))
    return bool(w.min() >= -tol)


@dataclass(frozen=True)
class GradedSpace:
    """Splitting of a Hilbert space into even and odd sectors.

    Basis convention: the first ``dim_even`` basis vectors span the even
    sector, the remaining ``dim_odd`` the odd one (no interleaving).
    """

    dim_even: int
    dim_odd: int

    def __post_init__(self):
        if self.dim_even < 0 or self.dim_odd < 0:
            raise ValueError("sector dimensions must be non-negative")

    @property
    def dim(self) -> int:
        return self.dim_even + self.dim_odd

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthogonal projectors (P0, P1) with P0 + P1 = I and P0 P1 = 0."""
        d = np.zeros(self.dim)
        d[: self.dim_even] = 1.0
        p0 = np.diag(d).astype(complex)
        return p0, np.eye(self.dim, dtype=complex) - p0

    def theta(self) -> np.ndarray:
        """Grading involution P0 − P1 (squares to the identity)."""
        p0, p1 = self.projectors()
        return p0 - p1


def _check_graded(x: np.ndarray, g: GradedSpace) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"operator must be square, got shape {x.shape}")
    if x.shape[0] != g.dim:
        raise ValueError(f"operator dim {x.shape[0]} != graded dim {g.dim}")
    return x


def even_part(x: np.ndarray, g: GradedSpace) -> np.ndarray:
    """Block-diagonal part P0 X P0 + P1 X P1 (maps each sector to itself)."""
    x = _check_graded(x, g)
    p0, p1 = g.projectors()
    return p0 @ x @ p0 + p1 @ x @ p1


def odd_part(x: np.ndarray, g: GradedSpace) -> np.ndarray:
    """Block-off-diagonal part P0 X P1 + P1 X P0 (swaps the sectors)."""
    x = _check_graded(x, g)
    p0, p1 = g.projectors()
    return p0 @ x @ p1 + p1 @ x @ p0


def tau(x: np.ndarray, g: GradedSpace) -> np.ndarray:
    """Grading automorphism theta·X·theta = even_part(X) − odd_part(X)."""
    x = _check_graded(x, g)
    th = g.theta()
    return th @ x @ th
