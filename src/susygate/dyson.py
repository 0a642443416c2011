"""First-order propagator gate for a harmonically driven mode.

With H(t) = H0 + b(t)·Q and the free propagator
U0(t) = sum_n e^{-i E_n t} |u_n><u_n|, expanding the time-ordered evolution
to first order in the drive gives

    U(T) ≈ U0(T) − i ∫_0^T b(t) U0(T−t) Q U0(t) dt,

whose matrix elements in the H0 eigenbasis are

    U_nm = δ_nm e^{-i E_n T} − i · b̂_T(E_n − E_m) · e^{-i E_n T} · Q_nm,

where b̂_T(ω) = ∫_0^T b(t) e^{iωt} dt is the finite-horizon Fourier transform
of the drive and Q_nm = <u_n|Q|u_m>.  Because the drive is a real harmonic
series on [0, T], b̂_T is evaluated in closed form per basis function (no
quadrature), which keeps downstream least-squares problems exact.

The explicit −i in front of the integral is kept in the matrix elements;
the gate is affine in the drive coefficients and unitary only up to
O(|b|²).  ``propagate_oracle`` provides a brute-force time-ordered product
for quantifying that remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleConvergenceError
from .fock import position_op
from .spectrum import Spectrum, build_h0

# Fourth-order commutator-free Magnus step (Blanes & Moan, Appl. Numer. Math.
# 56, 1519 (2006)): the drive sampled at the Gauss nodes t + (1/2 ∓ √3/6)·dt
# mixes into b̃ = 2(α1 b1 + α2 b2), then 2(α2 b1 + α1 b2), α1,2 = 1/4 ± √3/6,
# of two factors exp(−i dt/2 (h0 + b̃ Q)) applied in that order.
GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
CFM4_MIX = 2.0 * (0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * np.sqrt(3.0) / 6.0)
# estimated Frobenius error of the returned grid at which the oracle stops
ORACLE_TOL = 1e-8
# the oracle's first step grid, and the grid at which it gives up
ORACLE_START_STEPS = 32
ORACLE_MAX_STEPS = 64 << 14
# largest harmonic count K a pulse or design accepts; the normal matrix is (2K+1)²
MAX_HARMONICS = 1000


def energy_weights(horizon: float, n_harmonics: int) -> np.ndarray:
    """Weights w with ∫_0^T b(t)² dt = Σ_j w_j β_j², exactly: T for the
    constant term and T/2 for each cosine and sine."""
    w = np.full(2 * n_harmonics + 1, 0.5 * horizon)
    w[0] = horizon
    return w


@dataclass(frozen=True)
class ControlPulse:
    """Real drive b(t) on [0, T] in a truncated harmonic basis.

    ``coeffs`` is laid out as [b0, c1, s1, ..., cK, sK] for

        b(t) = b0 + sum_k [ c_k cos(2πkt/T) + s_k sin(2πkt/T) ].
    """

    horizon: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be 1-D of odd length (b0 plus cos/sin pairs)")
        if c.size > 2 * MAX_HARMONICS + 1:
            raise ValueError(f"a pulse takes at most K = {MAX_HARMONICS} harmonics")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_harmonics(self) -> int:
        return (self.coeffs.size - 1) // 2

    def evaluate(self, t):
        """b(t); accepts scalars or arrays, defined for 0 <= t <= T."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.horizon + 1e-12):
            raise ValueError("evaluation time outside [0, T]")
        out = np.full(t.shape, self.coeffs[0])
        for k in range(1, self.n_harmonics + 1):
            w = 2.0 * np.pi * k / self.horizon
            out = out + self.coeffs[2 * k - 1] * np.cos(w * t)
            out = out + self.coeffs[2 * k] * np.sin(w * t)
        return out if out.shape else float(out)

    def energy(self) -> float:
        """∫_0^T b(t)² dt in closed form (harmonics are orthogonal)."""
        return float(energy_weights(self.horizon, self.n_harmonics) @ self.coeffs**2)

    def to_json(self) -> dict:
        return {
            "T": self.horizon,
            "K": self.n_harmonics,
            "coeffs": [float(x) for x in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ControlPulse":
        pulse = cls(float(obj["T"]), np.asarray(obj["coeffs"], dtype=float))
        if int(obj.get("K", pulse.n_harmonics)) != pulse.n_harmonics:
            raise ValueError("pulse JSON: K inconsistent with coeffs length")
        return pulse


def _segment_transform(u, horizon: float):
    # ∫_0^T e^{iut} dt = T sinc(uT/2π) e^{iuT/2}; analytic in u, so the
    # removable singularity at u = 0 never meets a division.
    x = np.asarray(u, dtype=float) * (horizon / 2.0)
    return horizon * np.sinc(x / np.pi) * np.exp(1j * x)


def basis_transforms(horizon: float, n_harmonics: int, omega) -> np.ndarray:
    """Finite-horizon transforms of the pulse basis functions at ``omega``.

    Returns an array of shape ``omega.shape + (2K+1,)`` ordered like
    ``ControlPulse.coeffs``; the pulse transform is the dot product with the
    coefficient vector.  The cos/sin branches at omega = ±2πk/T are exact
    limits of the same closed form.
    """
    omega = np.asarray(omega, dtype=float)
    cols = [_segment_transform(omega, horizon)]
    for k in range(1, n_harmonics + 1):
        nu = 2.0 * np.pi * k / horizon
        plus = _segment_transform(omega + nu, horizon)
        minus = _segment_transform(omega - nu, horizon)
        cols.append(0.5 * (plus + minus))
        cols.append((plus - minus) / 2.0j)
    return np.stack(cols, axis=-1)


def u0(spec: Spectrum, t: float) -> np.ndarray:
    """Free propagator e^{-i H0 t} on the kept block, diagonal in the H0
    eigenbasis."""
    return np.diag(np.exp(-1j * spec.kept_energies * t))


def design_matrix(
    spec: Spectrum,
    horizon: float,
    n_harmonics: int,
    control: np.ndarray | None = None,
) -> np.ndarray:
    """Complex matrix A with vec U(β) = vec U0(T) + A β for the first-order
    gate; column j is the gate derivative along coefficient j.  ``control``
    (Fock basis, raw cutoff; Q by default) enters as ``spec.kept_block``."""
    ctrl = position_op(spec.cutoff_raw) if control is None else np.asarray(control)
    if ctrl.shape != (spec.cutoff_raw, spec.cutoff_raw):
        raise ValueError(f"control operator shape {ctrl.shape} != raw dim {spec.cutoff_raw}")
    e = spec.kept_energies
    q = spec.kept_block(ctrl)
    omega = e[:, None] - e[None, :]
    bt = basis_transforms(horizon, n_harmonics, omega)  # (k, k, 2K+1)
    core = -1j * np.exp(-1j * e * horizon)[:, None, None] * q[:, :, None] * bt
    k = spec.cutoff_kept
    return core.reshape(k * k, 2 * n_harmonics + 1)


def dyson_gate(
    spec: Spectrum, pulse: ControlPulse, control: np.ndarray | None = None
) -> np.ndarray:
    """First-order gate on the kept block; affine in the pulse coefficients.

    Not exactly unitary: the defect is O(|b|²) (quantified against
    ``propagate_oracle`` in tests).
    """
    k = spec.cutoff_kept
    a = design_matrix(spec, pulse.horizon, pulse.n_harmonics, control)
    return u0(spec, pulse.horizon) + (a @ pulse.coeffs).reshape(k, k)


def _magnus_product(
    h0: np.ndarray, ctrl: np.ndarray, pulse: ControlPulse, steps: int
) -> np.ndarray:
    """Product of ``steps`` Magnus steps for real symmetric ``h0`` and
    ``ctrl``: each factor is one real ``eigh`` of h0 + b̃·ctrl."""
    dt = pulse.horizon / steps
    t = (np.arange(steps)[:, None] + GAUSS_NODES) * dt
    u = np.eye(h0.shape[0], dtype=complex)
    for b in (pulse.evaluate(t) @ CFM4_MIX.T).ravel():
        w, v = np.linalg.eigh(h0 + b * ctrl)
        u = (v * np.exp(-0.5j * dt * w)) @ (v.T @ u)
    return u


def propagate_oracle(spec: Spectrum, pulse: ControlPulse) -> tuple[np.ndarray, int, float]:
    """Brute-force propagator: time-ordered product of fourth-order
    commutator-free Magnus steps, each two exactly unitary exponentials.

    Integrates at the full raw dimension (exactly unitary there), then
    takes ``Spectrum.kept_block`` of each grid's product.  The grid starts at
    ``ORACLE_START_STEPS`` and is doubled until the estimated Frobenius
    error of the finer grid is below ``ORACLE_TOL``.  With g the gap between
    two successive grids, that estimate is g/15 (step doubling for a
    fourth-order scheme) once the previous gap was at least 8g, and g
    itself otherwise; an exact step (zero or constant drive) stops on the
    second grid.  The documented examples stop at 128–256 steps.  A grid
    that would exceed ``ORACLE_MAX_STEPS`` raises
    :class:`OracleConvergenceError`.

    The Hamiltonian is rebuilt from the spectrum's recorded (c1, c2) at the
    raw cutoff, independent of the stored eigen-data, and the control
    operator is the position operator.

    Returns (gate, steps, error): the kept-block propagator, the step count
    of its grid and the error estimate it stopped on.
    """
    m = spec.cutoff_raw
    h0 = build_h0(spec.c1, spec.c2, m)
    ctrl = position_op(m)
    assert not (h0.imag.any() or ctrl.imag.any()), "H0 and Q must be real"
    h0, ctrl = h0.real, ctrl.real
    steps = ORACLE_START_STEPS
    prev = spec.kept_block(_magnus_product(h0, ctrl, pulse, steps))
    prev_gap = 0.0
    while steps < ORACLE_MAX_STEPS:
        steps *= 2
        cur = spec.kept_block(_magnus_product(h0, ctrl, pulse, steps))
        gap = float(np.linalg.norm(cur - prev))
        if prev_gap >= 8 * gap and gap / 15 < ORACLE_TOL:
            return cur, steps, gap / 15
        if gap < ORACLE_TOL:
            return cur, steps, gap
        prev, prev_gap = cur, gap
    raise OracleConvergenceError(
        f"Magnus product's estimated error not below {ORACLE_TOL:g} after {steps} steps"
    )
