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

# midpoint steps whose exponentials are formed per batched eigh call
MIDPOINT_CHUNK = 4096
# Frobenius gap between successive grid doublings at which the oracle stops
ORACLE_TOL = 1e-8


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
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be 1-D of odd length (b0 plus cos/sin pairs)")
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

    def scaled(self, factor: float) -> "ControlPulse":
        return ControlPulse(self.horizon, self.coeffs * factor)

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


def pulse_transform(pulse: ControlPulse, omega):
    """b̂_T(omega) = ∫_0^T b(t) e^{i omega t} dt, closed form."""
    bt = basis_transforms(pulse.horizon, pulse.n_harmonics, omega)
    return bt @ pulse.coeffs


def u0(spec: Spectrum, t: float, basis: str = "eigen") -> np.ndarray:
    """Free propagator e^{-i H0 t}.

    ``basis="eigen"`` returns the kept-block diagonal in the eigenbasis;
    ``basis="fock"`` returns the full raw-dimension matrix rotated back to
    the Fock basis.
    """
    if basis == "eigen":
        return np.diag(np.exp(-1j * spec.kept_energies * t))
    if basis == "fock":
        phases = np.exp(-1j * spec.energies * t)
        return (spec.modes * phases) @ spec.modes.conj().T
    raise ValueError(f"unknown basis {basis!r}")


def control_in_eigenbasis(spec: Spectrum, control: np.ndarray | None = None) -> np.ndarray:
    """Kept block of the control operator in the H0 eigenbasis.

    The default control operator is the position operator at the raw cutoff;
    the matrix elements are computed at full raw dimension and only then
    projected to the kept block.
    """
    ctrl = position_op(spec.cutoff_raw) if control is None else np.asarray(control)
    if ctrl.shape != (spec.cutoff_raw, spec.cutoff_raw):
        raise ValueError(
            f"control operator shape {ctrl.shape} != raw dim {spec.cutoff_raw}"
        )
    full = spec.modes.conj().T @ ctrl @ spec.modes
    return full[: spec.cutoff_kept, : spec.cutoff_kept]


def design_matrix(
    spec: Spectrum,
    horizon: float,
    n_harmonics: int,
    control: np.ndarray | None = None,
) -> np.ndarray:
    """Complex matrix A with vec U(β) = vec U0(T) + A β for the first-order
    gate; column j is the gate derivative along coefficient j."""
    e = spec.kept_energies
    q = control_in_eigenbasis(spec, control)
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


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    # Product mats[-1] @ ... @ mats[0] by pairwise reduction (keeps the
    # matmul count in batched numpy calls instead of a Python loop).
    while mats.shape[0] > 1:
        n = mats.shape[0]
        tail = mats[-1:] if n % 2 else None
        body = mats[: n - (n % 2)]
        body = np.matmul(body[1::2], body[0::2])
        mats = body if tail is None else np.concatenate([body, tail])
    return mats[0]


def _midpoint_product(
    h0: np.ndarray, ctrl: np.ndarray, pulse: ControlPulse, steps: int
) -> np.ndarray:
    dim = h0.shape[0]
    dt = pulse.horizon / steps
    t_mid = (np.arange(steps) + 0.5) * dt
    b = np.atleast_1d(pulse.evaluate(t_mid))
    u = np.eye(dim, dtype=complex)
    for start in range(0, steps, MIDPOINT_CHUNK):
        bb = b[start : start + MIDPOINT_CHUNK]
        h = h0[None, :, :] + bb[:, None, None] * ctrl[None, :, :]
        w, v = np.linalg.eigh(h)
        factors = np.matmul(
            v * np.exp(-1j * w * dt)[:, None, :], v.conj().transpose(0, 2, 1)
        )
        u = _ordered_product(factors) @ u
    return u


def propagate_oracle(
    spec: Spectrum, pulse: ControlPulse, steps: int = 64, max_doublings: int = 14
) -> np.ndarray:
    """Brute-force propagator: midpoint-rule product of step exponentials.

    Integrates at the full raw dimension (exactly unitary there), then
    projects to the kept block of the eigenbasis.  The grid is doubled until
    two successive refinements agree to ``ORACLE_TOL`` in Frobenius norm,
    starting from ``steps``; failure to converge within ``max_doublings``
    raises :class:`OracleConvergenceError`.

    The Hamiltonian is rebuilt from the spectrum's recorded (c1, c2) at the
    raw cutoff, independent of the stored eigen-data, and the control
    operator is the position operator.
    """
    m = spec.cutoff_raw
    h0 = build_h0(spec.c1, spec.c2, m)
    ctrl = position_op(m)

    def project(u_full):
        rotated = spec.modes.conj().T @ u_full @ spec.modes
        return rotated[: spec.cutoff_kept, : spec.cutoff_kept]

    prev = project(_midpoint_product(h0, ctrl, pulse, steps))
    for _ in range(max_doublings):
        steps *= 2
        cur = project(_midpoint_product(h0, ctrl, pulse, steps))
        if np.linalg.norm(cur - prev) < ORACLE_TOL:
            return cur
        prev = cur
    raise OracleConvergenceError(
        f"midpoint product not Cauchy to {ORACLE_TOL:g} after {steps} steps"
    )
