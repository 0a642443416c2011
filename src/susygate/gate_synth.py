"""Least-squares pulse design: pick the drive so the first-order gate is
closest to a target unitary in Frobenius norm.

The first-order gate is affine in the pulse coefficients,
vec U(β) = vec U0(T) + A β, so the design reduces to ridge-regularized
linear least squares.  The drive is constrained real (it is a physical
field), which is enforced by solving the stacked real system
[Re A; Im A] β ≈ [Re r; Im r]: the optimizer output is real by
construction, never by rounding.

The pulse-energy constraint ∫ b² dt = Σ_j w_j β_j² (exact weights from
``dyson.energy_weights``) enters either as a fixed penalty multiplier λ or
as a hard budget B.  One SVD of A W^{-1/2} gives every multiplier's pulse
in closed form (standard-form Tikhonov); the budget form finds its
multiplier by Newton's method on the secular equation |W^{1/2}β(λ)|⁻¹ = B^{-1/2}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dyson import (
    MAX_HARMONICS, ControlPulse, design_matrix, energy_weights, propagate_oracle, u0,
)
from .fock import is_unitary
from .spectrum import Spectrum

CONDITION_WARN = 1e12
NEWTON_MAX_ITER = 100  # budget multiplier; about a dozen steps reach the root


@dataclass(frozen=True)
class SynthesisProblem:
    """Target gate, diagonalized model, and constraint for one design run.

    Exactly one of ``lam`` (energy penalty multiplier, >= 0) and ``budget``
    (hard energy bound, > 0) must be set.  Non-unitary targets are rejected
    unless ``allow_nonunitary`` is set (channel-adjacent experiments).
    """

    target: np.ndarray
    spec: Spectrum
    horizon: float
    n_harmonics: int
    lam: float | None = 0.0
    budget: float | None = None
    allow_nonunitary: bool = False
    match_phase: bool = False

    def __post_init__(self):
        g = np.asarray(self.target, dtype=complex)
        object.__setattr__(self, "target", g)
        k = self.spec.cutoff_kept
        if g.shape != (k, k):
            raise ValueError(f"target shape {g.shape} != kept dim {k}")
        if not self.allow_nonunitary and not is_unitary(g):
            raise ValueError("target is not unitary to 1e-8 (set allow_nonunitary)")
        if (self.lam is None) == (self.budget is None):
            raise ValueError("set exactly one of lam and budget")
        if self.lam is not None and not 0 <= self.lam < np.inf:
            raise ValueError("penalty multiplier must be finite and >= 0")
        if self.budget is not None and not 0 < self.budget < np.inf:
            raise ValueError("energy budget must be finite and > 0")
        if not (0 < self.horizon < np.inf and 0 <= self.n_harmonics <= MAX_HARMONICS):
            raise ValueError(f"need a finite horizon T > 0 and 0 <= K <= {MAX_HARMONICS}")


@dataclass
class SynthesisReport:
    pulse: ControlPulse
    residual: float          # ‖U(β) − G‖_F
    fidelity: float          # |tr(G† U(β))| / (N+1)
    energy: float            # ∫ b² dt
    multiplier: float        # lambda actually applied
    conditioning: float      # condition estimate of the normal matrix
    oracle_fidelity: float | None = None
    oracle_steps: int | None = None      # final grid of the oracle check
    oracle_error: float | None = None    # its estimated error
    budget_iterations: int | None = None  # Newton steps to the budget's multiplier
    note: str = ""

    def to_json(self) -> dict:
        return {**vars(self), "pulse": self.pulse.to_json()}


def _design(prob: SynthesisProblem):
    """One design step: the design matrix, U0 and the phase-matched residual,
    and the SVD of the energy-scaled real system A W^{-1/2} = U S Vᵀ cut at
    lstsq's default cutoff.  Returns (s, c = Uᵀr, report_at), where
    report_at(lam) scores β(λ) = W^{-1/2} V s c / (s² + λ)."""
    spec, t_h, n_k = prob.spec, prob.horizon, prob.n_harmonics
    k = spec.cutoff_kept
    a = design_matrix(spec, t_h, n_k)
    u0_vec = u0(spec, t_h).reshape(-1)
    g = prob.target
    if prob.match_phase:
        # One fixed-point pass: absorb the global phase that aligns G with
        # U0(T) before the least squares sees the target.
        tr = np.trace(g.conj().T @ u0_vec.reshape(k, k))
        if abs(tr) > 0:
            g = g * (tr / abs(tr))
    r = g.reshape(-1) - u0_vec

    a_real = np.vstack([a.real, a.imag])
    w = energy_weights(t_h, n_k)
    w_isqrt = 1.0 / np.sqrt(w)
    u, s, vt = np.linalg.svd(a_real * w_isqrt, full_matrices=False)
    rank = np.count_nonzero(s > s[0] * max(a_real.shape) * np.finfo(float).eps)
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    c = u.T @ np.concatenate([r.real, r.imag])

    def report_at(lam, note="", oracle_check=False) -> SynthesisReport:
        beta = w_isqrt * (vt.T @ (s * c / (s**2 + lam)))
        conditioning = float(np.linalg.cond(a_real.T @ a_real + np.diag(lam * w)))
        if conditioning > CONDITION_WARN:
            warnings.warn(
                f"normal matrix condition {conditioning:.2e} above {CONDITION_WARN:.0e}; "
                "minimum-energy solution returned",
                stacklevel=3,
            )
        pulse = ControlPulse(t_h, beta)
        u_gate = (u0_vec + a @ beta).reshape(k, k)
        residual = float(np.linalg.norm(u_gate - g))
        fidelity = float(abs(np.trace(g.conj().T @ u_gate)) / k)
        report = SynthesisReport(pulse, residual, fidelity, pulse.energy(), lam, conditioning,
                                 note=note)
        if oracle_check:
            u_true, report.oracle_steps, report.oracle_error = propagate_oracle(spec, pulse)
            report.oracle_fidelity = float(abs(np.trace(g.conj().T @ u_true)) / k)
        return report

    return s, c, report_at


def _budget_multiplier(s, c, budget: float) -> tuple[float, int]:
    # Newton on the secular equation 1/|W^{1/2}β(λ)| = 1/√B from λ = 0: the
    # left side is concave and increasing, so the iterates rise to the root.
    # Returns the multiplier and the number of Newton steps taken.
    lam = 0.0
    for n in range(NEWTON_MAX_ITER):
        q = s * c / (s**2 + lam)  # W^{1/2}β(λ) in the right singular basis
        e = q @ q
        if e <= budget * (1 + 1e-10):
            return float(lam), n
        lam += (np.sqrt(e / budget) - 1) * e / np.sum(q**2 / (s**2 + lam))
    return float(lam), NEWTON_MAX_ITER


def synthesize(prob: SynthesisProblem, oracle_check: bool = False) -> SynthesisReport:
    """Solve the design problem; optionally score the pulse against the
    brute-force propagator (first-order error made visible).  Where A is
    rank-deficient, λ = 0 gives the least-squares pulse of minimum energy,
    the λ → 0⁺ limit of the ridge family."""
    s, c, report_at = _design(prob)
    if prob.budget is None:
        return report_at(float(prob.lam), oracle_check=oracle_check)
    lam, iterations = _budget_multiplier(s, c, prob.budget)
    note = "budget inactive: unconstrained solution within bound" if lam == 0 else ""
    report = report_at(lam, note, oracle_check)
    report.budget_iterations = iterations
    return report


def sweep(prob: SynthesisProblem, lam_grid) -> list[SynthesisReport]:
    """One synthesis per multiplier, all from one design and SVD; energies
    are non-increasing and residuals non-decreasing along an increasing
    grid (ridge trade-off)."""
    lams = [float(lam) for lam in lam_grid]
    if not all(0 <= lam < np.inf for lam in lams):
        raise ValueError("penalty multipliers must be finite and >= 0")
    _, _, report_at = _design(prob)
    return [report_at(lam) for lam in lams]
