"""Least-squares pulse design: pick the drive so the first-order gate is
closest to a target unitary in Frobenius norm.

The first-order gate is affine in the pulse coefficients,
vec U(β) = vec U0(T) + A β, so the design reduces to ridge-regularized
linear least squares.  The drive is constrained real (it is a physical
field), which is enforced by solving the stacked real system
[Re A; Im A] β ≈ [Re r; Im r]: the optimizer output is real by
construction, never by rounding.

The pulse-energy constraint ∫ b² dt = Σ_j w_j β_j² (exact weights from
``dyson.energy_weights``) enters either as a fixed penalty multiplier or
as a hard budget; the budget form finds its multiplier by monotone
bisection on the energy-vs-multiplier curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dyson import ControlPulse, design_matrix, energy_weights, propagate_oracle, u0
from .fock import is_unitary
from .spectrum import Spectrum

CONDITION_WARN = 1e12


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
        if not self.allow_nonunitary and not is_unitary(g, tol=1e-8):
            raise ValueError("target is not unitary to 1e-8 (set allow_nonunitary)")
        if (self.lam is None) == (self.budget is None):
            raise ValueError("set exactly one of lam and budget")
        if self.lam is not None and self.lam < 0:
            raise ValueError("penalty multiplier must be >= 0")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("energy budget must be > 0")
        if self.horizon <= 0 or self.n_harmonics < 0:
            raise ValueError("bad horizon or harmonic count")


@dataclass
class SynthesisReport:
    pulse: ControlPulse
    residual: float          # ‖U(β) − G‖_F
    fidelity: float          # |tr(G† U(β))| / (N+1)
    energy: float            # ∫ b² dt
    multiplier: float        # lambda actually applied
    conditioning: float      # condition estimate of the normal matrix
    oracle_fidelity: float | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "pulse": self.pulse.to_json(),
            "residual": self.residual,
            "fidelity": self.fidelity,
            "energy": self.energy,
            "multiplier": self.multiplier,
            "conditioning": self.conditioning,
            "oracle_fidelity": self.oracle_fidelity,
            "note": self.note,
        }


def _ridge_solve(a_real, r_real, w, lam):
    # Augmented least squares: rows sqrt(lam*w) implement the ridge term;
    # lstsq gives the minimum-norm solution on rank deficiency.
    if lam > 0:
        aug = np.vstack([a_real, np.diag(np.sqrt(lam * w))])
        rhs = np.concatenate([r_real, np.zeros(w.size)])
    else:
        aug, rhs = a_real, r_real
    beta, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return beta


def synthesize(prob: SynthesisProblem, oracle_check: bool = False) -> SynthesisReport:
    """Solve the design problem; optionally score the pulse against the
    brute-force propagator (first-order error made visible)."""
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
    r_real = np.concatenate([r.real, r.imag])
    w = energy_weights(t_h, n_k)

    note = ""
    if prob.budget is not None:
        beta, lam, note = _solve_budget(a_real, r_real, w, prob.budget)
    else:
        lam = float(prob.lam)
        beta = _ridge_solve(a_real, r_real, w, lam)

    normal = a_real.T @ a_real + np.diag(lam * w)
    conditioning = float(np.linalg.cond(normal))
    if conditioning > CONDITION_WARN:
        warnings.warn(
            f"normal matrix condition {conditioning:.2e} above {CONDITION_WARN:.0e}; "
            "minimum-norm solution returned",
            stacklevel=2,
        )

    pulse = ControlPulse(t_h, beta)
    u = (u0_vec + a @ beta).reshape(k, k)
    residual = float(np.linalg.norm(u - g))
    fidelity = float(abs(np.trace(g.conj().T @ u)) / k)
    report = SynthesisReport(
        pulse=pulse,
        residual=residual,
        fidelity=fidelity,
        energy=pulse.energy(),
        multiplier=lam,
        conditioning=conditioning,
        note=note,
    )
    if oracle_check:
        u_true = propagate_oracle(spec, pulse)
        report.oracle_fidelity = float(abs(np.trace(g.conj().T @ u_true)) / k)
    return report


def _solve_budget(a_real, r_real, w, budget):
    def energy_at(lam):
        beta = _ridge_solve(a_real, r_real, w, lam)
        return beta, float(w @ beta**2)

    beta0, e0 = energy_at(0.0)
    if e0 <= budget:
        return beta0, 0.0, "budget inactive: unconstrained solution within bound"
    lo, hi = 0.0, 1e-9
    beta, e_hi = energy_at(hi)
    while e_hi > budget:
        lo, hi = hi, hi * 10.0
        beta, e_hi = energy_at(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        beta_mid, e_mid = energy_at(mid)
        if e_mid > budget:
            lo = mid
        else:
            hi, beta = mid, beta_mid
        if abs(e_mid - budget) <= 1e-10 * budget:
            return beta_mid, mid, ""
    return beta, hi, ""


def sweep(prob: SynthesisProblem, lam_grid) -> list[SynthesisReport]:
    """One synthesis per multiplier; energies are non-increasing and
    residuals non-decreasing along an increasing grid (ridge trade-off)."""
    return [synthesize(replace(prob, lam=float(lam), budget=None)) for lam in lam_grid]
