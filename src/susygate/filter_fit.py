"""Lindblad and diffusive stochastic master equations, the associated
state filter, and parameter fitting against filtered trajectories.

Deterministic evolution integrates

    dρ/dt = −i[H, ρ] + sum_k ( L_k ρ L_k† − ½{L_k†L_k, ρ} )

with a fixed-step classic Runge-Kutta scheme on the vectorized state (the
generator is assembled once as a d²×d² matrix).  The diffusive unraveling
under continuous monitoring of one channel L with efficiency η uses
Euler-Maruyama:

    dρ = 𝓛(ρ) dt + √η ( Lρ + ρL† − tr((L+L†)ρ) ρ ) dW,
    dY = √η tr((L+L†)ρ) dt + dW,

and the filter propagates the same equation driven by the innovation
dW̃ = dY − √η tr((L+L†)ρ̂) dt computed from its own state.  After every
stochastic step the state is projected to the nearest PSD trace-one matrix
(eigenvalue clipping plus renormalization); clipped weight is tracked so
silent distortion stays visible.

Fixed steps everywhere: runs are bitwise reproducible for a given seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError
from .serialize import matrix_from_json, matrix_to_json

logger = logging.getLogger(__name__)

POSITIVITY_FLOOR = -1e-4  # eigenvalue below this aborts deterministic runs


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus a list of Lindblad (jump) operators."""

    hamiltonian: np.ndarray
    lindblads: tuple

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(h))):
            raise ValueError("Hamiltonian must be Hermitian")
        ops = tuple(np.asarray(l, dtype=complex) for l in self.lindblads)
        for l in ops:
            if l.shape != h.shape:
                raise ValueError("Lindblad operator shape mismatch")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblads", ops)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class ModelFamily:
    """Linear-in-θ model family for fitting.

    H(θ) = h0 + sum_j θ_j · h_terms[j] over the Hamiltonian parameters,
    followed by rate parameters: each adds a Lindblad sqrt(θ_k) ·
    rate_bases[k].  Rate parameters must be non-negative.  ``lindblads``
    are fixed (θ-independent) jump operators.
    """

    h0: np.ndarray
    h_terms: tuple = ()
    rate_bases: tuple = ()
    lindblads: tuple = ()
    param_names: tuple = ()

    def __post_init__(self):
        n = len(self.h_terms) + len(self.rate_bases)
        names = self.param_names or tuple(f"theta{i}" for i in range(n))
        if len(names) != n:
            raise ValueError("param_names length != number of free parameters")
        for b in self.h_terms:
            b = np.asarray(b)
            if np.max(np.abs(b - b.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(b))):
                raise ValueError("Hamiltonian basis terms must be Hermitian")
        object.__setattr__(self, "param_names", names)

    @property
    def n_params(self) -> int:
        return len(self.h_terms) + len(self.rate_bases)

    def at(self, theta) -> LindbladModel:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {theta.size}")
        nh = len(self.h_terms)
        h = np.asarray(self.h0, dtype=complex).copy()
        for coef, term in zip(theta[:nh], self.h_terms):
            h = h + coef * np.asarray(term, dtype=complex)
        ops = list(self.lindblads)
        for rate, base in zip(theta[nh:], self.rate_bases):
            if rate < 0:
                raise ValueError("rate parameters must be >= 0")
            ops.append(np.sqrt(rate) * np.asarray(base, dtype=complex))
        return LindbladModel(h, tuple(ops))


@dataclass
class Trajectory:
    """Time grid, density matrices, and (optionally) a measurement record.

    ``record[i]`` is the increment dY accumulated over
    [times[i], times[i+1]].
    """

    times: np.ndarray
    states: np.ndarray  # (n_times, d, d)
    record: np.ndarray | None = None
    seed: int | None = None

    def validate(self, trace_tol: float = 1e-8, eig_tol: float = 1e-6) -> None:
        from .fock import is_hermitian, is_psd

        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states/times length mismatch")
        if self.record is not None and self.record.shape[0] != self.times.shape[0] - 1:
            raise ValueError("record length must be n_times - 1")
        for rho in self.states:
            if not is_hermitian(rho, tol=1e-8):
                raise ValueError("state not Hermitian")
            if abs(np.trace(rho).real - 1.0) > trace_tol:
                raise ValueError("state trace differs from 1")
            if not is_psd(rho, tol=eig_tol):
                raise ValueError("state has a negative eigenvalue beyond tolerance")

    def to_json(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "states": [matrix_to_json(s) for s in self.states],
            "record": None if self.record is None else [float(x) for x in self.record],
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Trajectory":
        states = np.stack([matrix_from_json(s) for s in obj["states"]])
        record = obj.get("record")
        return cls(
            times=np.asarray(obj["times"], dtype=float),
            states=states,
            record=None if record is None else np.asarray(record, dtype=float),
            seed=obj.get("seed"),
        )


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Generator as a d²×d² matrix acting on row-major vec(ρ)."""
    d = model.dim
    eye = np.eye(d)
    h = model.hamiltonian
    s = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in model.lindblads:
        ldl = l.conj().T @ l
        s += np.kron(l, l.conj())
        s -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return s


def _check_grid(times) -> tuple[np.ndarray, float]:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-D grid with at least two points")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise ValueError("times must be strictly increasing")
    dt = dts[0]
    if np.max(np.abs(dts - dt)) > 1e-9 * max(dt, 1.0):
        raise ValueError("times must be a uniform grid")
    return times, float(dt)


def _check_state(rho, d) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} != ({d}, {d})")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValueError("initial state not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("initial state trace != 1")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise ValueError("initial state not PSD")
    return rho


def _rk4_step(s: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = s @ y
    k2 = s @ (y + 0.5 * dt * k1)
    k3 = s @ (y + 0.5 * dt * k2)
    k4 = s @ (y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lindblad_evolve(model: LindbladModel, rho0, times) -> Trajectory:
    """Deterministic master-equation trajectory on a uniform grid.

    The trace is renormalized after every step (drift is logged); an
    eigenvalue below −1e−4 aborts with :class:`StepSizeError`.
    """
    times, dt = _check_grid(times)
    d = model.dim
    rho0 = _check_state(rho0, d)
    s = liouvillian(model)
    diag_idx = np.arange(d) * (d + 1)

    y = rho0.reshape(-1).copy()
    states = np.empty((times.size, d, d), dtype=complex)
    states[0] = rho0
    max_drift = 0.0
    for i in range(1, times.size):
        y = _rk4_step(s, y, dt)
        tr = y[diag_idx].sum().real
        max_drift = max(max_drift, abs(tr - 1.0))
        y /= tr
        rho = y.reshape(d, d)
        low = np.linalg.eigvalsh(rho).min()
        if low < POSITIVITY_FLOOR:
            raise StepSizeError(
                f"eigenvalue {low:.3e} below {POSITIVITY_FLOOR} at t={times[i]:.6g}; "
                "reduce the step size"
            )
        states[i] = rho
    logger.debug("lindblad_evolve: max per-step trace drift %.3e", max_drift)
    return Trajectory(times=times, states=states, record=None, seed=None)


def _project_psd(rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest PSD trace-one matrix: clip negative eigenvalues, renormalize.

    Two-level states get the closed-form eigenvalue clip (the hot path of
    the stochastic integrators); larger states go through eigh.
    """
    if rho.shape[0] == 2:
        a = rho[0, 0].real
        d = rho[1, 1].real
        b = rho[0, 1]
        half_gap = np.sqrt(max(0.25 * (a - d) ** 2 + (b * b.conjugate()).real, 0.0))
        mid = 0.5 * (a + d)
        lo = mid - half_gap
        hi = mid + half_gap
        if lo >= 0.0:
            return rho / (a + d), 0.0
        if hi > 0.0:
            # clipped state is hi * P_hi, so the renormalized state is P_hi
            return (rho - lo * np.eye(2)) / (hi - lo), -lo
    w, v = np.linalg.eigh(rho)
    clipped = np.clip(w, 0.0, None)
    lost = float(-np.minimum(w, 0.0).sum())
    rho = (v * clipped) @ v.conj().T
    return rho / np.trace(rho).real, lost


def _sme_run(model, meas, eta, rho0, times, increments, record_out):
    """Shared Euler-Maruyama core: `increments[i]` supplies dW for step i
    when simulating, or the recorded dY when filtering (record_out=None)."""
    times, dt = _check_grid(times)
    d = model.dim
    rho0 = _check_state(rho0, d)
    if not (0.0 < eta <= 1.0):
        raise ValueError("efficiency must satisfy 0 < eta <= 1")
    if not (0 <= meas < len(model.lindblads)):
        raise ValueError("measurement index outside the model's Lindblad list")
    l_op = model.lindblads[meas]
    l_dag = l_op.conj().T.copy()
    l_sum_t = (l_op + l_dag).T.copy()  # tr(l_sum @ rho) == sum(l_sum_t * rho)
    s = liouvillian(model)
    sq_eta = np.sqrt(eta)

    rho = rho0.copy()
    states = np.empty((times.size, d, d), dtype=complex)
    states[0] = rho0
    total_clip = 0.0
    filtering = record_out is None
    for i in range(times.size - 1):
        m = (l_sum_t * rho).sum().real
        if filtering:
            dw = increments[i] - sq_eta * m * dt
        else:
            dw = increments[i]
            record_out[i] = sq_eta * m * dt + dw
        drift = (s @ rho.reshape(-1)).reshape(d, d)
        innovation = l_op @ rho + rho @ l_dag - m * rho
        rho = rho + dt * drift + (sq_eta * dw) * innovation
        rho, lost = _project_psd(rho)
        total_clip += lost
        states[i + 1] = rho
    logger.debug("sme step loop: total clipped eigenvalue weight %.3e", total_clip)
    return times, states


def sme_simulate(
    model: LindbladModel, meas: int, eta: float, rho0, times, seed: int
) -> Trajectory:
    """Diffusive measurement trajectory with its record, seeded and
    bitwise reproducible."""
    times_arr, dt = _check_grid(times)
    rng = np.random.default_rng(seed)
    dw = rng.normal(0.0, np.sqrt(dt), size=times_arr.size - 1)
    record = np.empty(times_arr.size - 1)
    times_arr, states = _sme_run(model, meas, eta, rho0, times_arr, dw, record)
    return Trajectory(times=times_arr, states=states, record=record, seed=int(seed))


def filter_estimate(
    model: LindbladModel, record, meas: int, eta: float, rho0, times
) -> Trajectory:
    """State filter: propagate the diffusive master equation driven by the
    innovations computed from the filter's own state."""
    times_arr, _ = _check_grid(times)
    record = np.asarray(record, dtype=float)
    if record.shape != (times_arr.size - 1,):
        raise ValueError(
            f"record length {record.shape} does not match grid ({times_arr.size - 1} steps)"
        )
    times_arr, states = _sme_run(model, meas, eta, rho0, times_arr, record, None)
    return Trajectory(times=times_arr, states=states, record=record, seed=None)


def ensemble_stats(
    model: LindbladModel,
    meas: int,
    eta: float,
    rho0,
    times,
    n_traj: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and entrywise standard error of the mean over an ensemble of
    ``n_traj >= 2`` measurement trajectories (seeds derived
    deterministically from ``master_seed``)."""
    if n_traj < 2:
        raise ValueError(f"an ensemble needs at least 2 trajectories, got {n_traj}")
    times_arr, _ = _check_grid(times)
    seeds = [int(s) for s in np.random.SeedSequence(master_seed).generate_state(n_traj)]
    results = np.stack(
        [sme_simulate(model, meas, eta, rho0, times_arr, s).states for s in seeds]
    )

    mean = results.mean(axis=0)
    var = ((results.real - mean.real) ** 2 + (results.imag - mean.imag) ** 2).sum(axis=0)
    sem = np.sqrt(var / (n_traj * (n_traj - 1)))
    return mean, sem


@dataclass
class FitResult:
    theta: np.ndarray
    cost: float
    curve: list  # (theta tuple, cost) pairs in evaluation order
    skipped: list

    def to_json(self) -> dict:
        return {
            "theta": [float(x) for x in self.theta],
            "cost": self.cost,
            "curve": [{"theta": list(t), "cost": c} for t, c in self.curve],
            "skipped": [list(t) for t in self.skipped],
        }


def _golden_min(f, lo, hi, xtol):
    # Golden-section search on [lo, hi]; deterministic, no external state.
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def fit_parameters(
    est: Trajectory,
    family: ModelFamily,
    grid,
    checkpoints=None,
    refine: bool = True,
    xtol: float = 1e-4,
) -> FitResult:
    """Match a model family to an estimated trajectory.

    cost(θ) = sum_k |ρ_θ(t_k) − ρ_est(t_k)|_F² over checkpoint indices
    (all grid times by default), with ρ_θ integrated deterministically from
    the same initial state on the same grid.  A coarse scan over the
    Cartesian parameter grid is followed by coordinate-wise golden-section
    refinement inside the best grid cell.  Non-finite costs (integrator
    failures at extreme θ) are skipped and reported.
    """
    import itertools

    grid = [np.asarray(g, dtype=float) for g in grid]
    if len(grid) != family.n_params:
        raise ValueError(f"grid must supply {family.n_params} parameter ranges")
    if any(g.size == 0 for g in grid):
        raise ValueError("empty parameter grid")
    times = est.times
    rho0 = est.states[0]
    idx = np.arange(times.size) if checkpoints is None else np.asarray(checkpoints)
    ref = est.states[idx]

    curve: list = []
    skipped: list = []

    def cost(theta):
        theta = np.asarray(theta, dtype=float)
        try:
            traj = lindblad_evolve(family.at(theta), rho0, times)
        except (StepSizeError, FloatingPointError, ValueError):
            skipped.append(tuple(theta))
            logger.info("fit: skipped non-integrable point %s", theta)
            return np.inf
        c = float(np.sum(np.abs(traj.states[idx] - ref) ** 2))
        curve.append((tuple(float(x) for x in theta), c))
        return c

    best_theta, best_cost = None, np.inf
    for combo in itertools.product(*grid):
        c = cost(np.asarray(combo))
        if c < best_cost:
            best_theta, best_cost = np.asarray(combo, dtype=float), c

    if best_theta is None or not np.isfinite(best_cost):
        raise ValueError("no parameter point produced a finite cost")

    if refine:
        theta = best_theta.copy()
        for _ in range(2):  # two coordinate passes
            for j, g in enumerate(grid):
                if g.size < 2:
                    continue
                i = int(np.argmin(np.abs(g - theta[j])))
                lo = g[max(i - 1, 0)]
                hi = g[min(i + 1, g.size - 1)]
                if hi <= lo:
                    continue

                def along(x, j=j):
                    t = theta.copy()
                    t[j] = x
                    return cost(t)

                theta[j] = _golden_min(along, lo, hi, xtol)
        final = cost(theta)
        if final < best_cost:
            best_theta, best_cost = theta, final

    return FitResult(theta=best_theta, cost=best_cost, curve=curve, skipped=skipped)
