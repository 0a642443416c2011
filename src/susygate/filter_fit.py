"""Lindblad and diffusive stochastic master equations, the associated
state filter, and parameter fitting against filtered trajectories.

Both master equations share one drift G = −iH − ½ sum_k L_k†L_k and act
on the row-major vec(ρ).  Deterministic evolution integrates

    dρ/dt = Gρ + ρG† + sum_k L_k ρ L_k†   (generator G⊗I + I⊗Ḡ + sum_k L_k⊗L̄_k)

with a fixed-step classic Runge-Kutta scheme.  The generator is constant,
so one RK4 step is a fixed d²×d² matrix R; the integrator stacks its powers
R¹…R^B and advances B steps per batched product, renormalizing each state's
trace, then checks positivity with one batched eigenvalue call per
trajectory (so an aborted run has integrated the whole grid).

The diffusive unraveling under continuous monitoring of one channel L with
efficiency η takes the completely positive Kraus-form step of Rouchon &
Ralph, PRA 91, 012118 (2015):

    M  = I + G dt + √η L dY,
    ρ ↦ ( MρM† + sum_k c_k dt L_k ρ L_k† ) / tr(·),

with c_k = 1 − η for the measured channel and 1 for every other one.  On
vec(ρ) the step is K0 + dY·K1 + dY²·K2, linear in ρ and quadratic in dY,
with M0 = I + G dt, s = √η L and the fixed superoperators
K0 = M0⊗M̄0 + sum_k c_k dt L_k⊗L̄_k, K1 = s⊗M̄0 + M0⊗s̄, K2 = s⊗s̄.  The
simulator draws dY = √η tr((L+L†)ρ) dt + dW and records it; the filter
takes dY from a record and is otherwise the same step.  Each step is a
positive map, so states stay positive semidefinite by construction.

Fitting scans a parameter grid, then runs damped Gauss–Newton from the
best grid point with exact trajectory sensitivities as its Jacobian.

Fixed steps everywhere: runs are bitwise reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, StepSizeError
from .serialize import matrix_from_json, stack_to_json
from .solver import gauss_newton

POSITIVITY_FLOOR = -1e-4  # eigenvalue below this aborts deterministic runs
# lindblad_evolve advances BLOCK_STEPS steps per batched product, fewer when
# the stacked step-matrix powers (16·d⁴ bytes each) would exceed STACK_BYTES
BLOCK_STEPS = 64
STACK_BYTES = 4 << 20


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
    [times[i], times[i+1]].  ``diagnostics`` holds what the integrator
    measured along the way (see :func:`lindblad_evolve`); it is not part
    of the JSON schema.
    """

    times: np.ndarray
    states: np.ndarray  # (n_times, d, d)
    record: np.ndarray | None = None
    seed: int | None = None
    diagnostics: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check every state at once; each test is written so that NaN fails it."""
        rho = self.states
        if rho.shape[0] != self.times.shape[0]:
            raise ValueError("states/times length mismatch")
        if self.record is not None and self.record.shape[0] != self.times.shape[0] - 1:
            raise ValueError("record length must be n_times - 1")
        if not np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)), initial=0.0) <= 1e-8:
            raise ValueError("state not Hermitian")
        if not np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0), initial=0.0) <= 1e-8:
            raise ValueError("state trace differs from 1")
        if not -np.min(np.linalg.eigvalsh(rho), initial=0.0) <= 1e-6:
            raise ValueError("state has a negative eigenvalue beyond tolerance")

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "states": stack_to_json(self.states),
            "record": None if self.record is None else self.record.tolist(),
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


def _drift(model: LindbladModel) -> np.ndarray:
    """G = −iH − ½ sum_k L_k†L_k, so the generator is Gρ + ρG† + sum_k L_kρL_k†."""
    return -1j * model.hamiltonian - 0.5 * sum(l.conj().T @ l for l in model.lindblads)


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Generator as a d²×d² matrix acting on row-major vec(ρ)."""
    g, eye = _drift(model), np.eye(model.dim)
    jumps = sum(np.kron(l, l.conj()) for l in model.lindblads)
    return np.kron(g, eye) + np.kron(eye, g.conj()) + jumps


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


def _block_len(n: int) -> int:
    """Steps per block for a linear step on vectors of length n."""
    return max(1, min(BLOCK_STEPS, STACK_BYTES // (16 * n * n)))


def _stacked_powers(r: np.ndarray, b: int) -> np.ndarray:
    """R¹…R^b stacked as one (b·n, n) matrix, so stack[: k·n] @ y holds
    the next k states of y ↦ R y."""
    powers = np.empty((b, *r.shape), dtype=complex)
    powers[0] = r
    for k in range(1, b):
        powers[k] = r @ powers[k - 1]
    return powers.reshape(b * r.shape[0], r.shape[1])


def lindblad_evolve(model: LindbladModel, rho0, times) -> Trajectory:
    """Deterministic master-equation trajectory on a uniform grid.

    One classic RK4 step is the fixed d²×d² matrix R = ``_rk4_step(S, I,
    dt)``.  The powers R¹…R^B are stacked once per call, and each block of
    B steps is one product R^k·y with y the block's first state; every
    state is then divided by its own trace, which is the stepwise
    integrator with per-step renormalization up to rounding.  Once the
    whole grid is integrated, a state with an eigenvalue below −1e−4, or a
    non-finite one, aborts with :class:`StepSizeError` naming the first
    such step, so an abort costs as much as a completed run.
    ``diagnostics`` holds ``max_trace_drift`` (largest |tr Rρ − 1| over
    the steps) and ``min_eigenvalue`` (over the integrated states, t > t₀).
    """
    times, dt = _check_grid(times)
    d = model.dim
    n = d * d
    rho0 = _check_state(rho0, d)
    n_steps = times.size - 1
    b = min(_block_len(n), n_steps)
    diag_idx = np.arange(d) * (d + 1)

    states = np.empty((times.size, d, d), dtype=complex)
    states[0] = rho0
    traces = np.empty(n_steps)
    # an unstable step overflows the powers and the states; all are checked below
    with np.errstate(all="ignore"):
        stack = _stacked_powers(_rk4_step(liouvillian(model), np.eye(n), dt), b)
        for i in range(0, n_steps, b):
            k = min(b, n_steps - i)
            blk = (stack[: k * n] @ states[i].reshape(-1)).reshape(k, n)
            traces[i : i + k] = blk[:, diag_idx].sum(axis=1).real
            states[i + 1 : i + 1 + k] = (blk / traces[i : i + k, None]).reshape(k, d, d)

        finite = np.isfinite(states[1:]).all(axis=(1, 2))
        stop = n_steps if finite.all() else int(np.argmin(finite))
        low = np.linalg.eigvalsh(states[1 : 1 + stop]).min(axis=1)
        bad = np.flatnonzero(~(low >= POSITIVITY_FLOOR))
        if bad.size:
            raise StepSizeError(
                f"eigenvalue {low[bad[0]]:.3e} below {POSITIVITY_FLOOR} "
                f"at t={times[1 + bad[0]]:.6g}; reduce the step size"
            )
        if stop < n_steps:
            raise StepSizeError(
                f"non-finite state at t={times[1 + stop]:.6g}; reduce the step size"
            )
        # each block's first trace is relative to its normalized start state
        prev = np.concatenate(([1.0], traces[:-1]))
        prev[::b] = 1.0
        drift = np.abs(traces / prev - 1.0)
    return Trajectory(
        times=times,
        states=states,
        diagnostics={"max_trace_drift": float(drift.max()), "min_eigenvalue": float(low.min())},
    )


def _sme_run(model, meas, eta, rho0, dt, increments, record_out):
    """Shared Kraus-form core on row-major vec(ρ): `increments[i]` supplies
    dW for step i when simulating (dY is written to `record_out`), or the
    recorded dY when filtering (record_out=None).  Returns the states."""
    d = model.dim
    rho0 = _check_state(rho0, d)
    if not (0.0 < eta <= 1.0):
        raise ValueError("efficiency must satisfy 0 < eta <= 1")
    if not (0 <= meas < len(model.lindblads)):
        raise ValueError("measurement index outside the model's Lindblad list")
    m0 = np.eye(d) + dt * _drift(model)
    s = np.sqrt(eta) * model.lindblads[meas]
    k2 = np.kron(s, s.conj())
    # sum_k c_k dt L_k⊗L̄_k = dt (sum_k L_k⊗L̄_k − s⊗s̄), as s⊗s̄ = η L⊗L̄
    k0 = np.kron(m0, m0.conj()) + dt * (sum(np.kron(l, l.conj()) for l in model.lindblads) - k2)
    stack = np.concatenate([k0, np.kron(s, m0.conj()) + np.kron(m0, s.conj()), k2])
    ell = (s + s.conj().T).T.reshape(-1)  # ell @ vec(ρ) == √η tr((L+L†)ρ)
    states = np.empty((len(increments) + 1, d * d), dtype=complex)
    states[0] = v = rho0.reshape(-1)
    for i, inc in enumerate(increments.tolist()):
        if record_out is None:
            dy = inc
        else:
            dy = ell.dot(v).real * dt + inc
            record_out[i] = dy
        v = np.array([1.0, dy, dy * dy]).dot(stack.dot(v).reshape(3, -1))
        v /= v[:: d + 1].sum().real
        states[i + 1] = v
    return states.reshape(-1, d, d)


def sme_simulate(
    model: LindbladModel, meas: int, eta: float, rho0, times, seed: int
) -> Trajectory:
    """Diffusive measurement trajectory with its record, seeded and
    bitwise reproducible."""
    times_arr, dt = _check_grid(times)
    rng = np.random.default_rng(seed)
    dw = rng.normal(0.0, np.sqrt(dt), size=times_arr.size - 1)
    record = np.empty(times_arr.size - 1)
    states = _sme_run(model, meas, eta, rho0, dt, dw, record)
    return Trajectory(times=times_arr, states=states, record=record, seed=int(seed))


def filter_estimate(
    model: LindbladModel, record, meas: int, eta: float, rho0, times
) -> Trajectory:
    """State filter: the same Kraus-form step as :func:`sme_simulate`,
    driven by the recorded increments dY."""
    times_arr, dt = _check_grid(times)
    record = np.asarray(record, dtype=float)
    if record.shape != (times_arr.size - 1,):
        raise ValueError(
            f"record length {record.shape} does not match grid ({times_arr.size - 1} steps)"
        )
    states = _sme_run(model, meas, eta, rho0, dt, record, None)
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
    seeds = [int(s) for s in np.random.SeedSequence(master_seed).generate_state(n_traj)]
    results = np.stack([sme_simulate(model, meas, eta, rho0, times, s).states for s in seeds])

    mean = results.mean(axis=0)
    var = ((results.real - mean.real) ** 2 + (results.imag - mean.imag) ** 2).sum(axis=0)
    sem = np.sqrt(var / (n_traj * (n_traj - 1)))
    return mean, sem


@dataclass
class FitResult:
    theta: np.ndarray
    cost: float
    curve: list  # (theta tuple, cost) per distinct point, in evaluation order
    skipped: list
    trajectory: Trajectory  # lindblad_evolve of theta, as integrated by the fit
    converged: bool
    final_states: dict  # theta tuple -> final state, per integrated point


def _tangents(family: ModelFamily, theta, states: np.ndarray, dt: float) -> np.ndarray:
    """Exact derivatives dρ_k/dθ_j, shape (n_params, n_times, d, d), of the
    :func:`lindblad_evolve` trajectory ``states`` of ``family.at(theta)``.

    The generator is affine in θ, so the RK4 step of the block generator
    [[S, 0], [S_j, S]] is [[R, 0], [dR/dθ_j, R]] (Van Loan, IEEE TAC 23,
    395 (1978)) and the tangents obey Y_{k+1} = R Y_k + (dR/dθ_j) ρ_k.
    Each θ_j gets its own 2d² generator; its stacked powers advance that
    tangent a block at a time from the block's stored state.
    """
    d = states.shape[1]
    n = d * d
    terms = [LindbladModel(h, ()) for h in family.h_terms]
    terms += [LindbladModel(np.zeros((d, d)), (base,)) for base in family.rate_bases]
    gen = np.kron(np.eye(2), liouvillian(family.at(theta)))
    n_steps = states.shape[0] - 1
    b = min(_block_len(2 * n), n_steps)

    flat = states.reshape(-1, n)
    tangents = np.zeros((len(terms), states.shape[0], n), dtype=complex)
    for term, tangent in zip(terms, tangents):
        gen[n:, :n] = liouvillian(term)
        # keep the tangent rows [dR^m/dθ_j, R^m] of each power m = 1..b
        stack = _stacked_powers(_rk4_step(gen, np.eye(2 * n), dt), b).reshape(b, 2 * n, 2 * n)
        stack = stack[:, n:].reshape(b * n, 2 * n)
        for i in range(0, n_steps, b):
            k = min(b, n_steps - i)
            y = np.concatenate([flat[i], tangent[i]])
            tangent[i + 1 : i + 1 + k] = (stack[: k * n] @ y).reshape(k, n)
    return tangents.reshape(len(terms), -1, d, d)


def fit_parameters(est: Trajectory, family: ModelFamily, grid, xtol: float = 1e-4) -> FitResult:
    """Match a model family to an estimated trajectory.

    cost(θ) = sum_k |ρ_θ(t_k) − ρ_est(t_k)|_F² over all grid times, with
    ρ_θ integrated deterministically from the same initial state on the
    same grid.  A scan over the Cartesian parameter grid picks the start of
    :func:`~susygate.solver.gauss_newton` with step tolerance ``xtol``; its
    Jacobian comes from the exact trajectory sensitivities of
    :func:`_tangents`.  A θ outside the grid's hull is a failed step and is
    never integrated, so θ* stays inside the declared ranges.  Each
    distinct θ is integrated once: ``curve`` and ``skipped`` list distinct
    points in evaluation order, grid points first, and ``final_states``
    holds the last state of each integrated point.  Non-finite costs
    (integrator failures at extreme θ) are skipped and reported, and
    :class:`~susygate.errors.NonFiniteError` is raised when every grid
    point's is.  The result is the lowest-cost point evaluated, with its
    trajectory.
    """
    import itertools

    if not (np.isfinite(xtol) and xtol > 0):
        raise ValueError(f"xtol must be positive and finite, got {xtol!r}")
    grid = [np.asarray(g, dtype=float) for g in grid]
    if len(grid) != family.n_params:
        raise ValueError(f"grid must supply {family.n_params} parameter ranges")
    if any(g.size == 0 for g in grid):
        raise ValueError("empty parameter grid")
    times, dt = _check_grid(est.times)
    rho0 = est.states[0]
    lo, hi = np.array([[g.min(), g.max()] for g in grid]).T

    costs: dict = {}  # distinct θ -> cost (inf if skipped), in evaluation order
    final_states: dict = {}
    best = {"cost": np.inf}  # lowest-cost point: key, cost, trajectory, evaluation
    failed = (np.full(1, np.inf), None)

    def evaluate(theta):
        key = tuple(float(x) for x in theta)
        if key == best.get("key"):
            return best["eval"]
        # each step starts from the best point so far, which no point seen
        # before can beat
        if key in costs or not np.all((lo <= theta) & (theta <= hi)):
            return failed
        try:
            traj = lindblad_evolve(family.at(theta), rho0, times)
        except (StepSizeError, FloatingPointError, ValueError):
            costs[key] = np.inf
            return failed
        diff = (traj.states - est.states).reshape(-1)
        r = np.concatenate([diff.real, diff.imag])
        costs[key] = float(r @ r)
        final_states[key] = traj.states[-1].copy()  # not a view of every state

        def jacobian():
            y = _tangents(family, theta, traj.states, dt).reshape(family.n_params, -1)
            return np.concatenate([y.real, y.imag], axis=1).T

        if costs[key] < best["cost"]:
            best.update(key=key, cost=costs[key], traj=traj, eval=(r, jacobian))
        return r, jacobian

    for combo in itertools.product(*grid):
        evaluate(np.asarray(combo))
    if "key" not in best:
        raise NonFiniteError("no parameter point produced a finite cost")
    _, converged = gauss_newton(evaluate, best["key"], xtol)

    curve = [(t, c) for t, c in costs.items() if np.isfinite(c)]
    skipped = [t for t, c in costs.items() if not np.isfinite(c)]
    return FitResult(
        theta=np.asarray(best["key"]), cost=best["cost"], curve=curve, skipped=skipped,
        trajectory=best["traj"], converged=converged, final_states=final_states,
    )
