"""Lindblad and diffusive stochastic master equations, the associated
state filter, and parameter fitting against filtered trajectories.

Both master equations share one drift G = −iH − ½ sum_k L_k†L_k and act
on the row-major vec(ρ).  Deterministic evolution integrates

    dρ/dt = Gρ + ρG† + sum_k L_k ρ L_k†   (generator G⊗I + I⊗Ḡ + sum_k L_k⊗L̄_k)

by its exact step.  The generator S is constant, so one step is the fixed
d²×d² matrix R = e^{S·dt}, the TPCP map of the master equation over dt for
every dt (``dyson.expm``); the integrator advances m steps per batched
product with R^m, squaring it as the filled rows double, then tests every
state as ``Trajectory.validate`` does, all at once.  R is a power series in
S, and vec(I)ᵀS = 0, so vec(I)ᵀR = vec(I)ᵀ: every step preserves the trace,
and no state is renormalized.  The computed R misses that identity by about
eps·‖S·dt‖, so the integrator restores it once, before any power is taken.

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

The step is folded into one fixed stack (:func:`_sme_stack`) of three
(d²+2)×d² blocks [K_j; vec(I)ᵀK_j; ℓᵀK_j], with ℓ·vec(ρ) = √η tr((L+L†)ρ).
One product with vec(ρ), mixed by (1, dY, dY²), gives the unnormalized
next state ρ′, its trace t and ℓ·vec(ρ′): the state is ρ′/t, and the next
mean is ℓ·vec(ρ′)/t, so no step sums a diagonal or takes a second product.
The range of t is returned as a diagnostic: far from 1, the step does not
resolve the measurement.

Fitting scans a parameter grid, then runs damped Gauss–Newton from the
best grid point with exact trajectory sensitivities as its Jacobian.

Fixed steps everywhere: runs are bitwise reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyson import expm
from .errors import IntegrationError, NonFiniteError
from .fock import require_hermitian
from .serialize import float_array, scalar
from .solver import gauss_newton, sum_squares

HERMITIAN_TOL = 1e-8  # largest |ρ − ρ†| entry of a valid state (see _state_faults)
EIGENVALUE_FLOOR = -1e-6  # and its smallest eigenvalue
_STATE_FAULTS = ("not Hermitian", "trace differs from 1", "has a negative eigenvalue")
# _propagate squares a step on vectors of length N to powers m ≤ STACK_BYTES/(16·N²),
# so a large model pays few N³ squarings; the state checks read a stack in slices
# of at most STACK_BYTES
STACK_BYTES = 4 << 20


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus a list of Lindblad (jump) operators."""

    hamiltonian: np.ndarray
    lindblads: tuple

    def __post_init__(self):
        h = require_hermitian(self.hamiltonian, "Hamiltonian")
        ops = tuple(np.asarray(l, dtype=complex) for l in self.lindblads)
        if any(l.shape != h.shape for l in ops):
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
        shape = require_hermitian(self.h0, "h0").shape
        if any(np.shape(m) != shape for m in (*self.h_terms, *self.rate_bases, *self.lindblads)):
            raise ValueError(f"every term and Lindblad operator must have h0's shape {shape}")
        for b in self.h_terms:
            require_hermitian(b, "Hamiltonian basis terms")
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
    measured along the way (see :func:`lindblad_evolve` and
    :func:`sme_simulate`); it is not part of the JSON schema.

    In JSON each d×d state is the row of its d² real Hermitian
    coordinates: the real diagonal, then Re and then Im of the strict upper
    triangle, in row-major ``triu_indices(d, 1)`` order.  The writer refuses
    a state whose anti-Hermitian part exceeds ``HERMITIAN_TOL`` (the bound
    :meth:`validate` applies) rather than drop it; the reader rebuilds the
    lower triangle as the conjugate of the upper one, so every state it
    returns is exactly Hermitian.
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
        if (first := _state_faults(rho)[0].min(initial=3)) < 3:
            raise ValueError(f"state {_STATE_FAULTS[first]}")

    def to_json(self) -> dict:
        rho = np.asarray(self.states)
        # NaN passes this test, so that save_json refuses it as non-finite
        if np.max(_hermitian_defect(rho), initial=0.0) > HERMITIAN_TOL:
            raise ValueError(f"state not Hermitian to {HERMITIAN_TOL}; "
                             "its coordinates would drop the anti-Hermitian part")
        d = rho.shape[-1]
        i, j = np.triu_indices(d, 1)
        upper = rho[:, i, j]
        coords = np.concatenate([np.diagonal(rho, axis1=1, axis2=2).real, upper.real, upper.imag],
                                axis=1)
        return {
            "dim": d,
            "times": self.times.tolist(),
            "states": coords.tolist(),
            "record": None if self.record is None else self.record.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Trajectory":
        try:
            d, rows, times = scalar(obj, "dim", int), obj["states"], obj["times"]
            bad = next((k for k, row in enumerate(rows) if len(row) != d * d), None)
            coords = None if bad is not None else float_array(rows, "states")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a trajectory object: {exc}") from exc
        if d < 1:
            raise ValueError(f"dim must be at least 1, got {d}")
        if bad is not None:
            raise ValueError(f"state {bad} has {len(rows[bad])} coordinates, "
                             f"expected dim² = {d * d}")
        if coords.shape != (len(rows), d * d):
            raise ValueError(f"expected one row of {d * d} numbers per state")
        i, j = np.triu_indices(d, 1)
        re, im = coords[:, d : d + i.size], coords[:, d + i.size :]
        # part by part, so every stored bit survives (see matrix_from_json)
        states = np.zeros((len(rows), d, d), dtype=complex)
        states.real[:, range(d), range(d)] = coords[:, :d]
        states.real[:, i, j], states.imag[:, i, j] = re, im
        states.real[:, j, i], states.imag[:, j, i] = re, -im
        record = obj.get("record")
        return cls(
            times=float_array(times, "times"),
            states=states,
            record=None if record is None else float_array(record, "record"),
            seed=None if obj.get("seed") is None else scalar(obj, "seed", int),
        )


def _slices(rho: np.ndarray) -> list:
    """The stack ``rho`` (..., d, d) as itself if it holds at most
    ``STACK_BYTES``, else as (k, d, d) slices of at most that (one state at
    least), so that a check's temporaries grow with a slice, not a stack."""
    if rho.nbytes <= STACK_BYTES:
        return [rho]
    d = rho.shape[-1]
    flat = rho.reshape(-1, d, d)
    step = max(1, STACK_BYTES // (flat.itemsize * d * d))
    return [flat[i : i + step] for i in range(0, len(flat), step)]


def _join(parts: list, shape) -> np.ndarray:
    """Per-slice results of :func:`_slices` as one array of the stack's ``shape``."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts).reshape(shape)


def _hermitian_defect(rho: np.ndarray) -> np.ndarray:
    """Largest |ρ − ρ†| entry of each state of a stack (..., d, d): inf or
    NaN, without a warning, for a state with a non-finite entry (an infinite
    diagonal entry gives inf − inf)."""
    i, j = np.nonzero(np.tri(rho.shape[-1], dtype=bool).T)  # np.triu_indices, 4x faster
    with np.errstate(invalid="ignore"):
        parts = [np.abs(s[..., i, j] - s[..., j, i].conj()).max(axis=-1) for s in _slices(rho)]
    return _join(parts, rho.shape[:-2])


def _state_faults(rho: np.ndarray, floor=EIGENVALUE_FLOOR):
    """Index into ``_STATE_FAULTS`` of the first test each state of a stack
    (..., d, d) fails (3 if none): |ρ − ρ†| ≤ HERMITIAN_TOL, |tr ρ − 1| ≤ 1e-8,
    smallest eigenvalue ≥ ``floor``; and that eigenvalue, which sees a
    non-finite state (failing the first test) as zeros.

    Like eigvalsh, the eigenvalue reads the real diagonal and the lower
    triangle.  At d = 2 it is the closed form (a + c)/2 − hypot((a − c)/2, |b|)
    with a, c the diagonal and b = ρ₁₀: LAPACK takes about 0.6 µs per 2×2
    matrix, more than a Lindblad step.  Larger states take one batched
    eigvalsh per slice (:func:`_slices`); every state is tested on its own,
    so slicing changes no bit.
    """
    parts = [_slice_faults(s, floor) for s in _slices(rho)]
    return tuple(_join(p, rho.shape[:-2]) for p in zip(*parts))


def _slice_faults(rho: np.ndarray, floor):
    herm = _hermitian_defect(rho)
    tr = np.abs(np.einsum("...ii->...", rho).real - 1.0)
    ok = np.isfinite(herm)
    safe = rho if ok.all() else np.where(ok[..., None, None], rho, 0)
    if rho.shape[-1] == 2:
        # halves before sums, so that no finite state overflows
        a, c = safe[..., 0, 0].real / 2, safe[..., 1, 1].real / 2
        low = (a + c) - np.hypot(a - c, np.abs(safe[..., 1, 0]))
    else:
        low = np.linalg.eigvalsh(safe)[..., 0]
    return np.where(herm <= HERMITIAN_TOL,
                    np.where(tr <= 1e-8, np.where(low >= floor, 3, 2), 1), 0), low


def _drift(model: LindbladModel) -> np.ndarray:
    """G = −iH − ½ sum_k L_k†L_k, so the generator is Gρ + ρG† + sum_k L_kρL_k†."""
    return -1j * model.hamiltonian - 0.5 * sum(l.conj().T @ l for l in model.lindblads)


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Generator as a d²×d² matrix acting on row-major vec(ρ)."""
    g, eye = _drift(model), np.eye(model.dim)
    jumps = sum(np.kron(l, l.conj()) for l in model.lindblads)
    return np.kron(g, eye) + np.kron(eye, g.conj()) + jumps


def _check_grid(times) -> tuple[np.ndarray, float]:
    """``times`` as a float array and its step dt.  ValueError unless it is
    a finite, strictly increasing, uniform 1-D grid of at least two points
    whose steps are finite too; each test is written so that NaN fails it."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-D grid with at least two points")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    with np.errstate(over="ignore"):
        dts = np.diff(times)
    if not np.isfinite(dts).all():
        raise ValueError("time steps must be finite; one overflows a double")
    if not (dts > 0).all():
        raise ValueError("times must be strictly increasing")
    dt = dts[0]
    if not np.max(np.abs(dts - dt)) <= 1e-9 * max(dt, 1.0):
        raise ValueError("times must be a uniform grid")
    return times, float(dt)


def _check_state(rho, d) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} != ({d}, {d})")
    if (fault := _state_faults(rho, -1e-8)[0]) < 3:
        raise ValueError(f"initial state {_STATE_FAULTS[fault]}")
    return rho


def _block_len(n: int) -> int:
    """Largest power m of a linear step on vectors of length n that
    :func:`_propagate` advances by: the m complex rows one product writes."""
    return max(1, STACK_BYTES // (16 * n * n))


def _step(s: np.ndarray, dt: float) -> np.ndarray:
    """The step R = e^{S·dt}.  A generator with ‖S·dt‖₁ not finite or not
    below 2⁵³, past which no double resolves a step, raises
    :class:`IntegrationError` instead."""
    a = s * dt
    rho = float(np.abs(a).sum(axis=0).max())
    if not rho < 2.0**53:
        raise IntegrationError(f"step generator norm ‖S·dt‖₁ = {rho:.3g} is not below 2^53")
    return expm(a, rho)


def _propagate(r: np.ndarray, ys: np.ndarray, given: int = 0) -> None:
    """Fill rows 1… of ``ys`` (T, N) with R^k applied to row 0, in the columns
    after the first ``given``, which the caller fills: rows [i, i + k), k ≤ m,
    are the rows m before them times R^m, squared while 2m ≤ ``_block_len(N)``."""
    cap, n_rows = _block_len(ys.shape[1]), ys.shape[0]
    power, m, i = r, 1, 1
    while i < n_rows:
        k = min(m, n_rows - i)
        np.matmul(ys[i - m : i - m + k], power[given:].T, out=ys[i : i + k, given:])
        i += k
        if 2 * m <= cap and i < n_rows:
            power, m = power @ power, 2 * m


def lindblad_evolve(model: LindbladModel, rho0, times) -> Trajectory:
    """Deterministic master-equation trajectory on a uniform grid.

    One step is the fixed d²×d² matrix R = e^{S·dt} (:func:`_step`), and
    m states at a time are one product with R^m, squared as they double
    (:func:`_propagate`).  R preserves the trace, and its trace rows are
    corrected once to sum to vec(I)ᵀ where rounding moved them, so no state
    is renormalized: the result is the stepwise integrator up to rounding.
    That rounding grows with ‖S·dt‖ and the step count; once the whole grid
    is integrated, the first state that :meth:`Trajectory.validate` would
    reject aborts with :class:`IntegrationError` naming its step.
    ``diagnostics`` holds ``max_trace_drift`` (largest per-step trace
    change |tr ρ_{k+1} − tr ρ_k| of the returned states) and
    ``min_eigenvalue`` (over the integrated states, t > t₀).
    """
    times, dt = _check_grid(times)
    d = model.dim
    n = d * d
    rho0 = _check_state(rho0, d)

    states = np.empty((times.size, d, d), dtype=complex)
    states[0] = rho0
    # a huge generator overflows its norm, which _step refuses.  The trace
    # rows of the computed R miss vec(I)ᵀ by about eps·‖S·dt‖, a drift that
    # every step would add to, so their sum's error is shared out over them
    with np.errstate(all="ignore"):
        r = _step(liouvillian(model), dt)
        diag = r[:: d + 1]
        diag -= (diag.sum(axis=0) - np.eye(d).reshape(-1)) / d
        _propagate(r, states.reshape(times.size, n))

    fault, low = _state_faults(states[1:])
    k = np.argmax(fault < 3)
    if fault[k] < 3:
        raise IntegrationError(f"state {_STATE_FAULTS[fault[k]]} (smallest eigenvalue "
                               f"{low[k]:.3e}) at t={times[1 + k]:.6g}")
    drift = np.abs(np.diff(np.einsum("kii->k", states).real))
    return Trajectory(
        times=times,
        states=states,
        diagnostics={"max_trace_drift": float(drift.max()), "min_eigenvalue": float(low.min())},
    )


def _sme_stack(model, meas, eta, dt) -> tuple[np.ndarray, np.ndarray]:
    """The step stack of the Kraus-form SME and filter, shape (3, d²+2, d²):
    block j is [K_j; vec(I)ᵀK_j; ℓᵀK_j], so that its product with vec(ρ) also
    gives the trace t and ℓ·vec(ρ′) of the unnormalized next state ρ′.  Also
    returns ℓ, with ℓ·vec(ρ) = √η tr((L+L†)ρ), for the first step's mean."""
    if not (0.0 < eta <= 1.0):
        raise ValueError("efficiency must satisfy 0 < eta <= 1")
    if not (0 <= meas < len(model.lindblads)):
        raise ValueError("measurement index outside the model's Lindblad list")
    d = model.dim
    m0 = np.eye(d) + dt * _drift(model)
    s = np.sqrt(eta) * model.lindblads[meas]
    k2 = np.kron(s, s.conj())
    # sum_k c_k dt L_k⊗L̄_k = dt (sum_k L_k⊗L̄_k − s⊗s̄), as s⊗s̄ = η L⊗L̄
    k0 = np.kron(m0, m0.conj()) + dt * (sum(np.kron(l, l.conj()) for l in model.lindblads) - k2)
    blocks = np.stack([k0, np.kron(s, m0.conj()) + np.kron(m0, s.conj()), k2])
    ell = (s + s.conj().T).T.reshape(-1)
    rows = np.stack([np.eye(d).reshape(-1), ell])
    return np.concatenate([blocks, rows @ blocks], axis=1), ell


def _sme_run(model, meas, eta, rho0, dt, increments, simulate):
    """Shared Kraus-form loop on row-major vec(ρ): `increments[i]` is dW for
    step i when simulating, whose dY is then the mean √η tr((L+L†)ρ)·dt plus
    dW, or the recorded dY when filtering.  One product with the
    :func:`_sme_stack` gives each unnormalized state with its trace t and,
    divided by t, the next step's mean.  Returns the states, the list of dY
    when simulating (else None), and the smallest and largest t as
    diagnostics."""
    d = model.dim
    n = d * d
    rho0 = _check_state(rho0, d)
    stack, ell = _sme_stack(model, meas, eta, dt)
    flat = stack.reshape(-1, n)  # a 2-D matrix-vector product costs less than the 3-D dot
    states = np.empty((len(increments) + 1, n), dtype=complex)
    states[0] = v = rho0.reshape(-1)
    record = [] if simulate else None
    traces = []
    t, e = 1.0, ell.dot(v).item()
    for i, dy in enumerate(increments.tolist(), 1):
        if simulate:
            dy += e.real / t.real * dt
            record.append(dy)
        x = np.array((1.0, dy, dy * dy)).dot(flat.dot(v).reshape(3, -1))
        t, e = x[n:].tolist()
        traces.append(t.real)
        v = states[i]
        np.divide(x[:n], t.real, out=v)
    diagnostics = {"min_step_trace": min(traces), "max_step_trace": max(traces)}
    return states.reshape(-1, d, d), record, diagnostics


def sme_simulate(
    model: LindbladModel, meas: int, eta: float, rho0, times, seed: int
) -> Trajectory:
    """Diffusive measurement trajectory with its record, seeded and
    bitwise reproducible.  ``diagnostics`` holds ``min_step_trace`` and
    ``max_step_trace``, the range of the trace of each step's state before
    it is normalized: near 1 when the step resolves the measurement."""
    times_arr, dt = _check_grid(times)
    rng = np.random.default_rng(seed)
    dw = rng.normal(0.0, np.sqrt(dt), size=times_arr.size - 1)
    states, record, diagnostics = _sme_run(model, meas, eta, rho0, dt, dw, True)
    return Trajectory(times=times_arr, states=states, record=np.array(record), seed=int(seed),
                      diagnostics=diagnostics)


def filter_estimate(
    model: LindbladModel, record, meas: int, eta: float, rho0, times
) -> Trajectory:
    """State filter: the same Kraus-form step as :func:`sme_simulate`,
    driven by the recorded increments dY, with the same ``diagnostics``."""
    times_arr, dt = _check_grid(times)
    record = np.asarray(record, dtype=float)
    if record.shape != (times_arr.size - 1,):
        raise ValueError(
            f"record length {record.shape} does not match grid ({times_arr.size - 1} steps)"
        )
    states, _, diagnostics = _sme_run(model, meas, eta, rho0, dt, record, False)
    return Trajectory(times=times_arr, states=states, record=record, seed=None,
                      diagnostics=diagnostics)


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
    :func:`lindblad_evolve` trajectory ``states`` of ``family.at(theta)``,
    which applies the step R = e^{S·dt} with no renormalization.

    The generator is affine in θ, so the exponential of the block generator
    [[S, 0], [S_j, S]]·dt is [[R, 0], [dR/dθ_j, R]] (Van Loan, IEEE TAC 23,
    395 (1978)), and the tangents obey Y_{k+1} = R Y_k + (dR/dθ_j) ρ_k.
    Each θ_j takes one such exponential, and :func:`_propagate` runs it on
    rows (ρ_k, Y_k) whose first half holds the stored states: a product
    with the lower block rows [A_m, R^m] of its power advances the tangent
    m steps from the stored trajectory.
    """
    d = states.shape[1]
    n = d * d
    terms = [LindbladModel(h, ()) for h in family.h_terms]
    terms += [LindbladModel(np.zeros((d, d)), (base,)) for base in family.rate_bases]
    s = liouvillian(family.at(theta))
    ys = np.zeros((states.shape[0], 2 * n), dtype=complex)  # the tangent starts at 0
    ys[:, :n] = states.reshape(-1, n)
    tangents = np.empty((len(terms), states.shape[0], n), dtype=complex)
    for term, tangent in zip(terms, tangents):
        gen = np.block([[s, np.zeros_like(s)], [liouvillian(term), s]])
        _propagate(_step(gen, dt), ys, given=n)
        tangent[:] = ys[:, n:]
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
    holds the last state of each integrated point.  A point whose model
    fails or overflows, or whose integration fails (:class:`IntegrationError`),
    is skipped and reported, and :class:`NonFiniteError` is raised when every
    grid point is.  An invalid initial state ``est.states[0]`` raises
    ``ValueError`` before any point is integrated.  The result is the
    lowest-cost point evaluated, with its trajectory.
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
    rho0 = _check_state(est.states[0], len(family.h0))
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
        except (IntegrationError, NonFiniteError, ValueError):
            costs[key] = np.inf
            return failed
        diff = (traj.states - est.states).reshape(-1)
        r = np.concatenate([diff.real, diff.imag])
        costs[key] = sum_squares(r)
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
