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

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleConvergenceError
from .fock import position_op
from .serialize import float_array, scalar
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
# the oracle builds its Magnus factors in chunks of at most this many bytes
FACTOR_BYTES = 1 << 18
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
        pulse = cls(scalar(obj, "T", float), float_array(obj["coeffs"], "coeffs"))
        if "K" in obj and scalar(obj, "K", int) != pulse.n_harmonics:
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


def dyson_gate(spec: Spectrum, pulse: ControlPulse) -> np.ndarray:
    """First-order gate on the kept block; affine in the pulse coefficients.

    Not exactly unitary: the defect is O(|b|²) (quantified against
    ``propagate_oracle`` in tests).
    """
    k = spec.cutoff_kept
    a = design_matrix(spec, pulse.horizon, pulse.n_harmonics)
    return u0(spec, pulse.horizon) + (a @ pulse.coeffs).reshape(k, k)


def _taylor_plan(rho: float) -> tuple[int, int, int]:
    """(s, p, q) for ‖X‖ ≤ ``rho``: X is scaled by 2^−s until its bound is at
    most 2, and the result squared s times (Higham, SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005)); the Taylor series is cut at degree p in Y = ±X²,
    the lowest whose remainder Σ_{j>2p+1} ρ^j/j! ≤ ρ^{2p+2}/(2p+2)!·(2p+3)/
    (2p+3−ρ) is below 2⁻⁵³; Paterson–Stockmeyer sums it over Y¹…Y^q."""
    s = math.ceil(math.log2(rho / 2)) if rho > 2 else 0
    rho /= 2**s
    p, term = 0, rho * rho / 2
    while term * (2 * p + 3) / (2 * p + 3 - rho) >= 2.0**-53:
        p += 1
        term *= rho * rho / ((2 * p + 1) * (2 * p + 2))
    return s, p, math.isqrt(p) + 1


def _even_odd_taylor(y: np.ndarray, p: int, q: int):
    """(Σ_{k≤p} Y^k/(2k)!, Σ_{k≤p} Y^k/(2k+1)!) for a stack Y, each summed by
    Paterson–Stockmeyer (SIAM J. Comput. 2, 60 (1973)): cos X and sin X/X at
    Y = −X², cosh A and sinh A/A at Y = A²."""
    powers = [y]  # Y¹…Y^q, with q·q > p
    while len(powers) < q:
        powers.append(powers[-1] @ y)
    diag = np.arange(y.shape[-1])

    def poly(coef):
        # blocks Σ_{i<q} coef[j+i]·Y^i, joined by Horner's rule in Y^q
        acc = np.zeros_like(y)
        for j in reversed(range(0, p + 1, q)):
            if j + q <= p:
                acc = acc @ powers[-1]
            for c, w in zip(coef[j + 1 : j + q], powers):
                acc += c * w
            acc[..., diag, diag] += coef[j]
        return acc

    return tuple(poly([1 / math.factorial(2 * k + j) for k in range(p + 1)]) for j in (0, 1))


def _expm_i(x: np.ndarray, rho: float) -> np.ndarray:
    """exp(−iX) = cos X − i sin X for a stack of real symmetric X with
    ‖X‖₂ ≤ ``rho``, in real arithmetic: the series at Y = −X², scaled and
    squared as :func:`_taylor_plan` sets."""
    s, p, q = _taylor_plan(rho)
    x = x / 2**s
    cos, sinc = _even_odd_taylor(-(x @ x), p, q)
    f = np.empty(x.shape, dtype=complex)
    f.real, f.imag = cos, -(x @ sinc)
    return np.linalg.matrix_power(f, 2**s)


def expm(a: np.ndarray, rho: float) -> np.ndarray:
    """exp(A) = cosh A + A·(sinh A/A) for a square A with ‖A‖ ≤ ``rho`` in a
    submultiplicative norm, as :func:`_expm_i` sums it at Y = A²."""
    s, p, q = _taylor_plan(rho)
    a = a / 2**s
    cosh, sinhc = _even_odd_taylor(a @ a, p, q)
    return np.linalg.matrix_power(cosh + a @ sinhc, 2**s)


def _chebyshev_log_bound(a: float, n: int) -> float:
    """log of 4·e^{a(ρ−ρ⁻¹)/2}·ρ^{−n}/(ρ−1), ρ = 1 + 2n/a: the error of the
    degree-n Chebyshev interpolant of exp(−iτ(h + bQ)) over a b range of
    half-width r, a = τ‖Q‖₂·r (Trefethen, ATAP Thm 8.2, with the factor's
    norm at most e^{τ‖Q‖₂|Im b|} on the Bernstein ellipse E_ρ)."""
    if a == 0:
        return -math.inf
    if n == 0:
        return math.inf
    rho = 1 + 2 * n / a
    # a(ρ − ρ⁻¹)/2 as a/2 + n − a/(2ρ): no inf − inf where 2n/a overflows
    return math.log(4) + a / 2 + n - a / (2 * rho) - n * math.log(rho) - math.log(2 * n / a)


def _chebyshev_degree(a: float, cap: int) -> int:
    """Smallest degree n < ``cap`` whose bound (:func:`_chebyshev_log_bound`)
    is below 2⁻⁵³, the cut of :func:`_expm_i`; ``cap`` if there is none.
    The search starts at ⌊a/2⌋: for n ≤ a/2, ρ ≤ 2, and the log-bound is at
    least log 4 + 0.8·n > 0, so no lower degree meets it."""
    cut = -53 * math.log(2)
    return next((n for n in range(int(a // 2), cap) if _chebyshev_log_bound(a, n) < cut), cap)


def _barycentric(x: np.ndarray, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of the interpolation matrix from values at ``nodes`` to values at
    ``x``: the second barycentric formula with weights ``w`` (Berrut &
    Trefethen, SIAM Rev. 46, 501 (2004)), and a unit row where x is a node
    or so near one that w/(x − node) overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        lag = w / (x[:, None] - nodes)
    hit = np.isinf(lag)
    rows = hit.any(axis=1)
    lag[rows] = hit[rows]
    lag /= np.abs(lag).max(axis=1, keepdims=True)  # so that no row sum overflows
    return lag / lag.sum(axis=1, keepdims=True)


def _centred(h0: np.ndarray, ctrl: np.ndarray):
    """(μ, h0 − μI, (‖h0 − μI‖₂, ‖ctrl‖₂)) for real symmetric ``h0`` and
    ``ctrl``, with μ the centre of h0's spectrum: two ``eigvalsh`` calls."""
    e, q = np.linalg.eigvalsh(h0), np.linalg.eigvalsh(ctrl)
    mu = (e[-1] + e[0]) / 2
    return mu, h0 - mu * np.eye(h0.shape[0]), ((e[-1] - e[0]) / 2, max(-q[0], q[-1]))


def _factors(h: np.ndarray, ctrl: np.ndarray, norms, tau: float, b: np.ndarray):
    """The factors exp(−iτ(h + b_k·ctrl)), in the order of ``b``, as stacks
    of at most ``FACTOR_BYTES``, for real symmetric ``h`` and ``ctrl`` with
    ‖h‖₂ ≤ norms[0] and ‖ctrl‖₂ ≤ norms[1].

    Each factor is the same entire function of one scalar, b.  So
    :func:`_expm_i` runs at the n+1 Chebyshev points of [min b, max b], with
    n from :func:`_chebyshev_degree`, and every factor is their barycentric
    interpolant (:func:`_barycentric`): one real matrix product per stack.
    Where n + 1 nodes are not fewer than the factors, each factor is built
    by :func:`_expm_i` instead.
    """
    rho = tau * (norms[0] + np.max(np.abs(b)) * norms[1])
    if not rho < 2.0**53:  # beyond this no double resolves the phase of a factor
        raise OracleConvergenceError(f"Magnus factor norm {rho:.3g} on {b.size // 2} steps")
    m = h.shape[0]
    chunk = max(1, FACTOR_BYTES // (16 * h.size))

    def exact(points):
        for start in range(0, points.size, chunk):
            yield _expm_i(tau * (h + points[start : start + chunk, None, None] * ctrl), rho)

    cap = b.size - 1
    hi, lo = b.max() / 2, b.min() / 2  # halves, so that no finite drive overflows
    n = _chebyshev_degree(float(tau * norms[1] * (hi - lo)), cap)
    if n == cap:
        yield from exact(b)
        return
    nodes = hi + lo + (hi - lo) * np.cos(np.pi * np.arange(n + 1) / max(n, 1))
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] /= 2
    values = np.concatenate(list(exact(nodes))).reshape(n + 1, -1).view(float)
    for start in range(0, b.size, chunk):
        lag = _barycentric(b[start : start + chunk], nodes, w)
        yield (lag @ values).view(complex).reshape(-1, m, m)


def _magnus_product(
    h: np.ndarray, ctrl: np.ndarray, norms, cols: np.ndarray, pulse: ControlPulse, steps: int
) -> np.ndarray:
    """``cols`` after the ``2·steps`` Magnus factors exp(−i dt/2 (h + b̃·ctrl))
    for real symmetric ``h`` and ``ctrl`` with ‖h‖₂ ≤ norms[0] and
    ‖ctrl‖₂ ≤ norms[1], built by :func:`_factors`."""
    dt = pulse.horizon / steps
    t = (np.arange(steps)[:, None] + GAUSS_NODES) * dt
    b = (pulse.evaluate(t) @ CFM4_MIX.T).ravel()
    u = np.asarray(cols, dtype=complex)
    for stack in _factors(h, ctrl, norms, 0.5 * dt, b):
        for f in stack:
            u = f @ u
    return u


def propagate_oracle(spec: Spectrum, pulse: ControlPulse) -> tuple[np.ndarray, int, float]:
    """Brute-force propagator: time-ordered product of fourth-order
    commutator-free Magnus steps, each two exponentials.

    Integrates at the full raw dimension, applying every factor to the kept
    eigenvectors ``spec.modes[:, :k]`` only, and returns the kept block of
    the product.  Each factor exp(−iτH) is e^{−iτμ}·exp(−iτ(H − μI)) with μ
    the centre of H0's spectrum; the second is a truncated Taylor series
    (:func:`_expm_i`, accurate to about 1e-14) at a few Chebyshev points of
    the grid's drive range, interpolated to every factor (:func:`_factors`),
    and the phase e^{−iμT} is applied once to the returned gate.  The grid starts at
    ``ORACLE_START_STEPS`` and is doubled until the estimated Frobenius
    error of the finer grid is below ``ORACLE_TOL``.  With g the gap between
    two successive grids, that estimate is g/15 (step doubling for a
    fourth-order scheme) once the previous gap was at least 8g, and g
    itself otherwise; an exact step (zero or constant drive) stops on the
    second grid.  The documented examples stop at 128–256 steps.  A grid
    that would exceed ``ORACLE_MAX_STEPS`` raises
    :class:`OracleConvergenceError`.

    The Hamiltonian is rebuilt from the spectrum's recorded (c1, c2) at the
    raw cutoff, independent of the stored eigenvalues (``compute_spectrum``
    diagonalizes that same H0), and the control operator is Q.

    Returns (gate, steps, error): the kept-block propagator, the step count
    of its grid and the error estimate it stopped on.
    """
    m = spec.cutoff_raw
    h0 = build_h0(spec.c1, spec.c2, m)
    ctrl = position_op(m)
    assert not (h0.imag.any() or ctrl.imag.any()), "H0 and Q must be real"
    h0, ctrl = h0.real, ctrl.real
    mu, h, norms = _centred(h0, ctrl)
    cols = spec.modes[:, : spec.cutoff_kept]

    def kept_block(steps):
        return cols.conj().T @ _magnus_product(h, ctrl, norms, cols, pulse, steps)

    steps = ORACLE_START_STEPS
    prev = kept_block(steps)
    prev_gap = 0.0
    while steps < ORACLE_MAX_STEPS:
        steps *= 2
        cur = kept_block(steps)
        gap = float(np.linalg.norm(cur - prev))
        error = gap / 15 if prev_gap >= 8 * gap else gap
        if error < ORACLE_TOL:
            return np.exp(-1j * mu * pulse.horizon) * cur, steps, error
        prev, prev_gap = cur, gap
    raise OracleConvergenceError(
        f"Magnus product's estimated error not below {ORACLE_TOL:g} after {steps} steps"
    )
