"""Command-line interface: every subsystem as a subcommand.

Artifacts are compact JSON (matrices use the shared schema, trajectory
states their Hermitian coordinates), CSV tables and static SVG plots under
fixed names; each run also writes ``manifest.json`` recording the resolved
configuration, input hashes, package versions, seed and wall time, so any
artifact can be regenerated from its manifest alone.
Input hashes are of the bytes that were parsed.  Options are spelled in
full; the lines ``key=value`` of ``--config FILE`` become ``--key=value``
after the subcommand name, so any flag given wins.

Exit codes: 0 success, 2 validation error (bad flags, unreadable or
malformed inputs, an output directory that cannot be made), 3 numerical
failure (non-convergence, a LAPACK routine that does not converge, a
master-equation generator too large to step or whose rounding breaks the
state check, a NaN or infinite result, out of memory); a run that exits 3
prints one ``numerical failure:`` line and writes no manifest.  NumPy's
floating-point warnings are never printed: a non-finite result is refused
when it is written.
Seed resolution order: --seed flag, config file, SUSYGATE_SEED, then 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, channel, dyson, filter_fit, gate_synth, spectrum, susy_toy
from .errors import SusygateError
from .fock import is_unitary
from .plotting import line_plot_svg
from .serialize import (LineError, float_array, matrix_from_json, matrix_to_json, parse_json,
                        read_input, save_json, scalar)

# largest time grid the filter subcommands accept; each step stores a d×d state
MAX_STEPS = 10**7
# most points a --lambda-grid sweep or a model file's parameter grid sets;
# each keeps a full report or costs one full integration
MAX_GRID_POINTS = 10**4
# largest model dimension d a model file sets; the SME step stack holds
# 3(d²+2)·d² complex entries, 16 bytes each (about 48 MiB at d = 32)
MAX_MODEL_DIM = 32
# most free parameters p a model file declares; each costs the fit one
# tangent generator of side 2d² and one Gauss–Newton column, and the
# largest documented family has p = 2
MAX_PARAMS = 64


@dataclass
class Workspace:
    """Output directory plus the artifact ledger for the manifest."""

    out_dir: Path
    artifacts: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def read(self, path, decode):
        """``decode`` applied to the bytes of an input file through
        ``read_input``; their SHA-256 goes into the manifest."""

        def hashed(data: bytes):
            self.inputs[str(Path(path))] = hashlib.sha256(data).hexdigest()
            return decode(data)

        return read_input(path, hashed)

    def load_json(self, path, decode):
        """``decode`` applied to a parsed JSON input file."""
        return self.read(path, lambda data: decode(parse_json(data)))

    def _artifact(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out_dir / name

    def save_json(self, name: str, obj) -> None:
        save_json(self._artifact(name), obj)

    def save_csv(self, name: str, header, rows) -> None:
        with open(self._artifact(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def save_svg(self, name: str, series, **kwargs) -> None:
        line_plot_svg(self._artifact(name), series, **kwargs)

    def write_manifest(self, command: str, config: dict, seed, t0: float) -> None:
        manifest = {
            "command": command,
            "config": config,
            "inputs": self.inputs,
            "artifacts": self.artifacts,
            "seed": seed,
            "versions": {
                "susygate": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": round(time.monotonic() - t0, 6),
        }
        save_json(self.out_dir / "manifest.json", manifest)


# --------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args, ws: Workspace):
    spec = spectrum.compute_spectrum(
        args.c1, args.c2, kept=args.dim, raw_dim=args.raw_dim, basis=args.basis
    )
    ws.save_json("spectrum.json", spec.to_json())
    ws.save_csv(
        "energies.csv",
        ["n", "energy"],
        enumerate(spec.kept_energies.tolist()),
    )
    print(f"spectrum: kept {spec.cutoff_kept} of {spec.cutoff_raw} levels")


def cmd_gate(args, ws: Workspace):
    spec = ws.load_json(args.spectrum, spectrum.Spectrum.from_json)
    pulse = ws.load_json(args.pulse, dyson.ControlPulse.from_json)
    gate = dyson.dyson_gate(spec, pulse)
    ws.save_json("gate.json", matrix_to_json(gate))
    k = spec.cutoff_kept
    report = {
        "kept_dim": k,
        "horizon": pulse.horizon,
        "pulse_energy": pulse.energy(),
        "unitarity_defect": float(
            np.max(np.abs(gate.conj().T @ gate - np.eye(k)))
        ),
        "oracle_steps": None,
        "oracle_error": None,
    }
    if args.oracle:
        reference, report["oracle_steps"], report["oracle_error"] = dyson.propagate_oracle(
            spec, pulse
        )
        ws.save_json("oracle.json", matrix_to_json(reference))
        report["oracle_gap"] = float(np.linalg.norm(gate - reference))
    ws.save_json("gate_report.json", report)
    print(f"gate: unitarity defect {report['unitarity_defect']:.3e}")


def _parse_grid(text: str) -> np.ndarray:
    """N log-spaced multipliers from ``LO,HI,N``."""
    try:
        lo, hi, n = text.split(",")
        lo, hi, n = float(lo), float(hi), int(n)
        valid = 0 < lo <= hi < np.inf and 1 <= n <= MAX_GRID_POINTS
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(f"--lambda-grid {text!r}: expected LO,HI,N with finite "
                         f"0 < LO <= HI and an integer 1 <= N <= {MAX_GRID_POINTS}")
    return np.geomspace(lo, hi, n)


def _float_list(text: str) -> list[float]:
    """Numbers of a comma-separated list."""
    return [float(x) for x in text.split(",")]


# options kept as text, so the manifest records them as given, and parsed
# by their handler; _config_argv parses a config file's value on reading it
HANDLER_PARSED = {"lambda_grid": _parse_grid, "superpotential": _float_list,
                  "pvev": _float_list, "qvev": _float_list}


def _gate_target(obj, args, kept: int) -> np.ndarray:
    """Matrix of a gate target file: (kept, kept), and unitary unless allowed not to be."""
    target = matrix_from_json(obj)
    if target.size == 0:
        raise ValueError(f"target is an empty {target.shape[0]}x{target.shape[1]} matrix")
    if target.shape != (kept, kept):
        raise ValueError(f"target shape {target.shape} != kept dim {kept} of {args.spectrum}")
    if not (args.allow_nonunitary or is_unitary(target)):
        raise ValueError("target is not unitary to 1e-8 (set --allow-nonunitary)")
    return target


def cmd_synth(args, ws: Workspace):
    grid = None if args.lambda_grid is None else _parse_grid(args.lambda_grid)
    spec = ws.load_json(args.spectrum, spectrum.Spectrum.from_json)
    target = ws.load_json(args.target, functools.partial(_gate_target, args=args,
                                                         kept=spec.cutoff_kept))
    prob = gate_synth.SynthesisProblem(
        target=target,
        spec=spec,
        horizon=args.T,
        n_harmonics=args.K,
        # λ = 0 unless --budget is given (a sweep sets its own multipliers)
        lam=0.0 if args.lam is None and args.budget is None else args.lam,
        budget=args.budget,
        allow_nonunitary=args.allow_nonunitary,
        match_phase=args.match_phase,
    )
    if grid is not None:
        reports = gate_synth.sweep(prob, grid)
        ws.save_json("reports.json", [r.to_json() for r in reports])
        rows = [(r.multiplier, r.energy, r.residual, r.fidelity) for r in reports]
        ws.save_csv("pareto.csv", ["lambda", "energy", "residual", "fidelity"], rows)
        ws.save_svg(
            "pareto.svg",
            [("residual vs energy", [r.energy for r in reports], [r.residual for r in reports])],
            title="energy / residual trade-off",
            xlabel="pulse energy",
            ylabel="Frobenius residual",
        )
        best = min(reports, key=lambda r: r.residual)
        ws.save_json("pulse.json", best.pulse.to_json())
        print(f"synth sweep: {len(reports)} points, best residual {best.residual:.3e}")
        return
    report = gate_synth.synthesize(prob, oracle_check=not args.no_oracle_check)
    ws.save_json("synth_report.json", report.to_json())
    ws.save_json("pulse.json", report.pulse.to_json())
    print(
        f"synth: residual {report.residual:.3e}, fidelity {report.fidelity:.6f}"
        + (
            f", oracle fidelity {report.oracle_fidelity:.6f}"
            if report.oracle_fidelity is not None
            else ""
        )
    )


def _square_choi(obj) -> tuple[np.ndarray, int]:
    """Choi matrix and input dimension of a channel target file."""
    target = matrix_from_json(obj)
    d_in, d_out = scalar(obj, "d_in", int), scalar(obj, "d_out", int)
    if d_in != d_out:
        raise ValueError("channel design requires d_in == d_out")
    if d_in < 2:
        raise ValueError(f"channel design requires d_in >= 2, got {d_in}")
    if target.shape != (d_in * d_out,) * 2:
        raise ValueError(f"target Choi shape {target.shape} != {(d_in * d_out,) * 2}")
    return target, d_in


def cmd_channel(args, ws: Workspace):
    target, d = ws.load_json(args.target, _square_choi)
    joint = channel.JointSystem(
        sys_dim=d,
        anc_dim=args.anc_dim,
        anc_freq=args.anc_freq,
        coupling=args.coupling,
        c1=args.c1,
        c2=args.c2,
    )
    pulse, report = channel.synthesize_channel(target, joint, args.T, args.K, lam=args.lam)
    ws.save_json("pulse.json", pulse.to_json())
    ws.save_json("channel_report.json", report.to_json())
    print(
        f"channel: Choi distance {report.distance:.3e}, TP defect "
        f"{report.tp_defect:.3e}, converged={report.converged}"
    )


def cmd_susy(args, ws: Workspace):
    coeffs = _float_list(args.superpotential)
    pair = susy_toy.susy_pair(coeffs, args.dim)
    report = susy_toy.witten_index(pair, zero_tol=args.zero_tol)
    levels = zip(pair.e_minus[:10].tolist(), pair.e_plus[:10].tolist())
    ws.save_json(
        "susy_report.json",
        {
            "superpotential": coeffs,
            "cutoff": args.dim,
            **report.to_json(),
        },
    )
    ws.save_csv(
        "partner_energies.csv",
        ["level", "e_minus", "e_plus"],
        [(i, *level) for i, level in enumerate(levels)],
    )
    print(f"susy: index {report.index} ({report.label})")


def cmd_vev(args, ws: Workspace):
    d2 = ws.load_json(args.d2, lambda obj: float_array(obj, "d2"))
    v = susy_toy.VevControl(
        d2=d2,
        p_vev=_float_list(args.pvev),
        q_vev=_float_list(args.qvev),
    )
    a = susy_toy.vev_control(v)
    ws.save_json("control.json", {"a": [float(x) for x in a]})
    print(f"vev: control coefficients {np.round(a, 12).tolist()}")


def _load_family(obj) -> tuple[filter_fit.ModelFamily, np.ndarray, np.ndarray, int, list]:
    """Family, ρ0, truth, measured operator index and parameter grids of a
    parsed model file; every size the file sets, and the bounds of each
    range, are checked before anything is built, and the truth model, ρ0 and
    the index after, so that each of their errors names the file."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    h_specs = obj.get("h_terms", [])
    r_specs = obj.get("rate_terms", [])
    if len(h_specs) + len(r_specs) > MAX_PARAMS:
        raise ValueError(f"{len(h_specs) + len(r_specs)} free parameters exceed "
                         f"the limit of {MAX_PARAMS}")
    h0 = matrix_from_json(obj["h0"])
    if max(h0.shape) > MAX_MODEL_DIM:
        raise ValueError(f"model dimension {max(h0.shape)} exceeds {MAX_MODEL_DIM}")
    ranges = [t["range"] for t in h_specs + r_specs]
    points = [n for _, _, n in ranges]
    if not all(type(n) is int and n >= 1 for n in points):
        raise ValueError("each range needs an integer number of points >= 1, "
                         f"got {points}")
    if math.prod(points) > MAX_GRID_POINTS:
        raise ValueError(f"the parameter grid has {math.prod(points)} points, "
                         f"more than {MAX_GRID_POINTS}")
    bounds = [float_array(r[:2], "range") for r in ranges]
    if not all(b.shape == (2,) for b in bounds):
        raise ValueError("each range needs two numbers LO, HI")
    if not all(b.min() >= 0 for b in bounds[len(h_specs):]):
        raise ValueError("a rate range reaches below 0")
    rho0 = matrix_from_json(obj["rho0"])
    family = filter_fit.ModelFamily(
        h0=h0,
        h_terms=tuple(matrix_from_json(t["op"]) for t in h_specs),
        rate_bases=tuple(matrix_from_json(t["op"]) for t in r_specs),
        lindblads=tuple(matrix_from_json(m) for m in obj.get("lindblads", [])),
        param_names=tuple(t["name"] for t in h_specs + r_specs),
    )
    truth = np.asarray([scalar(t, "truth", float) for t in h_specs + r_specs])
    meas = scalar(obj, "measurement", int)
    grids = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, points)]
    model = family.at(truth)
    filter_fit._check_state(rho0, model.dim)
    if not 0 <= meas < len(model.lindblads):
        raise ValueError("measurement index outside the model's Lindblad list")
    return family, rho0, truth, meas, grids


def _times(horizon: float, dt: float) -> np.ndarray:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not np.isfinite(horizon / dt):
        raise ValueError(f"horizon/dt must be finite, got T={horizon!r}, dt={dt!r}")
    n = int(round(horizon / dt))
    if n > MAX_STEPS:
        raise ValueError(f"T/dt = {n} steps exceeds the limit of {MAX_STEPS}")
    if abs(n * dt - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValueError("horizon must be an integer multiple of dt")
    return np.arange(n + 1) * dt


def cmd_filter_sim(args, ws: Workspace):
    family, rho0, truth, meas, _ = ws.load_json(args.model, _load_family)
    model = family.at(truth)
    times = _times(args.T, args.dt)
    n = args.ensemble
    if n and not (n >= 2 and n * (times.size - 1) <= MAX_STEPS):
        raise ValueError(f"--ensemble {n}: expected 0 (off) or n >= 2 "
                         f"with n·T/dt <= {MAX_STEPS}")
    traj = filter_fit.sme_simulate(model, meas, args.eta, rho0, times, args.seed)
    ws.save_json("trajectory.json", traj.to_json())
    ws.save_csv(
        "record.csv",
        ["t", "dY"],
        zip(times[:-1].tolist(), traj.record.tolist()),
    )
    if args.ensemble:
        mean, sem = filter_fit.ensemble_stats(
            model, meas, args.eta, rho0, times, args.ensemble, args.seed
        )
        ws.save_json(
            "ensemble_mean.json",
            {
                "n_traj": args.ensemble,
                "mean_final": matrix_to_json(mean[-1]),
                "sem_final": matrix_to_json(sem[-1].astype(complex)),
            },
        )
    print(f"filter-sim: {times.size} states, seed {args.seed}")


def _read_record(data: bytes, times: np.ndarray) -> np.ndarray:
    """The finite dY column of a ``t,dY`` record whose t column is ``times[:-1]``."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if not rows or rows[0][:2] != ["t", "dY"]:
        raise ValueError("expected CSV with header t,dY")
    tol = 1e-9 * max(1.0, times[-1])
    record = []
    for line_no, row in enumerate(rows[1:], 2):
        try:
            t, dy = map(float, row[:2])
        except ValueError:  # fewer than two columns, or not a number
            raise LineError(line_no, f"expected numbers t,dY, got {','.join(row)!r}") from None
        step = line_no - 2
        if step < times.size - 1 and not abs(t - times[step]) <= tol:
            raise LineError(line_no, f"t = {row[0]} is not grid time {times[step]!r}")
        if not math.isfinite(dy):
            raise LineError(line_no, f"dY = {row[1]} is not finite")
        record.append(dy)
    if len(rows) != times.size:
        raise ValueError(f"{len(rows) - 1} rows for {times.size - 1} grid steps")
    return np.asarray(record)


def _filter_and_fit(family, rho0, truth, meas, grids, eta, times, seed, xtol, record=None):
    """Filter estimate of a record under the truth model, then the family
    fitted to it.  With no record, the simulated trajectory is the estimate."""
    truth_model = family.at(truth)
    if record is None:
        # filtering the simulated record with the same model, eta and rho0
        # repeats the simulator's Kraus steps bit for bit, so skip the replay;
        # like every filter estimate, it carries no seed
        sim = filter_fit.sme_simulate(truth_model, meas, eta, rho0, times, seed)
        est = replace(sim, seed=None)
    else:
        est = filter_fit.filter_estimate(truth_model, record, meas, eta, rho0, times)
    return est, filter_fit.fit_parameters(est, family, grids, xtol=xtol)


def _fit_fields(family, grids, truth, fit) -> dict:
    """The fields every fit report carries; ``at_bound`` names the
    parameters whose θ* equals an end of its grid."""
    return {
        "truth": truth.tolist(),
        "theta_star": fit.theta.tolist(),
        "cost": fit.cost,
        "converged": fit.converged,
        "at_bound": [name for name, x, g in zip(family.param_names, fit.theta, grids)
                     if float(x) in (g.min(), g.max())],
    }


def cmd_filter_fit(args, ws: Workspace):
    family, rho0, truth, meas, grids = ws.load_json(args.model, _load_family)
    times = _times(args.T, args.dt)
    record = None
    if args.record:
        record = ws.read(args.record, lambda data: _read_record(data, times))
    est, fit = _filter_and_fit(
        family, rho0, truth, meas, grids, args.eta, times, args.seed, args.xtol, record
    )
    ws.save_json("filter_trajectory.json", est.to_json())
    ws.save_json("fitted_trajectory.json", fit.trajectory.to_json())
    ws.save_json(
        "fit_report.json",
        {
            "param_names": list(family.param_names),
            **_fit_fields(family, grids, truth, fit),
            "n_evaluations": len(fit.curve),
            "skipped": [list(t) for t in fit.skipped],
            "filter_diagnostics": est.diagnostics,
            "fitted_diagnostics": fit.trajectory.diagnostics,
        },
    )
    ws.save_csv(
        "cost_curve.csv",
        list(family.param_names) + ["cost"],
        [(*t, c) for t, c in fit.curve],
    )
    print(f"filter-fit: theta* = {np.round(fit.theta, 6).tolist()} (cost {fit.cost:.3e})")


def default_demo_model() -> tuple[filter_fit.ModelFamily, np.ndarray, np.ndarray, int, list]:
    """Two-level mode with a known coherent drive and an unknown damping
    rate; the showcase system for the estimate-then-fit loop."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    family = filter_fit.ModelFamily(
        h0=0.5 * 1.0 * sx,
        rate_bases=(lower,),
        param_names=("gamma",),
    )
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    truth = np.array([0.7])
    grids = [np.linspace(0.1, 1.5, 8)]
    return family, rho0, truth, 0, grids


def cmd_demo(args, ws: Workspace):
    """Measurement record -> filter -> parameter fit -> refit trajectory,
    with a side-by-side comparison table."""
    family, rho0, truth, meas, grids = default_demo_model()
    times = _times(args.T, args.dt)
    est, fit = _filter_and_fit(family, rho0, truth, meas, grids, args.eta, times, args.seed, 1e-4)
    fitted = fit.trajectory

    stride = max(1, times.size // 100)
    idx = np.arange(0, times.size, stride)
    t_col = [float(t) for t in times[idx]]
    filter_col = [float(x) for x in est.states[idx, 1, 1].real]
    fitted_col = [float(x) for x in fitted.states[idx, 1, 1].real]
    gap_col = [float(np.linalg.norm(fitted.states[i] - est.states[i])) for i in idx]
    ws.save_csv("comparison.csv", ["t", "filter_pop1", "fitted_pop1", "frobenius_gap"],
                zip(t_col, filter_col, fitted_col, gap_col))
    ws.save_svg(
        "comparison.svg",
        [("filter", t_col, filter_col), ("fitted", t_col, fitted_col)],
        title="filter estimate vs fitted model",
        xlabel="t",
        ylabel="excited population",
    )

    # final-state gap of every point the fit integrated (a skipped one has none)
    gaps = {k: float(np.linalg.norm(s - est.states[-1])) for k, s in fit.final_states.items()}
    report = {
        "seed": args.seed,
        "eta": args.eta,
        "horizon": args.T,
        "dt": args.dt,
        **_fit_fields(family, grids, truth, fit),
        "final_gap_fit": float(np.linalg.norm(fitted.states[-1] - est.states[-1])),
        "final_gap_grid_low": gaps.get((float(grids[0][0]),)),
        "final_gap_grid_high": gaps.get((float(grids[0][-1]),)),
    }
    ws.save_json("demo_report.json", report)
    print(
        f"demo: gamma* = {report['theta_star'][0]:.4f} (truth {report['truth'][0]}), "
        f"final gap {report['final_gap_fit']:.4f}"
    )


# --------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict, argparse.ArgumentParser]:
    """The top-level parser, each subcommand's parser by name and the
    ``--config`` finder, built once per process: ``main`` only reads them,
    and each parse call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="susygate",
        description="gate/channel synthesis and filtering for a driven anharmonic mode",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    # flags shared by several subcommands, one function per group
    def trajectory(p):
        p.add_argument("--eta", type=float, default=1.0)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--T", type=float, default=2.0)
        p.add_argument("--seed", type=int, default=None)

    def design(p):
        p.add_argument("--target", required=True)
        p.add_argument("--T", type=float, required=True)
        p.add_argument("--K", type=int, required=True)

    def anharmonic(p):
        p.add_argument("--c1", type=float, default=0.0)
        p.add_argument("--c2", type=float, default=0.0)

    def add(name, func, *groups, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        for group in groups:
            group(p)
        p.set_defaults(func=func)
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--config", default=None, help="key=value option file")
        subparsers[name] = p
        return p

    p = add("spectrum", cmd_spectrum, anharmonic, help="diagonalize the anharmonic Hamiltonian")
    p.add_argument("--dim", type=int, required=True, help="kept levels (gate dimension)")
    p.add_argument("--raw-dim", type=int, default=None)
    p.add_argument("--basis", choices=["exact", "pt"], default="exact")

    p = add("gate", cmd_gate, help="first-order gate for a stored pulse")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--pulse", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force time-ordered propagator")

    p = add("synth", cmd_synth, design, help="least-squares pulse design for a target gate")
    p.add_argument("--spectrum", required=True)
    penalty = p.add_mutually_exclusive_group()
    penalty.add_argument("--lambda", dest="lam", type=float, default=None)
    penalty.add_argument("--budget", type=float, default=None)
    penalty.add_argument("--lambda-grid", default=None, metavar="LO,HI,N",
                         help="log-spaced multiplier sweep (writes a Pareto table)")
    p.add_argument("--match-phase", action="store_true")
    p.add_argument("--allow-nonunitary", action="store_true")
    p.add_argument("--no-oracle-check", action="store_true",
                   help="skip the brute-force fidelity post-validation")

    p = add("channel", cmd_channel, design, anharmonic,
            help="pulse design against a target Choi matrix")
    p.add_argument("--anc-dim", type=int, default=2)
    p.add_argument("--anc-freq", type=float, default=1.3)
    p.add_argument("--coupling", type=float, default=0.1)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)

    p = add("susy", cmd_susy, help="partner Hamiltonians and index for a superpotential")
    p.add_argument("--superpotential", required=True,
                   help="polynomial coefficients, ascending powers, comma separated")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--zero-tol", type=float, default=1e-6)

    p = add("vev", cmd_vev, help="control coefficients from expectation values")
    p.add_argument("--d2", required=True, help="JSON file with the 3-index tensor")
    p.add_argument("--pvev", required=True)
    p.add_argument("--qvev", required=True)

    p = add("filter-sim", cmd_filter_sim, trajectory, help="simulate a monitored trajectory")
    p.add_argument("--model", required=True)
    p.add_argument("--ensemble", type=int, default=0,
                   help="also average this many trajectories: 0 (off) or n >= 2 "
                        f"with n·T/dt <= {MAX_STEPS}")

    p = add("filter-fit", cmd_filter_fit, trajectory,
            help="filter a record and fit free parameters")
    p.add_argument("--model", required=True)
    p.add_argument("--record", default=None, help="CSV (t,dY); simulated when omitted")
    p.add_argument("--xtol", type=float, default=1e-4,
                   help="Gauss–Newton step tolerance, relative to 1 + |theta|")

    p = add("demo", cmd_demo, trajectory, help="end-to-end record -> filter -> fit showcase")
    p.set_defaults(eta=0.4, T=4.0)

    finder = argparse.ArgumentParser(prog="susygate", add_help=False, allow_abbrev=False)
    finder.add_argument("--config")
    return parser, subparsers, finder


def _config_argv(subparser: argparse.ArgumentParser, data: bytes) -> list[str]:
    """Option tokens for the ``key=value`` lines of a config file.  Each value
    is checked here against its option's type and choices, or its handler's
    parser, so that a bad one names the file and line; argparse still parses
    the tokens."""
    actions = {opt.lstrip("-"): a for a in subparser._actions for opt in a.option_strings}
    argv = []
    for line_no, line in enumerate(data.decode().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise LineError(line_no, "expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in actions:
            raise LineError(line_no, f"unknown option {key!r}")
        action = actions[key]
        if action.const is not True:
            try:
                parsed = value if action.type is None else action.type(value)
            except ValueError:
                raise LineError(line_no, f"{key}: invalid {action.type.__name__} value: "
                                         f"{value!r}") from None
            if action.dest in HANDLER_PARSED:
                try:
                    HANDLER_PARSED[action.dest](value)
                except ValueError as exc:
                    raise LineError(line_no, f"{key}: {exc}") from None
            if action.choices is not None and parsed not in action.choices:
                raise LineError(line_no, f"{key}: invalid choice: {value!r} (choose from "
                                         f"{', '.join(map(repr, action.choices))})")
            argv.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes"):  # store_true switch
            argv.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no"):
            raise LineError(line_no, f"{key} is a switch, got {value!r}")
    return argv


def main(argv=None) -> int:
    parser, subparsers, finder = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in subparsers:
            found, rest = finder.parse_known_args(argv[1:])
            if found.config is not None:
                decode = functools.partial(_config_argv, subparsers[argv[0]])
                argv[1:] = read_input(found.config, decode) + rest
        args = parser.parse_args(argv)
        t0 = time.monotonic()
        if "seed" in vars(args) and args.seed is None:
            args.seed = int(os.environ.get("SUSYGATE_SEED") or 0)
        ws = Workspace(Path(args.out_dir))
        # save_json refuses every non-finite result, so NumPy's warnings would repeat it
        with np.errstate(all="ignore"):
            args.func(args, ws)
        config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
        ws.write_manifest(args.command, config, getattr(args, "seed", None), t0)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (SusygateError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({exc})", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
