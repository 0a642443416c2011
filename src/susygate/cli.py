"""Command-line interface: every subsystem as a subcommand.

Artifacts are JSON (matrices use the shared schema) plus CSV tables and
static SVG plots; each run also writes ``manifest.json`` recording the
resolved configuration, input hashes, package versions, seed and wall
time, so any artifact can be regenerated from its manifest alone.  Input
hashes are of the bytes that were parsed.  ``--config FILE`` lines
``key=value`` become ``--key=value`` right after the subcommand name, so
argparse reads them and any flag on the command line wins.

Exit codes: 0 success, 2 validation error (bad flags, unreadable or
malformed inputs), 3 numerical failure (non-convergence, step-size abort,
a NaN or infinite result); a run that exits 3 writes no manifest.
Seed resolution order: --seed flag, config file, SUSYGATE_SEED, then 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, channel, dyson, filter_fit, gate_synth, spectrum, susy_toy
from .errors import SusygateError
from .plotting import line_plot_svg
from .serialize import matrix_from_json, matrix_to_json, parse_json, save_json

# largest time grid the filter subcommands accept; each step stores a d×d state
MAX_STEPS = 10**7

# dests whose CLI flag is not just underscores-to-dashes
_DEST_TO_FLAG = {"lam": "lambda"}


@dataclass
class Workspace:
    """Output directory plus the artifact ledger for the manifest."""

    out_dir: Path
    artifacts: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def read(self, path) -> bytes:
        """The bytes of an input file; their SHA-256 goes into the manifest."""
        data = Path(path).read_bytes()
        self.inputs[str(Path(path))] = hashlib.sha256(data).hexdigest()
        return data

    def load_json(self, path):
        return parse_json(self.read(path), path)

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
            "config": {k: v for k, v in sorted(config.items())},
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


def config_to_argv(command: str, config: dict) -> list[str]:
    """Reconstruct an argv for ``main`` from a manifest's config block."""
    argv = [command]
    for dest, value in sorted(config.items()):
        if value is None or value is False:
            continue
        flag = "--" + _DEST_TO_FLAG.get(dest, dest).replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("SUSYGATE_SEED") or 0)


# --------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args, ws: Workspace) -> int:
    spec = spectrum.compute_spectrum(
        args.c1, args.c2, kept=args.dim, raw_dim=args.raw_dim, basis=args.basis
    )
    ws.save_json(args.out, spec.to_json())
    ws.save_csv(
        "energies.csv",
        ["n", "energy"],
        [(n, repr(float(e))) for n, e in enumerate(spec.kept_energies)],
    )
    print(f"spectrum: kept {spec.cutoff_kept} of {spec.cutoff_raw} levels")
    return 0


def cmd_gate(args, ws: Workspace) -> int:
    spec = spectrum.Spectrum.from_json(ws.load_json(args.spectrum))
    pulse = dyson.ControlPulse.from_json(ws.load_json(args.pulse))
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
    }
    if args.oracle:
        reference = dyson.propagate_oracle(spec, pulse)
        ws.save_json("oracle.json", matrix_to_json(reference))
        report["oracle_gap"] = float(np.linalg.norm(gate - reference))
    ws.save_json("gate_report.json", report)
    print(f"gate: unitarity defect {report['unitarity_defect']:.3e}")
    return 0


def _parse_grid(text: str) -> np.ndarray:
    lo, hi, n = text.split(",")
    return np.geomspace(float(lo), float(hi), int(n))


def cmd_synth(args, ws: Workspace) -> int:
    target = matrix_from_json(ws.load_json(args.target))
    spec = spectrum.Spectrum.from_json(ws.load_json(args.spectrum))
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
    if args.lambda_grid is not None:
        grid = _parse_grid(args.lambda_grid)
        reports = gate_synth.sweep(prob, grid)
        ws.save_json("reports.json", [r.to_json() for r in reports])
        rows = [
            (repr(float(l)), repr(r.energy), repr(r.residual), repr(r.fidelity))
            for l, r in zip(grid, reports)
        ]
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
        return 0
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
    return 0


def cmd_channel(args, ws: Workspace) -> int:
    obj = ws.load_json(args.target)
    target = matrix_from_json(obj)
    d_in, d_out = int(obj["d_in"]), int(obj["d_out"])
    if d_in != d_out:
        raise ValueError("channel design requires d_in == d_out")
    joint = channel.JointSystem(
        sys_dim=d_in,
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
    return 0


def cmd_susy(args, ws: Workspace) -> int:
    coeffs = [float(x) for x in args.superpotential.split(",")]
    pair = susy_toy.susy_pair(coeffs, args.dim)
    report = susy_toy.witten_index(pair, zero_tol=args.zero_tol)
    levels = zip(pair.e_minus[:10], pair.e_plus[:10])
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
        [(i, repr(float(a)), repr(float(b))) for i, (a, b) in enumerate(levels)],
    )
    print(f"susy: index {report.index} ({report.label})")
    return 0


def cmd_vev(args, ws: Workspace) -> int:
    d2 = np.asarray(ws.load_json(args.d2), dtype=float)
    v = susy_toy.VevControl(
        d2=d2,
        p_vev=[float(x) for x in args.pvev.split(",")],
        q_vev=[float(x) for x in args.qvev.split(",")],
    )
    a = susy_toy.vev_control(v)
    ws.save_json("control.json", {"a": [float(x) for x in a]})
    print(f"vev: control coefficients {np.round(a, 12).tolist()}")
    return 0


def _load_family(obj) -> tuple[filter_fit.ModelFamily, np.ndarray, np.ndarray, int, list]:
    rho0 = matrix_from_json(obj["rho0"])
    h_specs = obj.get("h_terms", [])
    r_specs = obj.get("rate_terms", [])
    family = filter_fit.ModelFamily(
        h0=matrix_from_json(obj["h0"]),
        h_terms=tuple(matrix_from_json(t["op"]) for t in h_specs),
        rate_bases=tuple(matrix_from_json(t["op"]) for t in r_specs),
        lindblads=tuple(matrix_from_json(m) for m in obj.get("lindblads", [])),
        param_names=tuple(t["name"] for t in h_specs + r_specs),
    )
    truth = np.asarray([float(t["truth"]) for t in h_specs + r_specs])
    meas = int(obj["measurement"])
    grids = []
    for t in h_specs + r_specs:
        lo, hi, npts = t["range"]
        grids.append(np.linspace(float(lo), float(hi), int(npts)))
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


def cmd_filter_sim(args, ws: Workspace) -> int:
    family, rho0, truth, meas, _ = _load_family(ws.load_json(args.model))
    model = family.at(truth)
    times = _times(args.T, args.dt)
    seed = args.seed = _resolve_seed(args)
    traj = filter_fit.sme_simulate(model, meas, args.eta, rho0, times, seed)
    ws.save_json(args.out, traj.to_json())
    ws.save_csv(
        "record.csv",
        ["t", "dY"],
        [(repr(float(t)), repr(float(dy))) for t, dy in zip(times[:-1], traj.record)],
    )
    if args.ensemble:
        mean, sem = filter_fit.ensemble_stats(
            model, meas, args.eta, rho0, times, args.ensemble, seed
        )
        ws.save_json(
            "ensemble_mean.json",
            {
                "n_traj": args.ensemble,
                "mean_final": matrix_to_json(mean[-1]),
                "sem_final": matrix_to_json(sem[-1].astype(complex)),
            },
        )
    print(f"filter-sim: {times.size} states, seed {seed}")
    return 0


def _read_record(text: str, path, times: np.ndarray) -> np.ndarray:
    """The dY column of a ``t,dY`` record whose t column is ``times[:-1]``."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or rows[0][:2] != ["t", "dY"]:
        raise ValueError(f"{path}: expected CSV with header t,dY")
    tol = 1e-9 * max(1.0, times[-1])
    for line_no, row in enumerate(rows[1:], 2):
        if len(row) < 2:
            raise ValueError(f"{path}:{line_no}: expected columns t,dY")
        step = line_no - 2
        if step < times.size - 1 and not abs(float(row[0]) - times[step]) <= tol:
            raise ValueError(f"{path}:{line_no}: t = {row[0]} is not grid time {times[step]!r}")
    return np.asarray([float(r[1]) for r in rows[1:]])


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


def cmd_filter_fit(args, ws: Workspace) -> int:
    family, rho0, truth, meas, grids = _load_family(ws.load_json(args.model))
    times = _times(args.T, args.dt)
    seed = args.seed = _resolve_seed(args)
    record = None
    if args.record:
        record = _read_record(ws.read(args.record).decode(), args.record, times)
    est, fit = _filter_and_fit(
        family, rho0, truth, meas, grids, args.eta, times, seed, args.xtol, record
    )
    ws.save_json("filter_trajectory.json", est.to_json())
    ws.save_json("fitted_trajectory.json", fit.trajectory.to_json())
    ws.save_json(
        "fit_report.json",
        {
            "param_names": list(family.param_names),
            "theta_star": [float(x) for x in fit.theta],
            "truth": [float(x) for x in truth],
            "cost": fit.cost,
            "converged": fit.converged,
            "n_evaluations": len(fit.curve),
            "skipped": [list(t) for t in fit.skipped],
            "fitted_diagnostics": fit.trajectory.diagnostics,
        },
    )
    ws.save_csv(
        "cost_curve.csv",
        list(family.param_names) + ["cost"],
        [tuple(repr(float(x)) for x in t) + (repr(float(c)),) for t, c in fit.curve],
    )
    print(f"filter-fit: theta* = {np.round(fit.theta, 6).tolist()} (cost {fit.cost:.3e})")
    return 0


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


def demo_pipeline(ws: Workspace, seed: int, horizon: float, dt: float, eta: float) -> dict:
    """Measurement record -> filter -> parameter fit -> refit trajectory,
    with a side-by-side comparison table in ``ws``.  Returns the report."""
    family, rho0, truth, meas, grids = default_demo_model()
    times = _times(horizon, dt)
    est, fit = _filter_and_fit(family, rho0, truth, meas, grids, eta, times, seed, 1e-4)
    fitted = fit.trajectory

    stride = max(1, times.size // 100)
    idx = np.arange(0, times.size, stride)
    t_col = [float(t) for t in times[idx]]
    filter_col = [float(x) for x in est.states[idx, 1, 1].real]
    fitted_col = [float(x) for x in fitted.states[idx, 1, 1].real]
    gap_col = [float(np.linalg.norm(fitted.states[i] - est.states[i])) for i in idx]
    rows = [tuple(map(repr, row)) for row in zip(t_col, filter_col, fitted_col, gap_col)]
    ws.save_csv("comparison.csv", ["t", "filter_pop1", "fitted_pop1", "frobenius_gap"], rows)
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
        "seed": seed,
        "eta": eta,
        "horizon": horizon,
        "dt": dt,
        "truth": [float(x) for x in truth],
        "theta_star": [float(x) for x in fit.theta],
        "cost": fit.cost,
        "final_gap_fit": float(np.linalg.norm(fitted.states[-1] - est.states[-1])),
        "final_gap_grid_low": gaps.get((float(grids[0][0]),)),
        "final_gap_grid_high": gaps.get((float(grids[0][-1]),)),
    }
    ws.save_json("demo_report.json", report)
    return report


def cmd_demo(args, ws: Workspace) -> int:
    seed = args.seed = _resolve_seed(args)
    report = demo_pipeline(ws, seed, args.T, args.dt, args.eta)
    print(
        f"demo: gamma* = {report['theta_star'][0]:.4f} (truth {report['truth'][0]}), "
        f"final gap {report['final_gap_fit']:.4f}"
    )
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="susygate",
        description="gate/channel synthesis and filtering for a driven anharmonic mode",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    # flags shared by several subcommands, one factory per group
    def trajectory():
        g = argparse.ArgumentParser(add_help=False)
        g.add_argument("--eta", type=float, default=1.0)
        g.add_argument("--dt", type=float, default=1e-3)
        g.add_argument("--T", type=float, default=2.0)
        g.add_argument("--seed", type=int, default=None)
        return g

    def design():
        g = argparse.ArgumentParser(add_help=False)
        g.add_argument("--target", required=True)
        g.add_argument("--T", type=float, required=True)
        g.add_argument("--K", type=int, required=True)
        return g

    def anharmonic():
        g = argparse.ArgumentParser(add_help=False)
        g.add_argument("--c1", type=float, default=0.0)
        g.add_argument("--c2", type=float, default=0.0)
        return g

    def add(name, func, *groups, **kwargs):
        # a fresh copy of each group: parents share their action objects, so
        # demo's set_defaults would otherwise change the other defaults too
        p = sub.add_parser(name, parents=[group() for group in groups], **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--config", default=None, help="key=value option file")
        subparsers[name] = p
        return p

    p = add("spectrum", cmd_spectrum, anharmonic, help="diagonalize the anharmonic Hamiltonian")
    p.add_argument("--dim", type=int, required=True, help="kept levels (gate dimension)")
    p.add_argument("--raw-dim", type=int, default=None)
    p.add_argument("--basis", choices=["exact", "pt"], default="exact")
    p.add_argument("--out", default="spectrum.json", help="spectrum artifact name")

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
                   help="also average this many trajectories")
    p.add_argument("--out", default="trajectory.json", help="trajectory artifact name")

    p = add("filter-fit", cmd_filter_fit, trajectory,
            help="filter a record and fit free parameters")
    p.add_argument("--model", required=True)
    p.add_argument("--record", default=None, help="CSV (t,dY); simulated when omitted")
    p.add_argument("--xtol", type=float, default=1e-4,
                   help="Gauss–Newton step tolerance, relative to 1 + |theta|")

    p = add("demo", cmd_demo, trajectory, help="end-to-end record -> filter -> fit showcase")
    p.set_defaults(eta=0.4, T=4.0)

    return parser, subparsers


def _config_argv(path: str, subparser: argparse.ArgumentParser) -> list[str]:
    """Option tokens for the ``key=value`` lines of a config file."""
    actions = {opt.lstrip("-"): a for a in subparser._actions for opt in a.option_strings}
    argv = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in actions:
            raise ValueError(f"{path}:{line_no}: unknown option {key!r}")
        if actions[key].const is not True:
            argv.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes"):  # store_true switch
            argv.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no"):
            raise ValueError(f"{path}:{line_no}: {key} is a switch, got {value!r}")
    return argv


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in subparsers:
            finder = argparse.ArgumentParser(prog=f"susygate {argv[0]}", add_help=False)
            finder.add_argument("--config")
            path = finder.parse_known_args(argv[1:])[0].config
            if path is not None:
                argv[1:1] = _config_argv(path, subparsers[argv[0]])
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    ws = Workspace(Path(args.out_dir))
    try:
        status = args.func(args, ws)
        config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
        ws.write_manifest(args.command, config, getattr(args, "seed", None), t0)
    except SusygateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
