"""Workloads of the susygate benchmark: seeded input generation, the
subcommand argv of every job, and one correctness check per op.

A job is a list of ops; an op is one ``susygate`` subcommand invocation.
Inputs are written once per run from the workload seed, and job ``k``
receives only those files and its own ``--seed`` where the subcommand
takes one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from susygate.channel import JointSystem, choi, dyson_channel
from susygate.dyson import ControlPulse, dyson_gate, u0
from susygate.filter_fit import LindbladModel, Trajectory, lindblad_evolve
from susygate.gate_synth import design_matrix
from susygate.serialize import matrix_from_json, matrix_to_json
from susygate.spectrum import Spectrum, build_h0, compute_spectrum

WORKLOADS = ("monitor_fit", "ensemble", "control_design")
MAX_JOBS = 1000  # per-job seeds written to the plan; jobs beyond wrap around

SX = np.array([[0, 1], [1, 0]], dtype=complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
RHO_EXCITED = np.array([[0, 0], [0, 1]], dtype=complex)

# Pilot design of tests/fixtures/filter_fit_pilot.json at horizon 2 (copied,
# so that a later edit of the fixture does not change the workload).
FIT = {"gamma": 0.7, "grid": (0.1, 1.5, 8), "xtol": 1e-3, "eta": 0.1, "dt": 1e-3, "T": 2.0}
# Model of acceptance criterion c07 at horizon 1.
ENSEMBLE = {"gamma": 0.7, "eta": 0.4, "dt": 1e-3, "T": 1.0, "n_traj": 100}

# Gate design point.  At raw dimension 24 and |beta| = 0.1 the oracle's
# Cauchy gap at its final 16384-step grid sits near half of 1e-8 for every
# draw, so its doubling count (and cost) does not flip between seeds.
GATE = {"kept": 4, "raw": 24, "T": 4.0, "K": 3, "norm": 0.1, "spread": 0.02}
LAMBDA_GRID = "1e-4,1e4,9"
# Joint models of tests/test_channel.py::test_planted_channel_recovery.  The
# qutrit target converges; the qubit one exhausts the sweep budget without
# converging (Choi distance ~5e-2), and is counted as a failed op.
JOINT = {"anc_dim": 2, "anc_freq": 1.3, "coupling": 0.15, "c1": 0.02, "c2": 0.01, "T": 6.0, "norm": 0.03}
CHANNEL_K = {3: 2, 2: 1}  # system dimension -> harmonics

# Tolerances borrowed from the tests and acceptance criteria.
SPECTRUM_TOL = 1e-10      # c01
RESIDUAL_TOL = 1e-12      # tests/test_gate_synth.py residual comparisons
BUDGET_RTOL = 1e-4        # tests/test_cli.py::test_synth_budget_form
CHOI_TOL = 1e-6           # tests/test_channel.py::test_planted_channel_recovery


class Miss(Exception):
    """An output missed its correctness check; the op failed.

    ``wrong`` is false when the miss does not show a wrong output: the
    program reported the failure itself (``converged: false``), or the check
    is statistical and misses at a small rate for a correct program.
    """

    def __init__(self, message: str, wrong: bool = True):
        super().__init__(message)
        self.wrong = wrong


@dataclass
class Op:
    argv: list
    out_dir: Path
    check: Callable[[Path], None]  # raises Miss

    @property
    def name(self) -> str:
        return self.argv[0]


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _load(path: Path):
    return json.loads(Path(path).read_text())


def _damping_model() -> dict:
    """Model file: 0.5·σx drive, damping rate as the free parameter on the
    pilot grid (truth 0.7), excited initial state, measured jump operator."""
    return {
        "rho0": matrix_to_json(RHO_EXCITED),
        "h0": matrix_to_json(0.5 * SX),
        "h_terms": [],
        "rate_terms": [
            {"name": "gamma", "op": matrix_to_json(LOWER), "range": list(FIT["grid"]), "truth": FIT["gamma"]}
        ],
        "lindblads": [],
        "measurement": 0,
    }


def _polar(u: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class Workload:
    """Generated inputs of one run plus the ops of each job."""

    def __init__(self, name: str, seed: int, inputs: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.inputs = name, int(seed), Path(inputs)
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        plan = {"workload": name, "seed": self.seed}
        if name in ("monitor_fit", "ensemble"):
            plan["job_seeds"] = [int(s) for s in rng.integers(0, 2**31 - 1, size=MAX_JOBS)]
            _dump(self.inputs / "model.json", _damping_model())
        else:
            plan.update(self._control_inputs(rng))
        _dump(self.inputs / "plan.json", plan)
        self.plan = plan
        self._reference = None

    # -- generation -------------------------------------------------------

    def _control_inputs(self, rng) -> dict:
        g = GATE
        c1 = 0.03 * (1.0 + 0.05 * rng.uniform(-1, 1))
        c2 = 0.01 * (1.0 + 0.05 * rng.uniform(-1, 1))
        spec = compute_spectrum(c1, c2, kept=g["kept"], raw_dim=g["raw"])
        n_par = 2 * g["K"] + 1
        ref_dir = _unit(np.random.default_rng(7), n_par)  # fixed design direction
        beta = g["norm"] * (ref_dir + g["spread"] * rng.normal(size=n_par))
        first_order = u0(spec, g["T"]).reshape(-1) + design_matrix(spec, g["T"], g["K"]) @ beta
        target = _polar(first_order.reshape(g["kept"], g["kept"]))
        _dump(self.inputs / "target.json", matrix_to_json(target))
        budget = 0.5 * ControlPulse(g["T"], beta).energy()

        for d, k in CHANNEL_K.items():
            joint = self._joint(d)
            planted = ControlPulse(JOINT["T"], JOINT["norm"] * _unit(rng, 2 * k + 1))
            obj = {**matrix_to_json(choi(dyson_channel(joint, planted))), "d_in": d, "d_out": d}
            _dump(self.inputs / f"choi{d}.json", obj)

        harmonic = [0.0, 0.0, float(rng.uniform(0.45, 0.55))]
        cubic = [0.0, 0.0, 0.0, float(rng.uniform(0.30, 0.37))]
        superpotentials = {"harmonic": harmonic, "cubic": cubic}
        _dump(self.inputs / "superpotentials.json", superpotentials)
        return {"c1": c1, "c2": c2, "budget": budget, "superpotentials": superpotentials}

    @staticmethod
    def _joint(d: int) -> JointSystem:
        return JointSystem(
            sys_dim=d, anc_dim=JOINT["anc_dim"], anc_freq=JOINT["anc_freq"],
            coupling=JOINT["coupling"], c1=JOINT["c1"], c2=JOINT["c2"],
        )

    # -- jobs ---------------------------------------------------------------

    def job_seed(self, k: int) -> int:
        return self.plan["job_seeds"][k % MAX_JOBS]

    def ops(self, k: int, out: Path) -> list:
        """Ops of job ``k``, writing under ``out``."""
        out = Path(out)
        if self.name == "monitor_fit":
            f = FIT
            d = out / "0-filter-fit"
            argv = ["filter-fit", "--model", self.inputs / "model.json", "--eta", f["eta"],
                    "--dt", f["dt"], "--T", f["T"], "--xtol", f["xtol"], "--seed", self.job_seed(k)]
            return [_op(argv, d, self._check_fit)]
        if self.name == "ensemble":
            e = ENSEMBLE
            d = out / "0-filter-sim"
            argv = ["filter-sim", "--model", self.inputs / "model.json", "--eta", e["eta"],
                    "--dt", e["dt"], "--T", e["T"], "--ensemble", e["n_traj"], "--seed", self.job_seed(k)]
            return [_op(argv, d, self._check_ensemble)]
        return self._control_ops(out)

    def _control_ops(self, out: Path) -> list:
        p, g, j = self.plan, GATE, JOINT
        spec_dir = out / "0-spectrum"
        spectrum_file = spec_dir / "spectrum.json"
        synth = ["synth", "--target", self.inputs / "target.json", "--spectrum", spectrum_file,
                 "--T", g["T"], "--K", g["K"]]
        ops = [
            _op(["spectrum", "--c1", repr(p["c1"]), "--c2", repr(p["c2"]), "--dim", g["kept"],
                 "--raw-dim", g["raw"]], spec_dir, self._check_spectrum),
            _op(synth + ["--lambda", 0.0], out / "1-synth", self._check_synth),
            _op(synth + ["--lambda-grid", LAMBDA_GRID], out / "2-synth-sweep", _check_sweep),
            _op(synth + ["--budget", repr(p["budget"]), "--no-oracle-check"],
                out / "3-synth-budget", self._check_budget),
        ]
        for d, k in CHANNEL_K.items():
            argv = ["channel", "--target", self.inputs / f"choi{d}.json", "--anc-dim", j["anc_dim"],
                    "--anc-freq", j["anc_freq"], "--coupling", j["coupling"], "--c1", j["c1"],
                    "--c2", j["c2"], "--T", j["T"], "--K", k, "--lambda", 0.0]
            ops.append(_op(argv, out / f"{len(ops)}-channel{d}", partial(self._check_channel, dim=d)))
        for case, coeffs in p["superpotentials"].items():
            dim = 32 if case == "harmonic" else 64
            argv = ["susy", "--superpotential", ",".join(repr(c) for c in coeffs), "--dim", dim]
            ops.append(_op(argv, out / f"{len(ops)}-susy-{case}", _SUSY_CHECKS[case]))
        return ops

    # -- checks ---------------------------------------------------------------

    def _check_spectrum(self, d: Path) -> None:
        rows = (d / "energies.csv").read_text().split()[1:]
        kept = np.array([float(r.split(",")[1]) for r in rows])
        exact = np.linalg.eigvalsh(build_h0(self.plan["c1"], self.plan["c2"], GATE["raw"]))
        err = np.max(np.abs(kept - exact[: GATE["kept"]]))
        if kept.size != GATE["kept"] or not err <= SPECTRUM_TOL:
            raise Miss(f"kept energies off eigvalsh(build_h0) by {err:.3e}")

    def _synth_residual(self, d: Path) -> dict:
        spec = Spectrum.from_json(_load(d.parent / "0-spectrum" / "spectrum.json"))
        pulse = ControlPulse.from_json(_load(d / "pulse.json"))
        target = matrix_from_json(_load(self.inputs / "target.json"))
        report = _load(d / "synth_report.json")
        residual = float(np.linalg.norm(dyson_gate(spec, pulse) - target))
        if not abs(residual - report["residual"]) <= RESIDUAL_TOL:
            raise Miss(f"pulse.json gives residual {residual!r}, report says {report['residual']!r}")
        return report

    def _check_synth(self, d: Path) -> None:
        report = self._synth_residual(d)
        if report["oracle_fidelity"] is None:
            raise Miss("oracle check did not run")

    def _check_budget(self, d: Path) -> None:
        report = self._synth_residual(d)
        budget = self.plan["budget"]
        if not abs(report["energy"] - budget) <= BUDGET_RTOL * budget:
            raise Miss(f"energy {report['energy']!r} misses budget {budget!r}")

    def _check_channel(self, d: Path, dim: int) -> None:
        target = matrix_from_json(_load(self.inputs / f"choi{dim}.json"))
        report = _load(d / "channel_report.json")
        pulse = ControlPulse.from_json(report["pulse"])
        dist = float(np.linalg.norm(choi(dyson_channel(self._joint(dim), pulse)) - target))
        if not dist <= CHOI_TOL:
            raise Miss(
                f"{dim}-level planted target missed: Choi distance {dist:.3e}, "
                f"converged={report['converged']}",
                wrong=report["converged"],
            )

    def _check_fit(self, d: Path) -> None:
        for name in ("filter_trajectory.json", "fitted_trajectory.json"):
            try:
                Trajectory.from_json(_load(d / name)).validate()
            except ValueError as exc:
                raise Miss(f"{name}: {exc}") from exc
        lo, hi, _ = FIT["grid"]
        theta = _load(d / "fit_report.json")["theta_star"][0]
        if not lo <= theta <= hi:
            raise Miss(f"theta* = {theta!r} outside the grid hull [{lo}, {hi}]")

    def reference_final(self) -> np.ndarray:
        """Final state of the Lindblad reference of the ensemble workload."""
        if self._reference is None:
            model = LindbladModel(0.5 * SX, (np.sqrt(ENSEMBLE["gamma"]) * LOWER,))
            n = int(round(ENSEMBLE["T"] / ENSEMBLE["dt"]))
            times = np.arange(n + 1) * ENSEMBLE["dt"]
            self._reference = lindblad_evolve(model, RHO_EXCITED, times).states[-1]
        return self._reference

    def _check_ensemble(self, d: Path) -> None:
        ens = _load(d / "ensemble_mean.json")
        mean = matrix_from_json(ens["mean_final"])
        stderr = float(np.sqrt(np.sum(matrix_from_json(ens["sem_final"]).real ** 2)))
        gap = float(np.linalg.norm(mean - self.reference_final()))
        if ens["n_traj"] != ENSEMBLE["n_traj"]:
            raise Miss(f"ensemble of {ens['n_traj']} trajectories, asked for {ENSEMBLE['n_traj']}")
        if not gap <= 3.0 * stderr:
            # about 1 job in 150 misses by chance (z-score tail of a 100-member mean)
            raise Miss(f"final mean {gap:.3e} from the Lindblad reference, 3 stderr = {3 * stderr:.3e}",
                       wrong=False)


def _op(argv, out_dir: Path, check) -> Op:
    argv = [str(a) for a in argv] + ["--out-dir", str(out_dir)]
    return Op(argv=argv, out_dir=Path(out_dir), check=check)


def _check_sweep(d: Path) -> None:
    reports = _load(d / "reports.json")
    energies = [r["energy"] for r in reports]
    residuals = [r["residual"] for r in reports]
    if not all(b <= a for a, b in zip(energies, energies[1:])):
        raise Miss("sweep energies increase along the multiplier grid")
    if not all(b >= a for a, b in zip(residuals, residuals[1:])):
        raise Miss("sweep residuals decrease along the multiplier grid")


def _susy_check(index: int, label: str):
    def check(d: Path) -> None:
        report = _load(d / "susy_report.json")
        if (report["index"], report["susy"]) != (index, label):
            raise Miss(f"index {report['index']} ({report['susy']}), expected {index} ({label})")

    return check


# c09: the harmonic superpotential has index 1 and unbroken SUSY; the cubic
# one has index 0 and broken SUSY.
_SUSY_CHECKS = {"harmonic": _susy_check(1, "unbroken"), "cubic": _susy_check(0, "broken")}
