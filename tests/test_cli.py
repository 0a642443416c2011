import builtins
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susygate
from susygate import cli
from susygate.dyson import ControlPulse, u0
from susygate.gate_synth import design_matrix
from susygate.serialize import load_json, matrix_from_json, matrix_to_json, save_json
from susygate.spectrum import Spectrum, compute_spectrum


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def cli_env() -> dict:
    """Environment in which a child Python imports this susygate."""
    src = str(Path(susygate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def write_damping_model(path, gamma_truth=0.7, grid=(0.1, 1.5, 8)):
    lower = [[0, 1], [0, 0]]
    sx = [[0, 0.5], [0.5, 0]]
    obj = {
        "rho0": matrix_to_json(np.array([[0, 0], [0, 1.0]])),
        "h0": matrix_to_json(np.array(sx)),
        "h_terms": [],
        "rate_terms": [
            {
                "name": "gamma",
                "op": matrix_to_json(np.array(lower, dtype=float)),
                "range": list(grid),
                "truth": gamma_truth,
            }
        ],
        "lindblads": [],
        "measurement": 0,
    }
    save_json(path, obj)
    return path


# --- spectrum ---------------------------------------------------------------

def test_spectrum_harmonic_csv(tmp_path):
    assert run_cli("spectrum", "--dim", 6, "--out-dir", tmp_path) == 0
    with open(tmp_path / "energies.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "energy"]
    energies = [float(r[1]) for r in rows[1:]]
    assert np.allclose(energies, np.arange(6) + 0.5, atol=1e-10)
    spec = Spectrum.from_json(load_json(tmp_path / "spectrum.json"))
    assert spec.cutoff_kept == 6


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
def test_manifest_written_and_complete(tmp_path):
    run_cli("spectrum", "--dim", 4, "--c1", 0.01, "--out-dir", tmp_path)
    manifest = load_json(tmp_path / "manifest.json")
    assert manifest["command"] == "spectrum"
    assert "spectrum.json" in manifest["artifacts"]
    assert manifest["config"]["c1"] == 0.01
    assert "numpy" in manifest["versions"]
    assert manifest["wall_time_s"] >= 0


def test_artifact_regenerable_from_manifest(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_cli("spectrum", "--dim", 5, "--c1", 0.02, "--c2", 0.01, "--out-dir", first)
    manifest = load_json(first / "manifest.json")
    argv = cli.config_to_argv(manifest["command"], manifest["config"])
    argv[argv.index("--out-dir") + 1] = str(second)
    assert cli.main(argv) == 0
    for name in manifest["artifacts"]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


# --- exit codes ---------------------------------------------------------------

def test_unknown_subcommand_exits_2():
    assert run_cli("frobnicate") == 2


def test_unreadable_input_exits_2(tmp_path):
    assert run_cli("gate", "--spectrum", tmp_path / "missing.json",
                   "--pulse", tmp_path / "missing2.json", "--out-dir", tmp_path) == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("gate", "--spectrum", bad, "--pulse", bad,
                   "--out-dir", tmp_path) == 2


def test_validation_error_exits_2(tmp_path):
    assert run_cli("spectrum", "--dim", 6, "--raw-dim", 2, "--out-dir", tmp_path) == 2


def test_raw_dim_without_reach_exits_2(tmp_path):
    assert run_cli("spectrum", "--dim", 2, "--raw-dim", 3, "--out-dir", tmp_path) == 2


def test_numerical_failure_exits_3(tmp_path):
    # degree-6 superpotential at a tiny cutoff cannot converge
    assert run_cli("susy", "--superpotential", "0,0,0,0,0,0,1", "--dim", 8,
                   "--out-dir", tmp_path) == 3


# --- gate / synth ----------------------------------------------------------------

@pytest.fixture
def stored_spectrum(tmp_path):
    path = tmp_path / "spectrum.json"
    save_json(path, compute_spectrum(0.03, 0.01, kept=4).to_json())
    return path


def test_gate_subcommand(tmp_path, stored_spectrum):
    pulse_path = tmp_path / "pulse.json"
    save_json(pulse_path, ControlPulse(2.0, np.array([0.05, 0.02, 0.0])).to_json())
    assert run_cli("gate", "--spectrum", stored_spectrum, "--pulse", pulse_path,
                   "--oracle", "--out-dir", tmp_path) == 0
    report = load_json(tmp_path / "gate_report.json")
    assert report["unitarity_defect"] < 0.1
    assert report["oracle_gap"] < 0.05
    gate = matrix_from_json(load_json(tmp_path / "gate.json"))
    assert gate.shape == (4, 4)


def test_synth_planted_fixture(tmp_path, stored_spectrum):
    # fixture built by the gate machinery itself: a target inside the
    # affine range of the first-order gate map
    spec = Spectrum.from_json(load_json(stored_spectrum))
    horizon, n_h = 8.0, 6
    rng = np.random.default_rng(5)
    beta = rng.normal(size=2 * n_h + 1)
    beta *= 0.05 / np.linalg.norm(beta)
    a = design_matrix(spec, horizon, n_h)
    target = (u0(spec, horizon).reshape(-1) + a @ beta).reshape(4, 4)
    target_path = tmp_path / "target.json"
    save_json(target_path, matrix_to_json(target))
    assert run_cli(
        "synth", "--target", target_path, "--spectrum", stored_spectrum,
        "--T", horizon, "--K", n_h, "--lambda", 0.0, "--allow-nonunitary",
        "--no-oracle-check", "--out-dir", tmp_path,
    ) == 0
    report = load_json(tmp_path / "synth_report.json")
    assert report["residual"] <= 1e-8
    recovered = np.asarray(load_json(tmp_path / "pulse.json")["coeffs"])
    assert np.linalg.norm(recovered - beta) < 1e-7


def test_synth_sweep_pareto(tmp_path, stored_spectrum):
    spec = Spectrum.from_json(load_json(stored_spectrum))
    target_path = tmp_path / "target.json"
    save_json(target_path, matrix_to_json(u0(spec, 2.0)))
    assert run_cli(
        "synth", "--target", target_path, "--spectrum", stored_spectrum,
        "--T", 2.0, "--K", 2, "--lambda-grid", "1e-4,1e4,5",
        "--out-dir", tmp_path,
    ) == 0
    with open(tmp_path / "pareto.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "energy", "residual", "fidelity"]
    energies = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    assert (tmp_path / "pareto.svg").exists()


def test_synth_budget_form(tmp_path, stored_spectrum):
    spec = Spectrum.from_json(load_json(stored_spectrum))
    horizon, n_h = 8.0, 6
    rng = np.random.default_rng(5)
    beta = rng.normal(size=2 * n_h + 1)
    beta *= 0.05 / np.linalg.norm(beta)
    a = design_matrix(spec, horizon, n_h)
    target = (u0(spec, horizon).reshape(-1) + a @ beta).reshape(4, 4)
    target_path = tmp_path / "target.json"
    save_json(target_path, matrix_to_json(target))
    assert run_cli(
        "synth", "--target", target_path, "--spectrum", stored_spectrum,
        "--T", horizon, "--K", n_h, "--budget", 1e-4, "--allow-nonunitary",
        "--no-oracle-check", "--out-dir", tmp_path,
    ) == 0
    report = load_json(tmp_path / "synth_report.json")
    assert report["energy"] == pytest.approx(1e-4, rel=1e-4)
    assert report["multiplier"] > 0


# --- channel ----------------------------------------------------------------------

def test_channel_subcommand(tmp_path):
    from susygate.channel import JointSystem, choi, dyson_channel

    joint = JointSystem(sys_dim=2, anc_dim=2)
    target = choi(dyson_channel(joint, ControlPulse(2.0, np.zeros(3))))
    target_path = tmp_path / "choi.json"
    save_json(target_path, {**matrix_to_json(target), "d_in": 2, "d_out": 2})
    assert run_cli(
        "channel", "--target", target_path, "--anc-dim", 2, "--T", 2.0,
        "--K", 1, "--lambda", 0.0, "--out-dir", tmp_path,
    ) == 0
    report = load_json(tmp_path / "channel_report.json")
    assert report["distance"] < 1e-6


# --- susy / vev ---------------------------------------------------------------------

def test_susy_subcommand(tmp_path):
    assert run_cli("susy", "--superpotential", "0,0,0.5", "--dim", 32,
                   "--out-dir", tmp_path) == 0
    report = load_json(tmp_path / "susy_report.json")
    assert report["index"] == 1 and report["susy"] == "unbroken"
    with open(tmp_path / "partner_energies.csv") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-9)


def test_susy_diagonalizes_each_partner_once(tmp_path, monkeypatch):
    # the cutoff check diagonalizes both partners at two cutoffs; the index
    # and the energy table reuse the spectra kept on the pair
    calls = []
    original = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert run_cli("susy", "--superpotential", "0,0,0,0.33", "--dim", 64,
                   "--out-dir", tmp_path) == 0
    assert len(calls) == 4


def test_vev_subcommand(tmp_path):
    d2_path = tmp_path / "d2.json"
    save_json(d2_path, [[[1.0], [0.0]], [[0.0], [2.0]]])  # shape (2, 2, 1)
    assert run_cli("vev", "--d2", d2_path, "--pvev", "1,2", "--qvev", "3",
                   "--out-dir", tmp_path) == 0
    a = load_json(tmp_path / "control.json")["a"]
    assert a == pytest.approx([3.0, 12.0])


def test_vev_prints_plain_numbers(tmp_path, capsys):
    d2_path = tmp_path / "d2.json"
    save_json(d2_path, [[[1.0], [0.0]], [[0.0], [2.0]]])
    assert run_cli("vev", "--d2", d2_path, "--pvev", "1,2", "--qvev", "3",
                   "--out-dir", tmp_path) == 0
    out = capsys.readouterr().out
    assert "np.float64" not in out
    assert "[3.0, 12.0]" in out


# --- filter subcommands ---------------------------------------------------------------

def test_filter_sim_deterministic_artifacts(tmp_path):
    model_path = write_damping_model(tmp_path / "model.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run_cli(
            "filter-sim", "--model", model_path, "--eta", 0.5, "--dt", 1e-3,
            "--T", 0.5, "--seed", 21, "--out-dir", out,
        ) == 0
    assert (out1 / "trajectory.json").read_bytes() == (out2 / "trajectory.json").read_bytes()
    assert (out1 / "record.csv").read_bytes() == (out2 / "record.csv").read_bytes()


def test_filter_sim_ensemble(tmp_path):
    model_path = write_damping_model(tmp_path / "model.json")
    assert run_cli(
        "filter-sim", "--model", model_path, "--eta", 0.5, "--dt", 5e-3,
        "--T", 0.5, "--seed", 9, "--ensemble", 8,
        "--out-dir", tmp_path,
    ) == 0
    ens = load_json(tmp_path / "ensemble_mean.json")
    assert ens["n_traj"] == 8
    mean_final = matrix_from_json(ens["mean_final"])
    assert np.trace(mean_final).real == pytest.approx(1.0, abs=1e-8)


def test_filter_sim_single_member_ensemble_exits_2(tmp_path):
    model_path = write_damping_model(tmp_path / "model.json")
    assert run_cli(
        "filter-sim", "--model", model_path, "--dt", 1e-2, "--T", 0.1,
        "--seed", 9, "--ensemble", 1, "--out-dir", tmp_path,
    ) == 2


def test_filter_sim_seed_env_fallback(tmp_path, monkeypatch):
    model_path = write_damping_model(tmp_path / "model.json")
    monkeypatch.setenv("SUSYGATE_SEED", "77")
    assert run_cli("filter-sim", "--model", model_path, "--dt", 1e-2, "--T", 0.2,
                   "--out-dir", tmp_path) == 0
    traj = load_json(tmp_path / "trajectory.json")
    assert traj["seed"] == 77
    manifest = load_json(tmp_path / "manifest.json")
    assert manifest["seed"] == 77


def test_filter_fit_subcommand(tmp_path):
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 5))
    assert run_cli(
        "filter-fit", "--model", model_path, "--eta", 0.6, "--dt", 2e-3,
        "--T", 2.0, "--seed", 4, "--out-dir", tmp_path,
    ) == 0
    report = load_json(tmp_path / "fit_report.json")
    assert report["param_names"] == ["gamma"]
    assert 0.2 < report["theta_star"][0] < 1.3
    assert report["converged"] is True
    diag = report["fitted_diagnostics"]
    assert 0.0 <= diag["max_trace_drift"] < 1e-12
    assert diag["min_eigenvalue"] > -1e-12
    assert "diagnostics" not in load_json(tmp_path / "fitted_trajectory.json")
    with open(tmp_path / "cost_curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma", "cost"]
    assert len(rows) > 5


def test_filter_fit_external_record(tmp_path):
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    sim_dir = tmp_path / "sim"
    run_cli("filter-sim", "--model", model_path, "--eta", 0.6, "--dt", 2e-3,
            "--T", 1.0, "--seed", 4, "--out-dir", sim_dir)
    assert run_cli(
        "filter-fit", "--model", model_path, "--record", sim_dir / "record.csv",
        "--eta", 0.6, "--dt", 2e-3, "--T", 1.0, "--out-dir", tmp_path,
    ) == 0
    assert (tmp_path / "fitted_trajectory.json").exists()


def test_filter_fit_prints_plain_numbers(tmp_path, capsys):
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    assert run_cli("filter-fit", "--model", model_path, "--dt", 1e-2, "--T", 0.5,
                   "--seed", 1, "--out-dir", tmp_path) == 0
    out = capsys.readouterr().out
    assert "np.float64" not in out
    theta = load_json(tmp_path / "fit_report.json")["theta_star"]
    assert f"theta* = {np.round(theta, 6).tolist()}" in out


def test_filter_fit_simulated_record_matches_external_record(tmp_path):
    # filtering the simulated record again would repeat the simulation bit
    # for bit, so a run without --record must write what a run on the
    # same record writes
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    grid = ["--eta", 0.4, "--dt", 2e-3, "--T", 1.0, "--seed", 4]
    sim, fed, own = tmp_path / "sim", tmp_path / "fed", tmp_path / "own"
    assert run_cli("filter-sim", "--model", model_path, *grid, "--out-dir", sim) == 0
    assert run_cli("filter-fit", "--model", model_path, "--record", sim / "record.csv",
                   *grid, "--out-dir", fed) == 0
    assert run_cli("filter-fit", "--model", model_path, *grid, "--out-dir", own) == 0
    for name in ("filter_trajectory.json", "fit_report.json"):
        assert (fed / name).read_bytes() == (own / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["filter-fit", "--model", "model.json"], ["demo"]],
    ids=["filter-fit", "demo"],
)
def test_simulated_record_runs_one_sme_integration(tmp_path, monkeypatch, argv):
    from susygate import filter_fit

    write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    monkeypatch.chdir(tmp_path)
    calls = []
    original = filter_fit._sme_run

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(filter_fit, "_sme_run", counting)
    assert run_cli(*argv, "--dt", 1e-2, "--T", 0.5, "--seed", 2, "--out-dir", "out") == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "horizon, dt",
    [(1.0, 0.0), (1.0, -1e-3), (1.0, "nan"), (1.0, "inf"), ("inf", 1e-3),
     ("nan", 1e-3), (1e300, 1e-300)],
)
def test_filter_sim_bad_grid_exits_2(tmp_path, horizon, dt):
    model_path = write_damping_model(tmp_path / "model.json")
    assert run_cli("filter-sim", "--model", model_path, f"--T={horizon}", f"--dt={dt}",
                   "--seed", 1, "--out-dir", tmp_path) == 2


@pytest.mark.parametrize("horizon", [1e15, (cli.MAX_STEPS + 1) * 1e-3])
def test_filter_sim_too_many_steps_exits_2(tmp_path, monkeypatch, horizon):
    arange = np.arange

    def no_huge_grid(*args, **kwargs):
        assert not (args and np.ndim(args[0]) == 0 and args[0] > cli.MAX_STEPS + 1), \
            "the time grid was allocated"
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", no_huge_grid)
    model_path = write_damping_model(tmp_path / "model.json")
    assert run_cli("filter-sim", "--model", model_path, f"--T={horizon!r}", "--dt=1e-3",
                   "--seed", 1, "--out-dir", tmp_path) == 2


@pytest.mark.parametrize("xtol", [0, -1])
def test_filter_fit_bad_xtol_exits_2(tmp_path, xtol):
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    assert run_cli("filter-fit", "--model", model_path, "--dt", 1e-2, "--T", 0.2,
                   f"--xtol={xtol}", "--seed", 1, "--out-dir", tmp_path) == 2


def test_filter_fit_short_record_row_exits_2(tmp_path, capsys):
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    record = tmp_path / "record.csv"
    record.write_text("t,dY\n0.0\n")
    assert run_cli("filter-fit", "--model", model_path, "--record", record,
                   "--dt", 1e-2, "--T", 0.01, "--out-dir", tmp_path) == 2
    assert f"{record}:2" in capsys.readouterr().err


def test_filter_fit_record_on_another_grid_exits_2(tmp_path, capsys):
    # same row count, different times: 200 steps of 2e-3 fitted as 200 of 1e-3
    model_path = write_damping_model(tmp_path / "model.json")
    assert run_cli("filter-sim", "--model", model_path, "--dt", 2e-3, "--T", 0.4,
                   "--seed", 1, "--out-dir", tmp_path / "sim") == 0
    record = tmp_path / "sim" / "record.csv"
    assert run_cli("filter-fit", "--model", model_path, "--record", record,
                   "--dt", 1e-3, "--T", 0.2, "--out-dir", tmp_path / "fit") == 2
    assert f"{record}:3:" in capsys.readouterr().err
    assert not (tmp_path / "fit" / "manifest.json").exists()


# Edge values plus valid ones; valid grids stay at or below 100 steps.
_EDGES = [0.0, -1.0, float("nan"), float("inf"), float("-inf")]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["filter-sim", "filter-fit"]),
    horizon=st.sampled_from(_EDGES + [0.1, 0.5]),
    dt=st.sampled_from(_EDGES + [5e-3, 1e-2, 3e-2]),
    eta=st.sampled_from(_EDGES + [0.3, 1.0]),
    xtol=st.sampled_from(_EDGES + [1e-3, 1e-300]),
)
def test_filter_exit_code_contract(command, horizon, dt, eta, xtol):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model_path = write_damping_model(tmp / "model.json", grid=(0.3, 1.1, 3))
        argv = [command, "--model", model_path, f"--T={horizon}", f"--dt={dt}",
                f"--eta={eta}", "--seed", 1, "--out-dir", tmp / "out"]
        if command == "filter-fit":
            argv.append(f"--xtol={xtol}")
        assert run_cli(*argv) in (0, 2, 3)


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# spectrum defaults\ndim=6\nc1=0.01\n")
    out = tmp_path / "via-config"
    assert run_cli("spectrum", "--config", cfg, "--out-dir", out) == 0
    assert load_json(out / "manifest.json")["config"]["dim"] == 6
    out2 = tmp_path / "override"
    assert run_cli("spectrum", "--config", cfg, "--dim", 3, "--out-dir", out2) == 0
    assert load_json(out2 / "manifest.json")["config"]["dim"] == 3


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
@pytest.mark.parametrize("spelling", [["--config={cfg}"], ["--conf", "{cfg}"]],
                         ids=["equals", "prefix"])
def test_config_spellings_apply_the_file(tmp_path, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c1=0.02\n")
    argv = [a.format(cfg=cfg) for a in spelling]
    assert run_cli("spectrum", *argv, "--dim", 3, "--out-dir", tmp_path) == 0
    assert load_json(tmp_path / "manifest.json")["config"]["c1"] == 0.02


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
def test_flag_before_config_still_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=6\nc1=0.02\n")
    assert run_cli("spectrum", "--c1", 0.01, "--config", cfg, "--out-dir", tmp_path) == 0
    config = load_json(tmp_path / "manifest.json")["config"]
    assert (config["c1"], config["dim"]) == (0.01, 6)


def test_config_switch_and_choice_go_through_argparse(tmp_path, stored_spectrum):
    spec = Spectrum.from_json(load_json(stored_spectrum))
    save_json(tmp_path / "target.json", matrix_to_json(u0(spec, 2.0)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"target={tmp_path / 'target.json'}\nspectrum={stored_spectrum}\n"
                   "T=2\nK=1\nlambda=0\nno-oracle-check=yes\nmatch-phase=0\n")
    assert run_cli("synth", "--config", cfg, "--out-dir", tmp_path) == 0
    config = load_json(tmp_path / "manifest.json")["config"]
    assert (config["no_oracle_check"], config["match_phase"], config["K"]) == (True, False, 1)
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim=3\nbasis=fourier\n")
    assert run_cli("spectrum", "--config", bad, "--out-dir", tmp_path) == 2


def test_config_missing_equals_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ndim 3\n")
    assert run_cli("spectrum", "--config", cfg, "--out-dir", tmp_path) == 2
    assert f"{cfg}:2: expected key=value" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(cli.build_parser()[1]))
def test_config_without_value_exits_2(name):
    assert run_cli(name, "--config") == 2


def test_config_switch_with_a_value_rejected(tmp_path, stored_spectrum, capsys):
    # oracle=64 was a grid size; a switch takes only yes/no words
    pulse_path = tmp_path / "pulse.json"
    save_json(pulse_path, ControlPulse(2.0, np.array([0.05, 0.02, 0.0])).to_json())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"spectrum={stored_spectrum}\npulse={pulse_path}\noracle=64\n")
    assert run_cli("gate", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    assert f"{cfg}:3:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate=1\n")
    assert run_cli("spectrum", "--config", cfg, "--dim", 4, "--out-dir", tmp_path) == 2


# --- demo -------------------------------------------------------------------------

def test_demo_pipeline(tmp_path):
    assert run_cli("demo", "--seed", 3, "--T", 2.0, "--dt", 2e-3,
                   "--out-dir", tmp_path) == 0
    report = load_json(tmp_path / "demo_report.json")
    assert report["final_gap_fit"] <= report["final_gap_grid_low"]
    assert report["final_gap_fit"] <= report["final_gap_grid_high"]
    assert (tmp_path / "comparison.csv").exists()
    assert (tmp_path / "comparison.svg").exists()
    manifest = load_json(tmp_path / "manifest.json")
    assert "comparison.csv" in manifest["artifacts"]


def test_demo_integrates_no_grid_point_twice(tmp_path, monkeypatch):
    # the grid-extreme gaps come from the fit's own final states: 13
    # integrations (8 grid points, 5 Gauss–Newton trials), not 15
    from susygate import filter_fit

    calls = []
    original = filter_fit.lindblad_evolve

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(filter_fit, "lindblad_evolve", counting)
    assert run_cli("demo", "--seed", 3, "--out-dir", tmp_path) == 0
    assert len(calls) == 13


def test_demo_default_size_under_budget(tmp_path):
    import time
    t0 = time.monotonic()
    assert run_cli("demo", "--seed", 1, "--out-dir", tmp_path) == 0
    assert time.monotonic() - t0 < 60.0


def test_demo_seed_stability(tmp_path):
    # different record, but the fitted parameter stays in a tolerance band
    thetas = []
    for seed in (3, 4):
        out = tmp_path / f"s{seed}"
        assert run_cli("demo", "--seed", seed, "--T", 2.0, "--dt", 2e-3,
                       "--out-dir", out) == 0
        thetas.append(load_json(out / "demo_report.json")["theta_star"][0])
    assert thetas[0] != thetas[1]
    assert all(abs(t - 0.7) < 0.35 for t in thetas)


# --- import footprint ---------------------------------------------------------------

def test_cli_imports_no_scipy_submodules(tmp_path):
    # every subcommand runs on NumPy alone, so no part of SciPy may load
    from susygate.channel import JointSystem, choi, dyson_channel

    save_json(tmp_path / "target.json",
              matrix_to_json(u0(compute_spectrum(0.03, 0.01, kept=4), 2.0)))
    save_json(tmp_path / "pulse.json", ControlPulse(2.0, np.array([0.05, 0.02, 0.0])).to_json())
    joint = JointSystem(sys_dim=2, anc_dim=2)
    target = choi(dyson_channel(joint, ControlPulse(2.0, np.array([0.1, 0.05, 0.0]))))
    save_json(tmp_path / "choi.json", {**matrix_to_json(target), "d_in": 2, "d_out": 2})
    save_json(tmp_path / "d2.json", [[[1.0], [0.0]], [[0.0], [2.0]]])
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    synth = ["synth", "--target", "target.json", "--spectrum", "spectrum.json",
             "--T", "2", "--K", "2"]
    runs = [
        ["spectrum", "--c1", "0.03", "--c2", "0.01", "--dim", "4"],
        ["gate", "--spectrum", "spectrum.json", "--pulse", "pulse.json", "--oracle"],
        synth + ["--lambda", "0"],
        synth + ["--lambda-grid", "1e-4,1e4,3"],
        synth + ["--budget", "1e-3", "--no-oracle-check"],
        ["channel", "--target", "choi.json", "--T", "2", "--K", "1"],
        ["susy", "--superpotential", "0,0,0.5", "--dim", "32"],
        ["vev", "--d2", "d2.json", "--pvev", "1,2", "--qvev", "3"],
        ["filter-sim", "--model", str(model_path), "--dt", "1e-2", "--T", "0.5",
         "--seed", "1", "--ensemble", "3"],
        ["filter-fit", "--model", str(model_path), "--dt", "1e-2", "--T", "0.5",
         "--seed", "1"],
        ["demo", "--dt", "1e-2", "--T", "0.5", "--seed", "1"],
    ]
    script = (
        "import json, sys\n"
        "from susygate import cli\n"
        "codes = [cli.main(argv + ['--out-dir', '.']) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(runs)
    assert result["loaded"] == []


# --- one parser, one read per input ---------------------------------------------------

@pytest.mark.parametrize(
    "penalties",
    [["--lambda", 0.5, "--budget", 1e-3],
     ["--budget", 1e-3, "--lambda-grid", "1e-4,1e4,3"],
     ["--lambda", 0.5, "--lambda-grid", "1e-4,1e4,3"]],
    ids=["lambda-budget", "budget-grid", "lambda-grid"],
)
def test_synth_lambda_and_budget_are_exclusive(tmp_path, stored_spectrum, penalties):
    spec = Spectrum.from_json(load_json(stored_spectrum))
    save_json(tmp_path / "target.json", matrix_to_json(u0(spec, 2.0)))
    assert run_cli("synth", "--target", tmp_path / "target.json", "--spectrum", stored_spectrum,
                   "--T", 2.0, "--K", 1, *penalties,
                   "--no-oracle-check", "--out-dir", tmp_path) == 2
    assert not (tmp_path / "manifest.json").exists()


def count_opens(monkeypatch, paths):
    """Count every open of the given files, through Path methods or open()."""
    wanted = {Path(p).resolve(): 0 for p in paths}
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() in wanted:
            wanted[Path(file).resolve()] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return wanted


def test_gate_reads_each_input_once(tmp_path, stored_spectrum, monkeypatch):
    pulse_path = tmp_path / "pulse.json"
    save_json(pulse_path, ControlPulse(2.0, np.array([0.05, 0.02, 0.0])).to_json())
    opens = count_opens(monkeypatch, [stored_spectrum, pulse_path])
    assert run_cli("gate", "--spectrum", stored_spectrum, "--pulse", pulse_path,
                   "--out-dir", tmp_path / "out") == 0
    assert list(opens.values()) == [1, 1]
    inputs = load_json(tmp_path / "out" / "manifest.json")["inputs"]
    assert inputs[str(pulse_path)] == hashlib.sha256(pulse_path.read_bytes()).hexdigest()


def test_filter_fit_reads_model_and_record_once(tmp_path, monkeypatch):
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    grid = ["--eta", 0.6, "--dt", 1e-2, "--T", 0.5, "--seed", 4]
    assert run_cli("filter-sim", "--model", model_path, *grid, "--out-dir", tmp_path / "sim") == 0
    record = tmp_path / "sim" / "record.csv"
    opens = count_opens(monkeypatch, [model_path, record])
    assert run_cli("filter-fit", "--model", model_path, "--record", record, *grid,
                   "--out-dir", tmp_path / "fit") == 0
    assert list(opens.values()) == [1, 1]
    inputs = load_json(tmp_path / "fit" / "manifest.json")["inputs"]
    assert inputs[str(record)] == hashlib.sha256(record.read_bytes()).hexdigest()


def test_demo_manifest_lists_each_artifact_once(tmp_path):
    assert run_cli("demo", "--seed", 1, "--T", 0.5, "--dt", 1e-2, "--out-dir", tmp_path) == 0
    artifacts = load_json(tmp_path / "manifest.json")["artifacts"]
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.json")
    assert sorted(artifacts) == written
    assert len(set(artifacts)) == len(artifacts)


def test_artifacts_are_written_through_module_writers(tmp_path, stored_spectrum, monkeypatch):
    # a tracer rebinds cli.save_json and cli.line_plot_svg to time the writes
    spec = Spectrum.from_json(load_json(stored_spectrum))
    save_json(tmp_path / "target.json", matrix_to_json(u0(spec, 2.0)))
    written = []

    def recording(writer):
        def wrapper(path, *args, **kwargs):
            written.append((writer.__name__, Path(path).name))
            return writer(path, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "save_json", recording(cli.save_json))
    monkeypatch.setattr(cli, "line_plot_svg", recording(cli.line_plot_svg))
    assert run_cli("synth", "--target", tmp_path / "target.json", "--spectrum", stored_spectrum,
                   "--T", 2.0, "--K", 1, "--lambda-grid", "1e-4,1e4,3",
                   "--out-dir", tmp_path / "out") == 0
    assert sorted(written) == [
        ("line_plot_svg", "pareto.svg"),
        ("save_json", "manifest.json"),
        ("save_json", "pulse.json"),
        ("save_json", "reports.json"),
    ]


# --- non-finite and non-positive inputs -----------------------------------------------

def write_edge_inputs(tmp_path):
    """Tiny input files for every subcommand that reads one."""
    from susygate.channel import JointSystem, choi, dyson_channel

    spec = compute_spectrum(0.03, 0.01, kept=2, raw_dim=6)
    save_json(tmp_path / "spectrum.json", spec.to_json())
    save_json(tmp_path / "target.json", matrix_to_json(u0(spec, 2.0)))
    save_json(tmp_path / "pulse.json", ControlPulse(2.0, np.array([0.05, 0.02, 0.0])).to_json())
    target = choi(dyson_channel(JointSystem(sys_dim=2, anc_dim=2), ControlPulse(2.0, np.zeros(3))))
    save_json(tmp_path / "choi.json", {**matrix_to_json(target), "d_in": 2, "d_out": 2})
    save_json(tmp_path / "d2.json", [[[1.0], [0.0]], [[0.0], [2.0]]])
    write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    return tmp_path


@pytest.fixture
def edge_inputs(tmp_path):
    return write_edge_inputs(tmp_path)


def assert_exit_2_quietly(capfd, argv):
    assert run_cli(*argv) == 2
    out, err = capfd.readouterr()
    assert "error:" in err
    # LAPACK prints its own complaint about a non-finite input to stdout
    assert "On entry to" not in out + err


@pytest.mark.parametrize("entry", ["null", "Infinity"])
def test_channel_non_finite_choi_entry_exits_2(edge_inputs, entry):
    # a NaN step would keep Gauss–Newton halving forever, so run the CLI in a
    # child process that a timeout can stop
    obj = load_json(edge_inputs / "choi.json")
    text = json.dumps({**obj, "re": [None] + obj["re"][1:]}).replace("null", entry)
    (edge_inputs / "bad_choi.json").write_text(text)
    argv = ["channel", "--target", "bad_choi.json", "--T", "2.0", "--K", "1",
            "--out-dir", "out"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom susygate import cli\nsys.exit(cli.main(sys.argv[1:]))",
         *argv],
        cwd=edge_inputs, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "finite" in proc.stderr


def _huge_pulse(inputs):
    obj = load_json(inputs / "pulse.json")
    save_json(inputs / "huge.json", {**obj, "coeffs": [1e300] + obj["coeffs"][1:]})
    return ["gate", "--spectrum", inputs / "spectrum.json", "--pulse", inputs / "huge.json"]


def _huge_choi(inputs):
    obj = load_json(inputs / "choi.json")
    save_json(inputs / "huge.json", {**obj, "re": [1e300] + obj["re"][1:]})
    return ["channel", "--target", inputs / "huge.json", "--T", 2.0, "--K", 1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy overflow on purpose
@pytest.mark.parametrize("make_argv", [_huge_pulse, _huge_choi], ids=["gate", "channel"])
def test_non_finite_result_exits_3_without_manifest(edge_inputs, capsys, make_argv):
    out = edge_inputs / "out"
    assert run_cli(*make_argv(edge_inputs), "--out-dir", out) == 3
    assert "numerical failure:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=reject_non_finite)


@pytest.mark.parametrize("flag, value", [("--c1", "nan"), ("--c2", "inf")])
def test_spectrum_non_finite_coefficient_exits_2(tmp_path, capfd, flag, value):
    assert_exit_2_quietly(capfd, ["spectrum", "--dim", 3, flag, value, "--out-dir", tmp_path])


@pytest.mark.parametrize(
    "extra",
    [["--budget", "nan"], ["--lambda", "nan"], ["--lambda", "inf"],
     ["--T", "nan", "--lambda", 0]],
    ids=["budget-nan", "lambda-nan", "lambda-inf", "T-nan"],
)
def test_synth_non_finite_exits_2(edge_inputs, capfd, extra):
    argv = ["synth", "--target", edge_inputs / "target.json",
            "--spectrum", edge_inputs / "spectrum.json", "--T", 2.0, "--K", 1,
            "--no-oracle-check", "--out-dir", edge_inputs / "out"]
    assert_exit_2_quietly(capfd, argv + extra)


@pytest.mark.parametrize(
    "flag, value",
    [("--lambda", "nan"), ("--anc-freq", "nan"), ("--coupling", "inf"), ("--T", 0)],
)
def test_channel_non_finite_exits_2(edge_inputs, capfd, flag, value):
    argv = ["channel", "--target", edge_inputs / "choi.json", "--T", 2.0, "--K", 1,
            flag, value, "--out-dir", edge_inputs / "out"]
    assert_exit_2_quietly(capfd, argv)


@pytest.mark.parametrize("zero_tol", ["nan", "inf", 0])
def test_susy_bad_zero_tol_exits_2(tmp_path, capfd, zero_tol):
    assert_exit_2_quietly(capfd, ["susy", "--superpotential", "0,0,0.5", "--dim", 32,
                                  "--zero-tol", zero_tol, "--out-dir", tmp_path])


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--dim", 3, "--raw-dim", 100000000],
     ["susy", "--superpotential", "0,0,0.5", "--dim", 100000000]],
    ids=["spectrum", "susy"],
)
def test_huge_cutoff_exits_2(tmp_path, capfd, argv):
    assert_exit_2_quietly(capfd, argv + ["--out-dir", tmp_path])


def reject_non_finite(name):
    raise AssertionError(f"non-finite number {name} in a JSON artifact")


_BAD_FLOATS = ["0", "-1", "nan", "inf", "-inf"]


def _draw_argv(draw, inputs):
    # each value is valid four times in five, so whole runs often succeed
    # and their artifacts get checked too
    def pick(valid, bad):
        return draw(st.sampled_from(list(valid) * 4 * len(bad) + list(bad)))

    def num(valid):
        return pick([valid], _BAD_FLOATS)

    command = draw(st.sampled_from(["spectrum", "gate", "synth", "channel", "susy", "vev"]))
    if command == "spectrum":
        return ["spectrum", "--dim", pick([2, 3], [-1, 0]), "--raw-dim", pick([4, 8], [-1, 0]),
                "--basis", draw(st.sampled_from(["exact", "pt"])),
                f"--c1={num('0.03')}", f"--c2={num('0.01')}"]
    if command == "gate":
        argv = ["gate", "--spectrum", inputs / "spectrum.json", "--pulse", inputs / "pulse.json"]
        return argv + (["--oracle"] if draw(st.booleans()) else [])
    if command == "synth":
        argv = ["synth", "--target", inputs / "target.json", "--spectrum", inputs / "spectrum.json",
                f"--T={num('2.0')}", "--K", pick([0, 1, 2], [-1])]
        penalty = draw(st.sampled_from(["--lambda", "--budget", None]))
        if penalty:
            argv.append(f"{penalty}={num('1e-3')}")
        if draw(st.booleans()):
            argv.append("--no-oracle-check")
        return argv
    if command == "channel":
        return ["channel", "--target", inputs / "choi.json", f"--T={num('2.0')}",
                "--K", pick([0, 1, 2], [-1]), "--anc-dim", pick([1, 2], [0]),
                f"--lambda={num('1e-3')}", f"--anc-freq={num('1.3')}",
                f"--coupling={num('0.1')}", f"--c1={num('0.02')}", f"--c2={num('0.01')}"]
    if command == "susy":
        return ["susy", "--superpotential", "0,0,0.5", "--dim", pick([8, 16], [-1, 0]),
                f"--zero-tol={num('1e-6')}"]
    return ["vev", "--d2", inputs / "d2.json", "--pvev", f"{num('1')},{num('2')}",
            f"--qvev={num('3')}"]


@pytest.fixture(scope="module")
def shared_edge_inputs(tmp_path_factory):
    return write_edge_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
@pytest.mark.filterwarnings("ignore:normal matrix condition")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_subcommand_exit_code_contract(shared_edge_inputs, data):
    argv = _draw_argv(data.draw, shared_edge_inputs)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        status = run_cli(*argv, "--out-dir", out)
        assert status in (0, 2, 3)
        if status == 0:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=reject_non_finite)


# --- valid JSON of the wrong shape --------------------------------------------------

def _wrong_shape_json():
    """[], {}, null, a number, or a matrix object with one field deleted,
    null or a string."""
    matrix = matrix_to_json(np.eye(2))
    field_name = st.sampled_from(sorted(matrix))
    deleted = field_name.map(lambda name: {k: v for k, v in matrix.items() if k != name})
    replaced = st.tuples(field_name, st.one_of(st.none(), st.text(max_size=4))).map(
        lambda pair: {**matrix, pair[0]: pair[1]}
    )
    number = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
    return st.one_of(st.just([]), st.just({}), st.none(), number, deleted, replaced)


def _json_input_argv(command, inputs):
    """A valid argv for ``command`` and the flags that name its JSON inputs."""
    trajectory = ["--model", inputs / "model.json", "--T", 0.1, "--dt", 1e-2]
    return {
        "gate": (["gate", "--spectrum", inputs / "spectrum.json",
                  "--pulse", inputs / "pulse.json"], ["--spectrum", "--pulse"]),
        "synth": (["synth", "--target", inputs / "target.json",
                   "--spectrum", inputs / "spectrum.json", "--T", 2.0, "--K", 1,
                   "--no-oracle-check"], ["--target", "--spectrum"]),
        "channel": (["channel", "--target", inputs / "choi.json", "--T", 2.0, "--K", 1],
                    ["--target"]),
        "vev": (["vev", "--d2", inputs / "d2.json", "--pvev", "1,2", "--qvev", "3"], ["--d2"]),
        "filter-sim": (["filter-sim", *trajectory], ["--model"]),
        "filter-fit": (["filter-fit", *trajectory], ["--model"]),
    }[command]


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["gate", "synth", "channel", "vev", "filter-sim", "filter-fit"]),
    which=st.integers(min_value=0, max_value=1),
    value=_wrong_shape_json(),
)
def test_wrong_shape_json_exit_code_contract(shared_edge_inputs, command, which, value):
    argv, flags = _json_input_argv(command, shared_edge_inputs)
    flag = flags[which % len(flags)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        save_json(out / "input.json", value)
        argv[argv.index(flag) + 1] = out / "input.json"
        assert run_cli(*argv, "--out-dir", out / "run") in (0, 2, 3)


_EXTREME_LEAVES = [1e300, -1e300, 1e-300, 0, -1]


def _numeric_leaves(obj, path=()):
    """Paths of every int or float (not bool) inside a JSON value."""
    if isinstance(obj, dict):
        return [p for k, v in sorted(obj.items()) for p in _numeric_leaves(v, path + (k,))]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _numeric_leaves(v, path + (i,))]
    return [path] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def _with_leaf(obj, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {**obj, head: _with_leaf(obj[head], rest, value)}
    return [_with_leaf(v, rest, value) if i == head else v for i, v in enumerate(obj)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy overflow on purpose
@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["gate", "synth", "channel", "vev", "filter-sim", "filter-fit"]),
    data=st.data(),
)
def test_extreme_leaf_exit_code_contract(shared_edge_inputs, command, data):
    argv, flags = _json_input_argv(command, shared_edge_inputs)
    flag = data.draw(st.sampled_from(flags))
    obj = load_json(argv[argv.index(flag) + 1])
    path = data.draw(st.sampled_from(_numeric_leaves(obj)))
    value = data.draw(st.sampled_from(_EXTREME_LEAVES))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        save_json(out / "input.json", _with_leaf(obj, path, value))
        argv[argv.index(flag) + 1] = out / "input.json"
        status = run_cli(*argv, "--out-dir", out / "run")
        assert status in (0, 2, 3)
        if status == 0:
            for artifact in (out / "run").glob("*.json"):
                json.loads(artifact.read_text(), parse_constant=reject_non_finite)
