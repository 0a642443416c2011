import builtins
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susygate
from susygate import cli
from susygate.dyson import MAX_HARMONICS, ControlPulse, u0
from susygate.filter_fit import Trajectory, sme_simulate
from susygate.gate_synth import design_matrix
from susygate.serialize import load_json, matrix_from_json, matrix_to_json, save_json
from susygate.spectrum import Spectrum, compute_spectrum


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


# dests whose CLI flag is not just underscores-to-dashes
_DEST_TO_FLAG = {"lam": "lambda"}


def config_to_argv(command: str, config: dict) -> list[str]:
    """Reconstruct an argv for ``cli.main`` from a manifest's config block."""
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


def cli_env() -> dict:
    """Environment in which a child Python imports this susygate."""
    src = str(Path(susygate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# a child Python that runs ``cli.main`` on its own argv
CLI_CHILD = "import sys\nfrom susygate import cli\nsys.exit(cli.main(sys.argv[1:]))"


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
    # every float goes to the CSV with all its digits
    assert energies == spec.kept_energies.tolist()


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
    argv = config_to_argv(manifest["command"], manifest["config"])
    argv[argv.index("--out-dir") + 1] = str(second)
    assert cli.main(argv) == 0
    for name in manifest["artifacts"]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("spelling", [["--out", "{name}"], ["--out={name}"]],
                         ids=["space", "equals"])
@pytest.mark.parametrize("command, name", [("spectrum", "energies.csv"),
                                           ("filter-sim", "record.csv")])
def test_artifact_names_are_fixed(tmp_path, capfd, command, name, spelling):
    # a settable JSON artifact name could overwrite the CSV beside it
    argv = {"spectrum": ["spectrum", "--dim", 3],
            "filter-sim": ["filter-sim", "--model", write_damping_model(tmp_path / "model.json"),
                           "--T", 0.1, "--dt", 1e-2]}[command]
    out = tmp_path / "out"
    assert run_cli(*argv, *[a.format(name=name) for a in spelling], "--out-dir", out) == 2
    assert "--out" in capfd.readouterr().err
    assert not out.exists()


def test_manifest_with_out_key_no_longer_replays(tmp_path):
    assert run_cli("spectrum", "--dim", 3, "--out-dir", tmp_path / "a") == 0
    manifest = load_json(tmp_path / "a" / "manifest.json")
    config = {**manifest["config"], "out": "spectrum.json", "out_dir": str(tmp_path / "b")}
    assert cli.main(config_to_argv("spectrum", config)) == 2
    assert not (tmp_path / "b").exists()


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


@pytest.mark.parametrize("out_dir", ["a_file", "a_file/sub"])
@pytest.mark.parametrize("argv", [["spectrum", "--dim", 2], ["demo", "--T", 0.1]],
                         ids=["spectrum", "demo"])
def test_out_dir_that_cannot_be_made_exits_2(tmp_path, capfd, argv, out_dir):
    # an existing file, or a path under one
    (tmp_path / "a_file").write_text("x")
    assert run_cli(*argv, "--out-dir", tmp_path / out_dir) == 2
    err = capfd.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.rglob("manifest.json")) == []


def test_validation_error_exits_2(tmp_path):
    assert run_cli("spectrum", "--dim", 6, "--raw-dim", 2, "--out-dir", tmp_path) == 2


def test_raw_dim_without_reach_exits_2(tmp_path):
    assert run_cli("spectrum", "--dim", 2, "--raw-dim", 3, "--out-dir", tmp_path) == 2


def test_numerical_failure_exits_3(tmp_path):
    # degree-6 superpotential at a tiny cutoff cannot converge
    assert run_cli("susy", "--superpotential", "0,0,0,0,0,0,1", "--dim", 8,
                   "--out-dir", tmp_path) == 3


def test_overflowing_hamiltonian_exits_3(tmp_path, capsys):
    # c2 = 1e306 is finite, but H0's quartic entries overflow to ±inf
    assert run_cli("spectrum", "--c2", 1e306, "--dim", 4, "--out-dir", tmp_path) == 3
    assert capsys.readouterr().err == "numerical failure: Hamiltonian has a non-finite entry\n"


def test_susy_cutoff_beyond_its_check_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    # the check's ⌈1.5·30⌉ = 45 levels exceed a limit of 40: the given cutoff
    # and its own limit are named, not the check's cutoff
    from susygate import fock

    monkeypatch.setattr(fock, "MAX_CUTOFF", 40)
    assert run_cli("susy", "--superpotential", "0,0,0.5", "--dim", 30,
                   "--out-dir", tmp_path) == 2
    assert capsys.readouterr().err == "error: cutoff 30 exceeds the limit of 26\n"


def test_fit_without_a_finite_cost_exits_3(edge_inputs, capsys):
    # a 1e20-fold rate gives every grid point a step generator norm
    # ‖S·dt‖₁ above 2⁵³, which the Lindblad integration refuses
    obj = load_json(edge_inputs / "model.json")
    (term,) = obj["rate_terms"]
    op = {**term["op"], "re": [1e10 * x for x in term["op"]["re"]]}
    save_json(edge_inputs / "model.json", {**obj, "rate_terms": [{**term, "op": op}]})
    out = edge_inputs / "out"
    assert run_cli("filter-fit", "--model", edge_inputs / "model.json", "--dt", 1e-2, "--T", 0.1,
                   "--out-dir", out) == 3
    assert capsys.readouterr().err == "numerical failure: no parameter point produced a finite cost\n"
    assert not (out / "manifest.json").exists()


def test_fit_of_a_fast_rotation_exits_0(tmp_path, capsys):
    # ω·dt = 2.828428 lies just past √8, the stability edge of an explicit
    # Runge–Kutta step; the exact step integrates every grid point, and the
    # fitted trajectory it writes is one the reader accepts
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    save_json(tmp_path / "model.json", {
        "rho0": matrix_to_json(np.full((2, 2), 0.5)),
        "h0": matrix_to_json(141.4214 * np.diag([1.0, -1.0])),
        "rate_terms": [{"name": "gamma", "op": matrix_to_json(lower), "range": [0, 1e-6, 2],
                        "truth": 0}],
        "measurement": 0,
    })
    out = tmp_path / "out"
    assert run_cli("filter-fit", "--model", tmp_path / "model.json", "--dt", 0.01, "--T", 0.6,
                   "--out-dir", out) == 0
    assert capsys.readouterr().err == ""
    assert load_json(out / "fit_report.json")["skipped"] == []
    Trajectory.from_json(load_json(out / "fitted_trajectory.json")).validate()


@pytest.mark.parametrize("error, code, line", [
    (MemoryError("cannot allocate"), 3, "numerical failure: out of memory (cannot allocate)"),
    (KeyError("energies"), 2, "error: missing key 'energies'"),
], ids=["memory", "key"])
def test_main_reports_memory_and_key_errors(tmp_path, capsys, monkeypatch, error, code, line):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.spectrum, "compute_spectrum", fail)
    assert run_cli("spectrum", "--dim", 2, "--out-dir", tmp_path) == code
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "manifest.json").exists()


def test_missing_key_is_named(edge_inputs, capsys):
    # a matrix file where a pulse belongs has no "T"
    assert run_cli("gate", "--spectrum", edge_inputs / "spectrum.json",
                   "--pulse", edge_inputs / "target.json", "--out-dir", edge_inputs / "out") == 2
    assert capsys.readouterr().err == f"error: {edge_inputs / 'target.json'}: missing key 'T'\n"
    assert not (edge_inputs / "out" / "manifest.json").exists()


def _infinite_rows(inputs):
    obj = load_json(inputs / "target.json")
    (inputs / "bad.json").write_text(json.dumps({**obj, "rows": 0}).replace('"rows": 0',
                                                                              '"rows": 1e400'))
    return ["synth", "--target", inputs / "bad.json", "--spectrum", inputs / "spectrum.json",
            "--T", 2.0, "--K", 1, "--no-oracle-check"]


def _undecodable_byte(inputs):
    text = (inputs / "pulse.json").read_bytes()
    (inputs / "bad.json").write_bytes(text.replace(b'"T"', b'"T\xff"'))
    return ["gate", "--spectrum", inputs / "spectrum.json", "--pulse", inputs / "bad.json"]


def _non_integer_cutoff(inputs):
    save_json(inputs / "bad.json", {**load_json(inputs / "spectrum.json"), "cutoff_kept": "x"})
    return ["gate", "--spectrum", inputs / "bad.json", "--pulse", inputs / "pulse.json"]


def _choi_with(key, value):
    # a Choi target file whose dimensions differ or are not integers
    def make_argv(inputs):
        save_json(inputs / "bad.json", {**load_json(inputs / "choi.json"), key: value})
        return ["channel", "--target", inputs / "bad.json", "--T", 2.0, "--K", 1]
    return make_argv


def _choi_of_dim(d: int, size: int):
    # a Choi target whose dimensions match its matrix but are below a qubit's
    def make_argv(inputs):
        save_json(inputs / "bad.json", {**matrix_to_json(np.eye(size)), "d_in": d, "d_out": d})
        return ["channel", "--target", inputs / "bad.json", "--T", 2.0, "--K", 1]
    return make_argv


def _record_with(line: bytes):
    def make_argv(inputs):
        (inputs / "bad.csv").write_bytes(b"t,dY\n" + line + b"\n")
        return ["filter-fit", "--model", inputs / "model.json", "--record", inputs / "bad.csv",
                "--dt", 1e-2, "--T", 0.01]
    return make_argv


def _undecodable_config(inputs):
    (inputs / "bad.cfg").write_bytes(b"dim=3\n\xff\n")
    return ["spectrum", "--config", inputs / "bad.cfg"]


def _non_unitary_target(inputs):
    obj = load_json(inputs / "target.json")
    save_json(inputs / "bad.json", {**obj, "re": [2 * obj["re"][0]] + obj["re"][1:]})
    return ["synth", "--target", inputs / "bad.json", "--spectrum", inputs / "spectrum.json",
            "--T", 2.0, "--K", 1, "--no-oracle-check"]


def _empty_target(inputs):
    save_json(inputs / "bad.json", {"rows": 0, "cols": 0, "re": [], "im": []})
    return ["synth", "--target", inputs / "bad.json", "--spectrum", inputs / "spectrum.json",
            "--T", 2.0, "--K", 1, "--no-oracle-check"]


def _target_of_wrong_shape(inputs):
    # the edge spectrum keeps 2 levels
    save_json(inputs / "bad.json", matrix_to_json(np.eye(3)))
    return ["synth", "--target", inputs / "bad.json", "--spectrum", inputs / "spectrum.json",
            "--T", 2.0, "--K", 1, "--no-oracle-check"]


def _quoted_target_entry(inputs):
    obj = load_json(inputs / "target.json")
    save_json(inputs / "bad.json", {**obj, "re": [str(obj["re"][0])] + obj["re"][1:]})
    return ["synth", "--target", inputs / "bad.json", "--spectrum", inputs / "spectrum.json",
            "--T", 2.0, "--K", 1, "--no-oracle-check"]


def _boolean_vev_tensor_entry(inputs):
    save_json(inputs / "bad.json", [[[True], [0.0]], [[0.0], [2.0]]])
    return ["vev", "--d2", inputs / "bad.json", "--pvev", "1,2", "--qvev", "3"]


def _scalar_field(name, key, value):
    # a spectrum, pulse or target file with a string or a boolean for a number
    def make_argv(inputs):
        save_json(inputs / "bad.json", {**load_json(inputs / f"{name}.json"), key: value})
        path = {n: inputs / ("bad.json" if n == name else f"{n}.json")
                for n in ("spectrum", "pulse", "target")}
        if name == "target":
            return ["synth", "--target", path["target"], "--spectrum", path["spectrum"],
                    "--T", 2.0, "--K", 1, "--no-oracle-check"]
        return ["gate", "--spectrum", path["spectrum"], "--pulse", path["pulse"]]
    return make_argv


def _model_with(key, value):
    # a model whose rate range, truth Hamiltonian, initial state or measured operator is invalid
    def make_argv(inputs):
        save_json(inputs / "bad.json", {**load_json(inputs / "model.json"), key: value})
        return ["filter-sim", "--model", inputs / "bad.json", "--dt", 1e-2, "--T", 0.01]
    return make_argv


# a valid rate term; each _model_with case below overrides one of its fields
_RATE_TERM = {"name": "gamma", "op": matrix_to_json(np.eye(2)), "range": [0.3, 1.1, 3],
              "truth": 0.7}


def _infinite_range_end(inputs):
    obj = load_json(inputs / "model.json")
    term = {**obj["rate_terms"][0], "range": [0.3, 0, 3]}
    text = json.dumps({**obj, "rate_terms": [term]}).replace("[0.3, 0, 3]", "[0.3, 1e400, 3]")
    (inputs / "bad.json").write_text(text)
    return ["filter-sim", "--model", inputs / "bad.json", "--dt", 1e-2, "--T", 0.01]


# a Hamiltonian term for the edge model, whose own h_terms list is empty
_H_TERM = {"name": "omega", "op": matrix_to_json(np.diag([0.5, -0.5])), "range": [0.0, 1.0, 2],
           "truth": 0.5}


def _non_finite(command, flag, leaf, token):
    # an input of ``command`` whose number at ``leaf`` is a raw JSON token:
    # null (which NumPy reads as NaN), NaN, Infinity or 1e400 (which parses as inf)
    def make_argv(inputs):
        name, *extra = command.split()
        argv, _ = _input_argv(name, inputs)
        obj = load_json(argv[argv.index(flag) + 1])
        if leaf[0] == "h_terms":
            obj = {**obj, "h_terms": [_H_TERM]}
        text = json.dumps(_with_leaf(obj, leaf, _LEAF)).replace(json.dumps(_LEAF), token)
        (inputs / "bad.json").write_text(text)
        argv[argv.index(flag) + 1] = inputs / "bad.json"
        return argv + extra
    return make_argv


_NON_FINITE_CASES = [
    *[(command, "--pulse", ("coeffs", 0), token) for command in ("gate", "gate --oracle")
      for token in ("null", "NaN", "Infinity", "1e400")],
    ("gate", "--spectrum", ("energies", 0), "null"),
    ("synth", "--spectrum", ("energies", 0), "null"),
    ("gate --oracle", "--spectrum", ("c2",), "1e400"),
    ("filter-sim", "--model", ("rate_terms", 0, "truth"), "1e400"),
    ("filter-sim", "--model", ("rate_terms", 0, "truth"), "NaN"),
    ("filter-sim", "--model", ("h_terms", 0, "truth"), "1e400"),
    ("vev", "--d2", (0, 0, 0), "null"),
]


@pytest.mark.parametrize(
    "make_argv",
    [_infinite_rows, _undecodable_byte, _non_integer_cutoff, _choi_with("d_out", 3),
     _record_with(b"0.0,x"), _record_with(b"0.0,0.1\xff"), _record_with(b"0.0,0.1\n0.01,0.2"),
     _undecodable_config, _non_unitary_target, _empty_target, _target_of_wrong_shape,
     _quoted_target_entry,
     _boolean_vev_tensor_entry,
     _scalar_field("pulse", "T", "2.0"), _scalar_field("pulse", "K", True),
     _scalar_field("spectrum", "cutoff_raw", "6"), _scalar_field("spectrum", "c2", True),
     _scalar_field("target", "cols", "2"),
     _model_with("h0", matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))),
     _model_with("rho0", matrix_to_json(np.eye(2))), _model_with("measurement", 1),
     _model_with("rate_terms", [{"name": "gamma", "op": matrix_to_json(np.eye(2)),
                                 "range": [-1.1, -0.3, 3], "truth": 0.7}]),
     _choi_with("d_in", "2"), _choi_with("d_out", 2.9),
     _model_with("rate_terms", [{**_RATE_TERM, "range": ["0.3", 1.1, 3]}]),
     _model_with("rate_terms", [{**_RATE_TERM, "range": [0.3, True, 3]}]),
     _model_with("rate_terms", [{**_RATE_TERM, "truth": "0.7"}]),
     _model_with("measurement", 0.9), _infinite_range_end,
     _model_with("rate_terms", [{**_RATE_TERM,
                                 "range": [[0.3, 0.5, 0.7], [1.1, 1.3, 1.5], 3]}]),
     _choi_of_dim(-2, 4), _choi_of_dim(0, 0), _choi_of_dim(1, 1),
     *[_non_finite(*case) for case in _NON_FINITE_CASES]],
    ids=["rows-1e400", "byte-0xff", "cutoff-kept-x", "d-in-ne-d-out",
         "record-dY-x", "record-byte-0xff", "record-extra-row", "config-byte-0xff",
         "target-not-unitary", "target-empty", "target-3x3-kept-2", "target-quoted-entry",
         "d2-boolean-entry",
         "pulse-T-string", "pulse-K-boolean", "spectrum-cutoff-raw-string",
         "spectrum-c2-boolean", "target-cols-string",
         "model-h0-not-hermitian", "model-rho0-trace-2",
         "model-measurement-1", "model-rate-range-negative",
         "choi-d-in-string", "choi-d-out-2.9", "model-range-lo-string",
         "model-range-hi-boolean", "model-truth-string", "model-measurement-0.9",
         "model-range-hi-1e400", "model-range-bounds-of-three", "choi-dim-minus-2",
         "choi-dim-0", "choi-dim-1",
         *[f"{c.replace(' --', '-')}-{f[2:]}-{'.'.join(map(str, leaf))}-{t}"
           for c, f, leaf, t in _NON_FINITE_CASES]],
)
def test_input_file_error_names_the_file(edge_inputs, capsys, make_argv):
    out = edge_inputs / "out"
    assert run_cli(*make_argv(edge_inputs), "--out-dir", out) == 2
    (bad,) = edge_inputs.glob("bad.*")
    err = capsys.readouterr().err
    # a record's unparsable value also names its line
    assert re.match(rf"error: {re.escape(str(bad))}(:2)?: ", err) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("key, value, message", [
    ("T", 10**400, f"T: {10**400} is not a finite number"),
    ("coeffs", [10**400, 0.0, 0.0], "coeffs: null, NaN or an infinite number where a finite one "
                                    "belongs"),
], ids=["T", "coeffs"])
def test_integer_too_large_for_a_double_names_its_field(edge_inputs, capsys, key, value, message):
    # float() of a 401-digit JSON integer overflows; the line names the field, as for 1e400
    save_json(edge_inputs / "bad.json", {**load_json(edge_inputs / "pulse.json"), key: value})
    out = edge_inputs / "out"
    assert run_cli("gate", "--spectrum", edge_inputs / "spectrum.json",
                   "--pulse", edge_inputs / "bad.json", "--out-dir", out) == 2
    assert capsys.readouterr().err == f"error: {edge_inputs / 'bad.json'}: {message}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("extra", [[], ["--allow-nonunitary"]], ids=["unitary", "allowed"])
def test_synth_empty_target_says_it_is_empty(edge_inputs, capsys, extra):
    # a 0×0 target reached NumPy's empty-reduction error in the unitarity test
    argv = _empty_target(edge_inputs)
    assert run_cli(*argv, *extra, "--out-dir", edge_inputs / "out") == 2
    assert capsys.readouterr().err == (f"error: {edge_inputs / 'bad.json'}: "
                                       "target is an empty 0x0 matrix\n")


@pytest.mark.parametrize("extra", [[], ["--allow-nonunitary"]], ids=["unitary", "allowed"])
def test_synth_target_of_wrong_shape_names_both_files(edge_inputs, capsys, extra):
    argv = _target_of_wrong_shape(edge_inputs)
    out = edge_inputs / "out"
    assert run_cli(*argv, *extra, "--out-dir", out) == 2
    assert capsys.readouterr().err == (f"error: {edge_inputs / 'bad.json'}: target shape (3, 3) "
                                       f"!= kept dim 2 of {edge_inputs / 'spectrum.json'}\n")
    assert not (out / "manifest.json").exists()


def test_channel_choi_of_wrong_size_exits_2(edge_inputs, capsys):
    # d_in = d_out = 2 promises a 4x4 Choi matrix; a 3x3 one is refused
    save_json(edge_inputs / "bad.json", {**matrix_to_json(np.eye(3)), "d_in": 2, "d_out": 2})
    out = edge_inputs / "out"
    assert run_cli("channel", "--target", edge_inputs / "bad.json", "--T", 2.0, "--K", 1,
                   "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err == f"error: {edge_inputs / 'bad.json'}: target Choi shape (3, 3) != (4, 4)\n"
    assert not (out / "manifest.json").exists()


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
    assert isinstance(report["oracle_steps"], int) and report["oracle_steps"] >= 64
    assert 0 <= report["oracle_error"] < 1e-8
    gate = matrix_from_json(load_json(tmp_path / "gate.json"))
    assert gate.shape == (4, 4)


def test_gate_without_oracle_reports_null_diagnostics(tmp_path, stored_spectrum):
    pulse_path = tmp_path / "pulse.json"
    save_json(pulse_path, ControlPulse(2.0, np.array([0.05, 0.02, 0.0])).to_json())
    assert run_cli("gate", "--spectrum", stored_spectrum, "--pulse", pulse_path,
                   "--out-dir", tmp_path) == 0
    report = load_json(tmp_path / "gate_report.json")
    assert report["oracle_steps"] is None and report["oracle_error"] is None
    assert not (tmp_path / "oracle.json").exists()


@pytest.mark.parametrize("n_h, code", [(MAX_HARMONICS, 0), (MAX_HARMONICS + 1, 2)])
def test_gate_pulse_harmonics_are_bounded(tmp_path, stored_spectrum, n_h, code):
    pulse_path = tmp_path / "pulse.json"
    save_json(pulse_path, {"T": 2.0, "K": n_h, "coeffs": [1e-4] * (2 * n_h + 1)})
    out = tmp_path / "out"
    assert run_cli("gate", "--spectrum", stored_spectrum, "--pulse", pulse_path,
                   "--out-dir", out) == code
    assert (out / "gate.json").exists() == (code == 0)
    assert (out / "manifest.json").exists() == (code == 0)


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
    assert report["oracle_steps"] is None and report["oracle_error"] is None
    recovered = np.asarray(load_json(tmp_path / "pulse.json")["coeffs"])
    assert np.linalg.norm(recovered - beta) < 1e-7


def test_synth_report_carries_oracle_diagnostics(tmp_path, stored_spectrum):
    spec = Spectrum.from_json(load_json(stored_spectrum))
    save_json(tmp_path / "target.json", matrix_to_json(u0(spec, 2.0)))
    assert run_cli("synth", "--target", tmp_path / "target.json", "--spectrum", stored_spectrum,
                   "--T", 2.0, "--K", 1, "--lambda", 1e-3, "--out-dir", tmp_path) == 0
    report = load_json(tmp_path / "synth_report.json")
    assert report["oracle_fidelity"] == pytest.approx(report["fidelity"], abs=1e-3)
    assert isinstance(report["oracle_steps"], int) and 0 <= report["oracle_error"] < 1e-8
    assert report["budget_iterations"] is None


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
    reports = load_json(tmp_path / "reports.json")
    columns = [[float(x) for x in col] for col in zip(*rows[1:])]
    for col, key in zip(columns, ["multiplier", "energy", "residual", "fidelity"]):
        assert col == [r[key] for r in reports]


@pytest.mark.parametrize(
    "grid",
    ["1e-4,1e4,0", "1e-4,-1,3", "1,inf,3", "1e-4,1e4,2.5", "0,1,3", "nan,1,3",
     "2,1,3", "1e-4,1e4", "1e-4,1e4,3,4", "a,b,c", "1e-4,1e4,10001"],
)
def test_synth_bad_lambda_grid_exits_2(edge_inputs, capfd, grid):
    out = edge_inputs / "out"
    assert run_cli("synth", "--target", edge_inputs / "target.json",
                   "--spectrum", edge_inputs / "spectrum.json", "--T", 2.0, "--K", 1,
                   f"--lambda-grid={grid}", "--out-dir", out) == 2
    err = capfd.readouterr().err
    assert "lambda-grid" in err and "RuntimeWarning" not in err
    assert not (out / "reports.json").exists()
    assert not (out / "manifest.json").exists()


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
    assert isinstance(report["budget_iterations"], int) and report["budget_iterations"] > 0


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
    assert sorted(report) == ["converged", "distance", "energy", "multiplier", "n_evaluations",
                              "pulse", "tp_defect"]


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
    with open(out1 / "record.csv") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[1]) for r in rows[1:]] == load_json(out1 / "trajectory.json")["record"]


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


# 10 steps each: 10**6 + 1 members exceed the MAX_STEPS bound of 10**7 states
@pytest.mark.parametrize("n", [1, -3, 10**6 + 1])
def test_filter_sim_single_member_ensemble_exits_2(tmp_path, n):
    model_path = write_damping_model(tmp_path / "model.json")
    out = tmp_path / "out"
    assert run_cli(
        "filter-sim", "--model", model_path, "--dt", 1e-2, "--T", 0.1,
        "--seed", 9, f"--ensemble={n}", "--out-dir", out,
    ) == 2
    for name in ("trajectory.json", "record.csv", "manifest.json"):
        assert not (out / name).exists()


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
    assert report["at_bound"] == []
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


# the stiff model of the CI smoke step: ηγ·dt = 1e5 at --dt 1
_STIFF_MODEL = {
    "rho0": matrix_to_json(np.diag([0.0, 1.0])),
    "h0": matrix_to_json(np.array([[5e5, 3e5], [3e5, -5e5]])),
    "rate_terms": [{"name": "gamma", "op": matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
                    "range": [0.9e5, 1.1e5, 3], "truth": 1e5}],
    "measurement": 0,
}


@pytest.mark.parametrize("stiff, argv, lo, hi", [
    (False, ["--eta", 0.1, "--dt", 1e-3, "--T", 2.0, "--seed", 1], 0.98, 1.02),
    (True, ["--eta", 1.0, "--dt", 1, "--T", 100, "--seed", 0], 1e11, 1e12),
], ids=["pilot", "stiff"])
def test_filter_fit_reports_step_traces(tmp_path, stiff, argv, lo, hi):
    # the range of each filter step's trace before normalization: near 1 on
    # the pilot design, about 3e11 where the step does not resolve the record
    model_path = tmp_path / "model.json"
    if stiff:
        save_json(model_path, _STIFF_MODEL)
    else:
        write_damping_model(model_path)
    assert run_cli("filter-fit", "--model", model_path, *argv, "--out-dir", tmp_path / "fit") == 0
    diag = load_json(tmp_path / "fit" / "fit_report.json")["filter_diagnostics"]
    assert lo < diag["min_step_trace"] <= diag["max_step_trace"] < hi
    assert "diagnostics" not in load_json(tmp_path / "fit" / "filter_trajectory.json")
    # the filter of the same record, read back from its file, reports the same range
    assert run_cli("filter-sim", "--model", model_path, *argv, "--out-dir", tmp_path / "sim") == 0
    assert "diagnostics" not in load_json(tmp_path / "sim" / "trajectory.json")
    assert run_cli("filter-fit", "--model", model_path, "--record", tmp_path / "sim" / "record.csv",
                   *argv, "--out-dir", tmp_path / "refit") == 0
    assert load_json(tmp_path / "refit" / "fit_report.json")["filter_diagnostics"] == diag


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


def assert_stored_as_coordinates(path, in_memory: Trajectory):
    """The trajectory file holds d² coordinates per state, and reads back
    valid with the in-memory states' real diagonal and upper triangle."""
    obj = load_json(path)
    d = in_memory.states.shape[-1]
    assert obj["dim"] == d and {len(row) for row in obj["states"]} == {d * d}
    back = Trajectory.from_json(obj)
    back.validate()
    i, j = np.triu_indices(d, 1)
    for part in (lambda r: r.real[:, range(d), range(d)], lambda r: r.real[:, i, j],
                 lambda r: r.imag[:, i, j]):
        assert np.array_equal(part(back.states).view(np.uint64),
                              part(in_memory.states).view(np.uint64))
    assert np.array_equal(back.times, in_memory.times)


def test_filter_trajectories_read_back_as_stored(tmp_path):
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    grid = ["--eta", 0.4, "--dt", 1e-2, "--T", 1.0, "--seed", 4]
    assert run_cli("filter-sim", "--model", model_path, *grid, "--out-dir", tmp_path / "sim") == 0
    assert run_cli("filter-fit", "--model", model_path, *grid, "--out-dir", tmp_path / "fit") == 0
    family, rho0, truth, meas, grids = cli._load_family(load_json(model_path))
    times = cli._times(1.0, 1e-2)
    sim = sme_simulate(family.at(truth), meas, 0.4, rho0, times, 4)
    est, fit = cli._filter_and_fit(family, rho0, truth, meas, grids, 0.4, times, 4, 1e-4)
    assert_stored_as_coordinates(tmp_path / "sim" / "trajectory.json", sim)
    assert_stored_as_coordinates(tmp_path / "fit" / "filter_trajectory.json", est)
    assert_stored_as_coordinates(tmp_path / "fit" / "fitted_trajectory.json", fit.trajectory)


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


def _two_parameter_model(path):
    # 101 × 101 = 10201 grid points, one more full integration each
    obj = load_json(write_damping_model(path, grid=(0.1, 1.5, 101)))
    detuning = {"name": "delta", "op": matrix_to_json(np.diag([0.5, -0.5])),
                "range": [-1.0, 1.0, 101], "truth": 0.0}
    save_json(path, {**obj, "h_terms": [detuning]})
    return path


def _oversized_model(path):
    d = cli.MAX_MODEL_DIM + 1
    obj = load_json(write_damping_model(path))
    rho0 = np.zeros((d, d))
    rho0[-1, -1] = 1.0
    lower = {**obj["rate_terms"][0], "op": matrix_to_json(np.eye(d, k=1))}
    save_json(path, {**obj, "rho0": matrix_to_json(rho0), "h0": matrix_to_json(np.eye(d)),
                     "rate_terms": [lower]})
    return path


def _many_parameter_model(path):
    # one-point ranges keep the grid at 1 point, however many parameters
    obj = load_json(write_damping_model(path))
    term = {"name": "h", "op": matrix_to_json(np.diag([0.5, -0.5])),
            "range": [0.0, 0.0, 1], "truth": 0.0}
    save_json(path, {**obj, "h_terms": [term] * 3000})
    return path


@pytest.mark.parametrize(
    "make_model",
    [lambda path: write_damping_model(path, grid=(0.1, 1.5, 10**10)),
     lambda path: write_damping_model(path, grid=(0.1, 1.5, 2.5)),
     _two_parameter_model, _oversized_model, _many_parameter_model],
    ids=["points-1e10", "points-2.5", "grid-101x101", "dim-over-bound", "params-3000"],
)
@pytest.mark.parametrize("command", ["filter-sim", "filter-fit"])
def test_model_file_sizes_are_bounded(tmp_path, capfd, command, make_model):
    model_path = make_model(tmp_path / "model.json")
    out = tmp_path / "out"
    t0 = time.monotonic()
    assert run_cli(command, "--model", model_path, "--T", 0.1, "--dt", 1e-2,
                   "--out-dir", out) == 2
    assert time.monotonic() - t0 < 1.0
    assert f"error: {model_path}: " in capfd.readouterr().err
    assert not (out / "manifest.json").exists()


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


@pytest.mark.parametrize("dy", ["nan", "inf", "-inf", "1e400", "x"])
def test_filter_fit_bad_record_value_exits_2(tmp_path, capsys, dy):
    # a value that is not a finite number is named by its line
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    record = tmp_path / "record.csv"
    record.write_text(f"t,dY\n0.0,{dy}\n")
    assert run_cli("filter-fit", "--model", model_path, "--record", record,
                   "--dt", 1e-2, "--T", 0.01, "--out-dir", tmp_path / "fit") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {record}:2: ") and err.count("\n") == 1
    assert not (tmp_path / "fit" / "manifest.json").exists()


def test_filter_fit_record_without_header_exits_2(tmp_path, capsys):
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    record = tmp_path / "record.csv"
    record.write_text("0.0,0.1\n")
    assert run_cli("filter-fit", "--model", model_path, "--record", record,
                   "--dt", 1e-2, "--T", 0.01, "--out-dir", tmp_path / "fit") == 2
    assert capsys.readouterr().err == f"error: {record}: expected CSV with header t,dY\n"
    assert not (tmp_path / "fit" / "manifest.json").exists()


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


def test_trajectory_defaults_are_per_subcommand(tmp_path):
    # demo sets its own eta and T; the other trajectory subcommands keep theirs
    model_path = write_damping_model(tmp_path / "model.json", grid=(0.3, 1.1, 3))
    expected = {"filter-sim": (1.0, 2.0), "filter-fit": (1.0, 2.0), "demo": (0.4, 4.0)}
    for command, defaults in expected.items():
        out = tmp_path / command
        model = [] if command == "demo" else ["--model", model_path]
        assert run_cli(command, *model, "--dt", 1e-2, "--seed", 1, "--out-dir", out) == 0
        config = load_json(out / "manifest.json")["config"]
        assert (config["eta"], config["T"]) == defaults


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
@pytest.mark.parametrize("spelling", [["--config={cfg}"]], ids=["equals"])
def test_config_spellings_apply_the_file(tmp_path, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c1=0.02\n")
    argv = [a.format(cfg=cfg) for a in spelling]
    assert run_cli("spectrum", *argv, "--dim", 3, "--out-dir", tmp_path) == 0
    assert load_json(tmp_path / "manifest.json")["config"]["c1"] == 0.02


def test_config_prefix_exits_2(tmp_path, capsys):
    # --config is spelled in full, like every other option
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c1=0.02\n")
    out = tmp_path / "out"
    assert run_cli("spectrum", "--conf", cfg, "--dim", 3, "--out-dir", out) == 2
    assert "unrecognized arguments: --conf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, prefix", [("spectrum", "--c"), ("channel", "--co")])
def test_config_prefix_shared_with_another_option_exits_2(edge_inputs, command, prefix):
    # --c also starts --c1 and --c2; --co also starts --coupling
    cfg = edge_inputs / "run.cfg"
    cfg.write_text("c1=0.02\n")
    argv = {"spectrum": ["spectrum", "--dim", 3],
            "channel": ["channel", "--target", edge_inputs / "choi.json", "--T", 2.0, "--K", 1]}
    out = edge_inputs / "out"
    assert run_cli(*argv[command], prefix, cfg, "--out-dir", out) == 2
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
def test_flag_before_config_still_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=6\nc1=0.02\n")
    assert run_cli("spectrum", "--c1", 0.01, "--config", cfg, "--out-dir", tmp_path) == 0
    config = load_json(tmp_path / "manifest.json")["config"]
    assert (config["c1"], config["dim"]) == (0.01, 6)


def test_config_switch_and_choice_go_through_argparse(tmp_path, stored_spectrum, capsys):
    spec = Spectrum.from_json(load_json(stored_spectrum))
    save_json(tmp_path / "target.json", matrix_to_json(u0(spec, 2.0)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"target={tmp_path / 'target.json'}\nspectrum={stored_spectrum}\n"
                   "T=2\nK=1\nlambda=0\nno-oracle-check=yes\nmatch-phase=0\n")
    assert run_cli("synth", "--config", cfg, "--out-dir", tmp_path) == 0
    config = load_json(tmp_path / "manifest.json")["config"]
    assert (config["no_oracle_check"], config["match_phase"], config["K"]) == (True, False, 1)
    capsys.readouterr()
    # a value of the wrong type or outside its choices names the file and line
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim=3\nbasis=fourier\n")
    assert run_cli("spectrum", "--config", bad, "--out-dir", tmp_path) == 2
    assert f"error: {bad}:2: basis: invalid choice: 'fourier'" in capsys.readouterr().err
    bad.write_text("dim=x\n")
    assert run_cli("spectrum", "--config", bad, "--out-dir", tmp_path) == 2
    assert f"error: {bad}:1: dim: invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [("synth", "lambda-grid=x"), ("susy", "superpotential=0,x,0.5"),
     ("vev", "pvev=1,,2"), ("vev", "qvev=x")],
    ids=["lambda-grid", "superpotential", "pvev", "qvev"],
)
def test_config_value_its_handler_parses_names_the_line(tmp_path, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# {command}\n{line}\n")
    assert run_cli(command, "--config", cfg, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}:2: {line.partition('=')[0]}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    assert report["converged"] is True and report["at_bound"] == []
    assert (tmp_path / "comparison.csv").exists()
    assert (tmp_path / "comparison.svg").exists()
    manifest = load_json(tmp_path / "manifest.json")
    assert "comparison.csv" in manifest["artifacts"]
    # this record pulls γ* onto the top of the grid 0.1…1.5 (truth 0.7)
    assert run_cli("demo", "--seed", 7, "--T", 1, "--out-dir", tmp_path / "s7") == 0
    report = load_json(tmp_path / "s7" / "demo_report.json")
    assert report["theta_star"] == [1.5] and report["at_bound"] == ["gamma"]
    assert "converged" in report


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


# --- BLAS thread count ------------------------------------------------------------------

def test_artifacts_do_not_depend_on_blas_thread_count(tmp_path):
    # a long sum through BLAS splits by thread, which moved the last bit of a
    # fit's cost between 1 and 2 threads; every subcommand runs at both
    inputs = write_edge_inputs(tmp_path)
    pilot = write_damping_model(tmp_path / "pilot.json", grid=(0.1, 1.5, 8))
    # the gate design point (raw 24, kept 4, T 4): a unitary target near the
    # first-order gate of a norm-0.1 pulse, so that the oracle check integrates a drive
    spec = compute_spectrum(0.03, 0.01, kept=4, raw_dim=24)
    beta = np.random.default_rng(3).normal(size=7)
    beta *= 0.1 / np.linalg.norm(beta)
    gate = u0(spec, 4.0).reshape(-1) + design_matrix(spec, 4.0, 3) @ beta
    left, _, right = np.linalg.svd(gate.reshape(4, 4))
    save_json(inputs / "spectrum24.json", spec.to_json())
    save_json(inputs / "target24.json", matrix_to_json(left @ right))
    runs = {
        "spectrum": ["spectrum", "--c1", "0.03", "--c2", "0.01", "--dim", "3"],
        "gate": ["gate", "--spectrum", inputs / "spectrum.json", "--pulse", inputs / "pulse.json",
                 "--oracle"],
        "synth": ["synth", "--target", inputs / "target.json", "--spectrum",
                  inputs / "spectrum.json", "--T", 2, "--K", 1, "--lambda-grid", "1e-4,1e4,3"],
        "synth-oracle": ["synth", "--target", inputs / "target24.json", "--spectrum",
                         inputs / "spectrum24.json", "--T", 4, "--K", 3],
        "channel": ["channel", "--target", inputs / "choi.json", "--T", 2, "--K", 1],
        "susy": ["susy", "--superpotential", "0,0,0.5", "--dim", 32],
        "vev": ["vev", "--d2", inputs / "d2.json", "--pvev", "1,2", "--qvev", "3"],
        "filter-sim": ["filter-sim", "--model", inputs / "model.json", "--dt", 1e-2, "--T", 0.5,
                       "--seed", 1, "--ensemble", 20],
        # the pilot design on a 2 s horizon
        **{f"filter-fit-{seed}": ["filter-fit", "--model", pilot, "--eta", 0.1, "--dt", 1e-3,
                                  "--T", 2, "--xtol", 1e-3, "--seed", seed]
           for seed in range(1, 6)},
        "demo": ["demo", "--seed", 3],
    }
    runs = {name: [str(a) for a in argv] for name, argv in runs.items()}
    script = (
        "import json, sys\n"
        "from susygate import cli\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    assert cli.main(argv + ['--out-dir', name]) == 0, name\n"
    )
    children = {}
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = {**cli_env(), "OPENBLAS_NUM_THREADS": threads}
        children[threads] = subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(runs)], cwd=tmp_path / threads, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for child in children.values():
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, err

    one = {p.relative_to(tmp_path / "1"): p.read_bytes()
           for p in (tmp_path / "1").rglob("*") if p.is_file() and p.name != "manifest.json"}
    assert {path.parts[0] for path in one} == set(runs)
    two = {path: (tmp_path / "2" / path).read_bytes() for path in one}
    assert sorted(str(path) for path in one if one[path] != two[path]) == []


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


def test_in_process_calls_match_fresh_processes(tmp_path, stored_spectrum, monkeypatch):
    # the parser is built once per process, so no call may leave state for the next
    assert cli.build_parser() is cli.build_parser()
    spec = Spectrum.from_json(load_json(stored_spectrum))
    a = design_matrix(spec, 2.0, 1)
    target = (u0(spec, 2.0).reshape(-1) + a @ np.array([0.02, 0.01, -0.01])).reshape(4, 4)
    save_json(tmp_path / "target.json", matrix_to_json(target))
    design = ["--target", str(tmp_path / "target.json"), "--spectrum", str(stored_spectrum),
              "--T", "2", "--K", "1", "--allow-nonunitary"]
    runs = [
        ["synth", *design, "--lambda", "0.5", "--budget", "1e-4", "--out-dir", "clash"],
        ["synth", *design, "--budget", "1e-4", "--out-dir", "budget"],
        ["synth", *design, "--lambda-grid", "1e-4,1e4,3", "--out-dir", "grid"],
        ["spectrum", "--c1", "0.03", "--c2", "0.01", "--dim", "3", "--out-dir", "spectrum"],
    ]
    in_process, fresh = tmp_path / "in-process", tmp_path / "fresh"
    in_process.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(in_process)
    codes = [cli.main(argv) for argv in runs]
    fresh_codes = [subprocess.run([sys.executable, "-c", CLI_CHILD, *argv], cwd=fresh,
                                  env=cli_env(), capture_output=True, timeout=120).returncode
                   for argv in runs]
    assert codes == fresh_codes == [2, 0, 0, 0]

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    ours, theirs = files(in_process), files(fresh)
    assert ours.keys() == theirs.keys()
    for path, data in ours.items():
        if path.name == "manifest.json":
            assert json.loads(data)["config"] == json.loads(theirs[path])["config"]
        else:
            assert data == theirs[path], path


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
    times = cli._times(0.1, 1e-2)
    dy = np.random.default_rng(0).normal(0.0, 0.1, times.size - 1)
    rows = "".join(f"{t:.2f},{y:.4f}\n" for t, y in zip(times, dy))
    (tmp_path / "record.csv").write_text("t,dY\n" + rows)
    (tmp_path / "spectrum.cfg").write_text("# spectrum options\nc1=0.03\nc2=0.01\nbasis=exact\n")
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
        [sys.executable, "-c", CLI_CHILD, *argv],
        cwd=edge_inputs, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "finite" in proc.stderr


def test_deeply_nested_json_exits_2(edge_inputs, capfd):
    # 200 000 levels of [...] exceed the JSON decoder's recursion limit
    deep = edge_inputs / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    out = edge_inputs / "out"
    assert run_cli("vev", "--d2", deep, "--pvev", "1,2", "--qvev", "3", "--out-dir", out) == 2
    assert f"error: {deep}: JSON nested too deeply" in capfd.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("token", ["1e400", "Infinity"])
@pytest.mark.parametrize("command, flag, key", [("synth", "--target", "rows"),
                                                ("gate", "--pulse", "K")])
def test_non_finite_integer_field_exits_2(edge_inputs, capfd, command, flag, key, token):
    argv, _ = _input_argv(command, edge_inputs)
    obj = load_json(argv[argv.index(flag) + 1])
    hostile = edge_inputs / "hostile.json"
    hostile.write_text(json.dumps({**obj, key: None}).replace(f'"{key}": null',
                                                               f'"{key}": {token}'))
    argv[argv.index(flag) + 1] = hostile
    out = edge_inputs / "out"
    assert_exit_2_quietly(capfd, [*argv, "--out-dir", out])
    assert not (out / "manifest.json").exists()


def _huge_pulse(inputs):
    obj = load_json(inputs / "pulse.json")
    save_json(inputs / "huge.json", {**obj, "coeffs": [1e300] + obj["coeffs"][1:]})
    return ["gate", "--spectrum", inputs / "spectrum.json", "--pulse", inputs / "huge.json"]


def _huge_choi(inputs):
    obj = load_json(inputs / "choi.json")
    save_json(inputs / "huge.json", {**obj, "re": [1e300] + obj["re"][1:]})
    return ["channel", "--target", inputs / "huge.json", "--T", 2.0, "--K", 1]


@pytest.mark.parametrize("make_argv", [_huge_pulse, _huge_choi], ids=["gate", "channel"])
def test_non_finite_result_exits_3_without_manifest(edge_inputs, capsys, make_argv):
    out = edge_inputs / "out"
    assert run_cli(*make_argv(edge_inputs), "--out-dir", out) == 3
    assert "numerical failure:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=reject_non_finite)


def _huge_budget_target(inputs):
    obj = load_json(inputs / "target.json")
    save_json(inputs / "huge.json", {**obj, "re": [1e300] + obj["re"][1:]})
    return ["synth", "--target", inputs / "huge.json", "--spectrum", inputs / "spectrum.json",
            "--T", 2.0, "--K", 1, "--budget", 1e-3, "--allow-nonunitary", "--no-oracle-check"]


def _huge_superpotential(inputs):
    return ["susy", "--superpotential", "0,0,1e200", "--dim", 16]


@pytest.mark.parametrize(
    "make_argv", [_huge_pulse, _huge_choi, _huge_budget_target, _huge_superpotential],
    ids=["gate", "channel", "synth-budget", "susy"],
)
def test_overflow_exits_3_with_one_line(edge_inputs, make_argv):
    # NumPy's overflow warnings and a LAPACK routine that does not converge on
    # the overflowed matrix; a child process shows everything printed to stderr
    argv = [str(a) for a in make_argv(edge_inputs)]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *argv, "--out-dir", "out"],
        cwd=edge_inputs, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("numerical failure:")
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (edge_inputs / "out" / "manifest.json").exists()


@pytest.mark.parametrize("flag, value", [("--c1", "nan"), ("--c2", "inf")])
def test_spectrum_non_finite_coefficient_exits_2(tmp_path, capfd, flag, value):
    assert_exit_2_quietly(capfd, ["spectrum", "--dim", 3, flag, value, "--out-dir", tmp_path])


@pytest.mark.parametrize(
    "extra",
    [["--budget", "nan"], ["--lambda", "nan"], ["--lambda", "inf"],
     ["--T", "nan", "--lambda", 0], ["--K", 10000], ["--K", 100000000]],
    ids=["budget-nan", "lambda-nan", "lambda-inf", "T-nan", "K-10000", "K-100000000"],
)
def test_synth_non_finite_exits_2(edge_inputs, capfd, extra):
    argv = ["synth", "--target", edge_inputs / "target.json",
            "--spectrum", edge_inputs / "spectrum.json", "--T", 2.0, "--K", 1,
            "--no-oracle-check", "--out-dir", edge_inputs / "out"]
    assert_exit_2_quietly(capfd, argv + extra)


@pytest.mark.parametrize(
    "extra, code",
    [([], 2), (["--allow-nonunitary"], 3), (["--allow-nonunitary", "--no-oracle-check"], 3),
     (["--allow-nonunitary", "--lambda-grid", "1e-4,1e4,3"], 3)],
    ids=["unitarity-check", "allowed", "allowed-no-oracle", "allowed-sweep"],
)
def test_synth_huge_target_entry_prints_one_line(edge_inputs, extra, code):
    # a 1e300 entry overflows the unitarity test and the synthesis; a child
    # process shows everything NumPy would print to stderr
    obj = load_json(edge_inputs / "target.json")
    save_json(edge_inputs / "huge.json", {**obj, "re": [1e300] + obj["re"][1:]})
    argv = ["synth", "--target", "huge.json", "--spectrum", "spectrum.json", "--T", "2.0",
            "--K", "1", *extra, "--out-dir", "out"]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *argv],
        cwd=edge_inputs, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error: huge.json: target is not unitary")
    else:
        assert proc.stderr.startswith("numerical failure:")
    assert not (edge_inputs / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--lambda", "nan"), ("--anc-freq", "nan"), ("--coupling", "inf"), ("--T", 0),
     ("--K", 10000), ("--K", 100000000)],
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


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="relies on Linux RLIMIT_AS")
@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--dim", "1024"],
     ["channel", "--target", "choi.json", "--T", "2.0", "--K", "1", "--anc-dim", "4096"]],
    ids=["spectrum", "channel"],
)
def test_out_of_memory_exits_3_without_manifest(edge_inputs, argv):
    # within every size limit, but more than a 1 GiB address space holds
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *argv, "--out-dir", "out"],
        cwd=edge_inputs, env={**cli_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure: out of memory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (edge_inputs / "out" / "manifest.json").exists()


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


def _input_argv(command, inputs):
    """A valid argv for ``command`` and the flags that name its JSON inputs;
    ``filter-fit --record`` and ``spectrum --config`` name the record and
    config file instead."""
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
        "filter-fit --record": (["filter-fit", *trajectory, "--record", inputs / "record.csv"],
                                ["--record"]),
        "spectrum --config": (["spectrum", "--dim", 2, "--raw-dim", 6,
                               "--config", inputs / "spectrum.cfg"], ["--config"]),
    }[command]


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["gate", "synth", "channel", "vev", "filter-sim", "filter-fit"]),
    which=st.integers(min_value=0, max_value=1),
    value=_wrong_shape_json(),
)
def test_wrong_shape_json_exit_code_contract(shared_edge_inputs, command, which, value):
    argv, flags = _input_argv(command, shared_edge_inputs)
    flag = flags[which % len(flags)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        save_json(out / "input.json", value)
        argv[argv.index(flag) + 1] = out / "input.json"
        assert run_cli(*argv, "--out-dir", out / "run") in (0, 2, 3)


# raw JSON text: save_json refuses the non-finite ones, and 1e400 parses as inf
_EXTREME_LEAVES = ["1e300", "-1e300", "1e-300", "0", "-1", "Infinity", "-Infinity", "NaN",
                   "1e400"]
_LEAF = "extreme leaf"  # placeholder that the drawn leaf's text replaces


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


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["gate", "synth", "channel", "vev", "filter-sim", "filter-fit"]),
    data=st.data(),
)
def test_extreme_leaf_exit_code_contract(shared_edge_inputs, command, data):
    argv, flags = _input_argv(command, shared_edge_inputs)
    flag = data.draw(st.sampled_from(flags))
    obj = load_json(argv[argv.index(flag) + 1])
    path = data.draw(st.sampled_from(_numeric_leaves(obj)))
    value = data.draw(st.sampled_from(_EXTREME_LEAVES))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        text = json.dumps(_with_leaf(obj, path, _LEAF)).replace(json.dumps(_LEAF), value)
        (out / "input.json").write_text(text)
        argv[argv.index(flag) + 1] = out / "input.json"
        status = run_cli(*argv, "--out-dir", out / "run")
        assert status in (0, 2, 3)
        if value in ("Infinity", "-Infinity", "NaN", "1e400"):
            # every number of these inputs is read, and a non-finite one is refused
            assert status == 2
        if status == 0:
            for artifact in (out / "run").glob("*.json"):
                json.loads(artifact.read_text(), parse_constant=reject_non_finite)


# --- one corrupted byte in any input file -------------------------------------------

# (argv key, flag) of every input kind: spectrum, pulse, target, Choi target,
# d2, model, record and config
_INPUT_KINDS = [("gate", "--spectrum"), ("gate", "--pulse"), ("synth", "--target"),
                ("channel", "--target"), ("vev", "--d2"), ("filter-fit", "--model"),
                ("filter-fit --record", "--record"), ("spectrum --config", "--config")]


@pytest.mark.filterwarnings("ignore::susygate.spectrum.MetastableWarning")
@pytest.mark.filterwarnings("ignore:normal matrix condition")
@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(_INPUT_KINDS), edit=st.sampled_from(["replace", "insert", "delete"]),
       where=st.floats(0.0, 1.0, exclude_max=True), byte=st.integers(0, 255))
def test_corrupted_input_file_exit_code_contract(shared_edge_inputs, kind, edit, where, byte):
    argv, _ = _input_argv(kind[0], shared_edge_inputs)
    i = argv.index(kind[1]) + 1
    data = Path(argv[i]).read_bytes()
    at = int(where * len(data))
    tail = data[at + 1:] if edit != "insert" else data[at:]
    corrupted = data[:at] + (b"" if edit == "delete" else bytes([byte])) + tail
    with tempfile.TemporaryDirectory() as tmp:
        argv[i] = Path(tmp) / Path(argv[i]).name
        argv[i].write_bytes(corrupted)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = run_cli(*argv, "--out-dir", Path(tmp) / "run")
        assert status in (0, 2, 3)
        if status == 2:
            assert str(argv[i]) in err.getvalue() and "Traceback" not in err.getvalue()
        if status != 0:
            assert not (Path(tmp) / "run" / "manifest.json").exists()
