import inspect

import susygate
from susygate import channel, dyson, filter_fit, fock, spectrum, susy_toy

# the package's exported names; a new export has to be added here on purpose
PUBLIC = [
    "ControlPulse", "CutoffError", "GradedSpace", "IntegrationError", "JointSystem",
    "LindbladModel", "MetastableWarning", "ModelFamily", "OracleConvergenceError",
    "QuantumChannel", "Spectrum", "SusyPair", "SusygateError", "SynthesisProblem",
    "SynthesisReport", "Trajectory", "VevControl", "WittenIndexReport",
    "annihilation_op", "apply_channel", "build_h0", "choi", "compute_spectrum",
    "design_matrix", "diagonalize", "dyson_channel", "dyson_gate", "ensemble_stats",
    "even_part", "filter_estimate", "fit_parameters", "is_unitary", "kraus_from_unitary",
    "lindblad_evolve", "momentum_op", "odd_part", "partial_trace", "perturbative_energies",
    "position_op", "propagate_oracle", "sme_simulate", "susy_pair", "sweep", "synthesize",
    "synthesize_channel", "tau", "u0", "vev_control", "witten_index",
]
SUBMODULES = ["channel", "dyson", "errors", "filter_fit", "fock", "gate_synth",
              "serialize", "solver", "spectrum", "susy_toy"]


def test_public_surface_is_pinned():
    assert sorted(susygate.__all__) == PUBLIC


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from susygate import *", namespace)
    assert [name for name in SUBMODULES if name in namespace] == []


def test_deleted_names_stay_deleted():
    # each had no caller outside the tests, one caller that now does its
    # work, or a job that had ended, or it copied another code path
    for owner, name in [
        (susy_toy, "effective_hamiltonian"),
        (susy_toy, "_mode_ops"),
        (channel, "channel_distance"),
        (channel.QuantumChannel, "validate"),
        (fock, "creation_op"),
        (dyson.ControlPulse, "scaled"),
        (filter_fit, "BLOCK_STEPS"),
        (channel, "_kraus_stack"),
        (spectrum.Spectrum, "validate"),
        (fock, "is_hermitian"),
        (fock, "is_psd"),
        (channel, "_warn_if_not_state"),
    ]:
        assert not hasattr(owner, name), name
    for name in ("effective_hamiltonian", "channel_distance", "creation_op", "is_hermitian",
                 "is_psd"):
        assert not hasattr(susygate, name), name
    assert list(inspect.signature(spectrum.perturbative_energies).parameters) == [
        "c1", "c2", "n_max",
    ]
    assert list(inspect.signature(fock.is_unitary).parameters) == ["a"]
