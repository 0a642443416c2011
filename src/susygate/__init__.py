"""susygate: gate and channel synthesis for a driven anharmonic oscillator
mode, plus stochastic master equations, state filtering and parameter
fitting against filtered trajectories."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .channel import (
    JointSystem,
    QuantumChannel,
    apply_channel,
    choi,
    dyson_channel,
    kraus_from_unitary,
    partial_trace,
    synthesize_channel,
)
from .dyson import (
    ControlPulse,
    dyson_gate,
    propagate_oracle,
    u0,
)
from .errors import CutoffError, IntegrationError, OracleConvergenceError, SusygateError
from .filter_fit import (
    LindbladModel,
    ModelFamily,
    Trajectory,
    ensemble_stats,
    filter_estimate,
    fit_parameters,
    lindblad_evolve,
    sme_simulate,
)
from .fock import (
    GradedSpace,
    annihilation_op,
    even_part,
    is_unitary,
    momentum_op,
    odd_part,
    position_op,
    tau,
)
from .gate_synth import SynthesisProblem, SynthesisReport, design_matrix, sweep, synthesize
from .spectrum import (
    MetastableWarning,
    Spectrum,
    build_h0,
    compute_spectrum,
    diagonalize,
    perturbative_energies,
)
from .susy_toy import (
    SusyPair,
    VevControl,
    WittenIndexReport,
    susy_pair,
    vev_control,
    witten_index,
)

# the public names, without the submodules that importing them binds here
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
