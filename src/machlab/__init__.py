"""machlab: a pseudo-spectral laboratory for slightly compressible 2D flow.

Three layers:

* substrate: periodic grids, FFT fields, projections, dyadic frequency
  blocks, plain and weighted Besov norms (``spectral``, ``littlewood_paley``)
* solvers: the split-step compressible integrator, the vorticity-form
  incompressible reference, the transport lab with its characteristics
  oracle, and the exact acoustic propagator (``compressible``,
  ``incompressible``, ``transport``, ``acoustic``)
* bookkeeping: run ledgers, lifespan/smallness predictions, trend checks,
  experiment drivers, and the acceptance suite (``ledger``, ``asymptotics``,
  ``experiments``, ``acceptance``, ``cli``)
"""

from .spectral import (
    Field,
    FlowState,
    Grid,
    curl2d,
    dealias,
    div,
    fft_forward,
    from_function,
    grad,
    l2_norm,
    leray_p,
    leray_q,
    lp_norm,
    read_snapshot,
    write_snapshot,
)
from .littlewood_paley import (
    BesovProfile,
    besov_norm,
    block_norms,
    delta_q,
    find_profile,
    load_profile,
    named_profile,
    validate_profile,
)
from .acoustic import (
    acoustic_to_state,
    free_propagate,
    make_acoustic,
    measure_strichartz,
    strichartz_exponents,
    wraparound_window,
)
from .compressible import Blowup, StepperConfig, run, step
from .incompressible import run_incompressible, velocity_from_vorticity
from .transport import (
    SyntheticVelocity,
    compressible_mode,
    evaluate_log_estimate,
    fit_log_constant,
    shear_velocity,
    solve_transport_oracle,
    solve_transport_spectral,
    superpose,
)
from .asymptotics import LifespanModel, lifespan_prediction, phi_of_eps
from .initial_data import make_initial_data
from .ledger import RunLedger
from .config import ConfigError, ExperimentConfig, parse_config, validate_config
from .experiments import run_experiment
from .acceptance import run_all

__version__ = "0.1.0"

__all__ = [
    "BesovProfile", "Blowup", "ConfigError", "ExperimentConfig", "Field", "FlowState",
    "Grid", "LifespanModel", "RunLedger", "StepperConfig", "SyntheticVelocity",
    "acoustic_to_state", "besov_norm", "block_norms", "compressible_mode",
    "curl2d", "dealias", "delta_q", "div", "evaluate_log_estimate", "fft_forward",
    "find_profile", "fit_log_constant", "free_propagate", "from_function", "grad", "l2_norm",
    "leray_p", "leray_q", "lifespan_prediction", "load_profile", "lp_norm", "make_acoustic",
    "make_initial_data", "measure_strichartz", "named_profile", "parse_config", "phi_of_eps",
    "read_snapshot", "run", "run_all", "run_experiment", "run_incompressible",
    "shear_velocity", "solve_transport_oracle", "solve_transport_spectral", "step",
    "strichartz_exponents", "superpose", "validate_config", "validate_profile",
    "velocity_from_vorticity", "wraparound_window", "write_snapshot",
]
