"""ldplab: a Monte Carlo laboratory for the long-run tail decay of SGD-type methods.

The package simulates vanilla and clipped SGD under bounded and heavy-tailed
gradient noise, estimates tail probabilities P(F_t > eps) of the running
minimum squared gradient norm over large ensembles, and verifies the
closed-form decay laws, moment-generating-function bounds, clipping-bias
bounds, and the exactly solvable lower-bound instance at desk scale.
"""

from .config import TOOL_VERSION as __version__
from .costs import (
    CostSpec,
    HuberCost,
    PseudoHuberCost,
    finite_difference_gradient,
    synthetic_logistic_cost,
)
from .montecarlo import (
    DecayFit,
    InsufficientDataError,
    TailEstimate,
    appendix_f_enumeration,
    ensemble_chunks,
    estimate_tail,
    fit_decay,
    run_ensemble,
    verify_lemma_suite,
    wilson_interval,
)
from .oracles import (
    AdditiveOracle,
    BatchSubsampleOracle,
    GaussianNoise,
    NoiseModel,
    OracleSpec,
    PreconditionViolation,
    SphereNoise,
    SymmetrizedParetoNoise,
    TwoPointNoise,
    clipping_bias_probe,
)
from .optimizers import (
    ClipSpec,
    EnsembleArrays,
    RunConfig,
    ScheduleSpec,
    clip_threshold,
    simulate_runs,
    step_size,
)
from .rng import run_generator
from .theory import (
    RateSpec,
    beta_exponent,
    decay_family,
    fenchel_legendre,
    generating_phi,
    lower_bound_exact_prob,
    rate_csgd,
    rate_csgd_generalC,
    rate_sgd,
    sota_curves,
    transform_consistency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
