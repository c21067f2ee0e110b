"""Multilevel Bayesian quadrature.

Gaussian-process numerical integration over multifidelity model
hierarchies, with plain MC / multilevel MC / single-level Bayesian
quadrature baselines, closed-form budget allocation across levels, design
generators, synthetic differential-equation testbeds and a reproducible
experiment harness.
"""

from .allocation import (
    AllocationError,
    AllocationInput,
    AllocationPlan,
    integerize_allocation,
    kernel_sobolev_order,
    matern_sobolev_order,
    mlbq_allocation,
    mlmc_allocation,
)
from .designs import Design, fill_distance, generate_design, halton_sequence
from .gp import (
    GPFit,
    SingularGramError,
    fit_gp,
    fit_hyperparameters,
    gp_posterior_at,
    log_marginal_likelihood,
    mle_amplitude,
    profiled_log_marginal_likelihood,
)
from .kernels import (
    BrownianMotion,
    Kernel,
    Matern,
    NoClosedFormError,
    ProductMeasure,
    SquaredExponential,
    StandardNormal,
    Uniform,
    gram,
    initial_error,
    kernel_mean,
)
from .models import (
    ModelError,
    MultifidelityModel,
    OdeHierarchy,
    PiecewiseLinearFunction,
    PoissonHierarchy,
    StepHierarchy,
    brownian_rkhs_increment_norm,
    make_model,
    poisson_exact_solution,
)
from .quadrature import (
    GaussianPosterior,
    LevelData,
    LevelFailure,
    bq_posterior,
    mc_estimate,
    mlbq_estimate,
    mlmc_estimate,
    sk_mlbq_estimate,
)

__version__ = "0.1.0"
