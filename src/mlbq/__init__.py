"""Multilevel Bayesian quadrature.

Gaussian-process numerical integration over multifidelity model
hierarchies, with plain MC / multilevel MC / single-level Bayesian
quadrature baselines, closed-form budget allocation across levels, design
generators, synthetic differential-equation testbeds and a reproducible
experiment harness.
"""

from .allocation import (
    AllocationError,
    AllocationPlan,
    integerize_allocation,
    mlbq_allocation,
    mlmc_allocation,
)
from .designs import Design, generate_design, halton_sequence
from .gp import (
    GPFit,
    SingularGramError,
    fit_gp,
    fit_hyperparameters,
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
    mlbq_estimate,
    mlmc_estimate,
)

__version__ = "0.1.0"
