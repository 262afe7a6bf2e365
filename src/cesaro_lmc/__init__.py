"""Bayesian posterior means via constant-step Langevin Monte Carlo with
Cesaro averaging, with the closed-form step-size/iteration tunings for
strongly and weakly convex potentials and the oracle machinery to verify
them at desk scale."""

__version__ = "0.1.0"

from .potentials import (
    Potential,
    Smoothness,
    StronglyConvex,
    WeaklyConvexKL,
    builtin_gaussian_location,
    builtin_logistic,
    builtin_p_power,
    find_minimizer,
    verify_grad_bounds,
    verify_kl_profile,
)
from .bayes import (
    GaussianLocationModel,
    LogisticModel,
    PosteriorPotential,
    build_posterior,
    sample_dataset,
)
from .sampler import ChainConfig, ChainRun, replicate_runs, run_chain
from .tuning import TuningPlan, compute_upsilon, epsilon_n, tune_bayes, tune_sc, tune_weak
from .oracle import (
    PoissonSolution1D,
    importance_posterior_mean,
    ou_cesaro_moments,
    poisson_solve_1d,
    quadrature_posterior_mean,
)
from .diagnostics import (
    ExperimentReport,
    RateFit,
    SeparationMap,
    concentration_check,
    fit_line,
    moment_check,
    mse_experiment,
    run_test_phi,
)
