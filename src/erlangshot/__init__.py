"""Toolkit for Markovian jump diffusions driven by compound Poisson noise
with Erlang jump sizes: exact samplers, closed-form densities and traveling
waves, master-equation residual certificates, and a Monte Carlo engine for
the barycenter-coupled mean-field swarm."""

from .closedform import (
    DivergenceError,
    NormalizationError,
    TanhTransientLaw,
    TiltedOuLaw,
    TransientLaw,
    WaveSolution,
    cumulant,
    gumbel_wave,
    laplace_transform_linear,
    stationary_m1,
    stationary_ou_m2,
    whittaker_wave,
)
from .master import (
    BoundaryMassError,
    ConstantDrift,
    ConstantRate,
    ExpDecayCentered,
    GridFunction,
    GridSpec,
    LinearRestoring,
    ModelSpec,
    TanhRepulsive,
    differential_generator,
    fit_convergence_order,
    generator_gap,
    stationary_residual,
    wave_residual,
)
from .noise import (
    ErlangJumpLaw,
    TiltedJumpLaw,
    erlang_pdf,
)
from .simulate import (
    EmpiricalDensity,
    ExactSample,
    SimConfig,
    SwarmSeries,
    empirical_density,
    estimate_speed,
    ks_distance,
    sample_linear_shot_noise_exact,
    sample_ou_tanh_exact,
    sample_tanh_exact,
    simulate_swarm,
)
from .specfun import (
    bessel_i,
    bessel_k,
    digamma,
    erlang_survival,
    kummer_1f1,
    kummer_u,
    log_gamma,
    whittaker_w0,
)

__version__ = "0.1.0"
