"""Two-sample relative-effect estimation, testing and simulation.

The relative effect p = P(X1 < X2) + P(X1 = X2)/2 is estimated over all
cross pairs, counted through the tie runs of the pooled sample; the package
provides the family of variance estimators for it, small-sample
t-approximations with five degrees-of-freedom variants, logit-transformed
and studentized-permutation tests, and a reproducible Monte Carlo harness
for type-I-error, power and mean-variance studies.
"""
from ._batch import EffectSummary
from .distributions import (
    BetaLatent,
    Binomial,
    DistSpec,
    Exponential,
    Normal,
    dist_label,
    discrete_masses,
    exact_moments,
    exact_mw_parameter,
    parse_dist,
    population_variance,
    sample,
    solve_target_effect,
)
from .dof import DfKind, degrees_of_freedom
from .errors import (
    ConfigError,
    InvalidKind,
    NoBracket,
    SizeTooLarge,
    SizeTooSmall,
    TiesInReducedForm,
    UnsupportedPair,
)
from .permutation import PermutationResult, permutation_test, permutation_tests
from .ranks import Sample, TwoSamples, estimate_effect
from .rng import DEFAULT_SEED
from .simulate import Scenario, SimulationSummary, load_scenarios, run_scenario, run_scenarios
from .stat_tests import (
    DEFAULT_BATTERY,
    TestKind,
    TestResult,
    run_test,
)
from .tables import TABLE_IDS, build_table
from .variance import (
    Degeneracy,
    ShirahataForm,
    ShirahataKind,
    VarianceEstimate,
    VarianceKind,
    var_bm,
    var_pm,
    var_shirahata,
    var_unbiased,
    var_wmw,
)

__version__ = "0.1.0"
