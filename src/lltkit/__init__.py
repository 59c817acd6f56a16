"""Effective local limit theorem bounds for sums of lattice random variables.

The package computes two-sided, explicit-constant envelopes for point
probabilities ``P{S_n = kappa}`` of sums of independent lattice variables by
extracting a Bernoulli component from every summand, and ships the exact
brute-force machinery (convolutions, Poisson-binomial laws, Kolmogorov
distances) that every envelope is validated against.
"""

# The bare package, which loads no subpackage (about 1 MB): no command
# imports scipy otherwise, and ``perfbench/worker.py`` reads
# ``sys.modules["scipy"].__version__`` after its requests.  scipy.integrate
# is imported by the one function that uses it.
import scipy  # noqa: F401

from .bounds import (
    BoundReport,
    ConstantsRegistry,
    DEFAULT_C0,
    DEFAULT_CE,
    DEFAULT_CONSTANTS,
    PlugIns,
    SumSpec,
    bounded_plug_ins,
    calibrate_c0_scan,
    calibrated_registry,
    central_envelope,
    certified_registry,
    chernoff_rho,
    constants_from_json,
    de_moivre_envelope,
    exact_plug_ins,
    h_default,
    prepare_sum,
    psi_envelope,
    refined_bernoulli_comparison,
    sandwich_envelope,
)
from .convolve import (
    SumLaw,
    bernoulli,
    iid_sum,
    kolmogorov_distance,
    llt_discrepancy,
    sum_law,
)
from .errors import LatticeError, NumericsError, PreconditionError
from .extraction import BernoulliSplit, reconstruct, split, xi_law
from .gamkrelidze import (
    ExtractionSmoothnessBound,
    PointwiseCheck,
    SmoothnessReport,
    effective_pointwise_bound,
    interval_discrepancy,
    smoothness_stat,
    smoothness_via_extraction,
)
from .lattice import (
    Characteristics,
    LatticePmf,
    characteristics,
    delta_smoothness,
    make_pmf,
    moments,
    pmf_from_json,
    psi_moments,
    span_multiple,
    theta,
)
from .partition import (
    PartitionInstance,
    count_partitions,
    count_via_enumeration,
    count_via_model,
    solve_sigma,
)
from .scenery import (
    CovarianceFactorization,
    MonteCarloEstimate,
    SceneryModel,
    SceneryMoments,
    beta_functional,
    c_hk,
    monte_carlo_point_prob,
    scenery_envelope,
    scenery_from_json,
    second_moment_check,
    theta_n_scenery,
    y_covariance_factorization,
)

__version__ = "0.1.0"
