"""Effective local limit theorem bounds for sums of lattice random variables.

The package computes two-sided, explicit-constant envelopes for point
probabilities ``P{S_n = kappa}`` of sums of independent lattice variables by
extracting a Bernoulli component from every summand, and ships the exact
machinery that every envelope is validated against: the exact law of a sum
(:func:`sum_law`).  Gamkrelidze's smoothness statistics and random-scenery
moments apply the same theorem; distinct-part partition counts are exact
integers, with the tilt of the two-point model whose local probability they
are.

The offline checks (the fair-coin certificate of c0, the de Moivre band,
the brute-force statistics of exact laws and the random-scenery identities)
live in :mod:`lltkit.checks`, which no command imports: the names of
``_CHECKS`` are read from it on first access (PEP 562).
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
    calibrated_registry,
    central_envelope,
    chernoff_rho,
    constants_from_json,
    exact_plug_ins,
    h_default,
    prepare_sum,
    psi_envelope,
    sandwich_envelope,
)
from .convolve import SumLaw, bernoulli, sum_law
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
    span_multiple,
    theta,
)
from .partition import (
    PartitionInstance,
    count_partitions,
    count_via_enumeration,
    solve_sigma,
)
from .scenery import (
    MonteCarloEstimate,
    SceneryModel,
    SceneryMoments,
    monte_carlo_point_prob,
    scenery_envelope,
    scenery_from_json,
    second_moment_check,
)

__version__ = "0.1.0"

#: the names exported from :mod:`lltkit.checks`, which is imported on first access
_CHECKS = ("CovarianceFactorization", "beta_functional", "c_hk", "calibrate_c0_scan",
           "certified_registry", "de_moivre_envelope", "iid_sum", "kolmogorov_distance",
           "llt_discrepancy", "refined_bernoulli_comparison", "theta_n_scenery",
           "y_covariance_factorization")


def __getattr__(name: str):
    if name in _CHECKS:
        from . import checks

        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
