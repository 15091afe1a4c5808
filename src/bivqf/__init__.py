"""bivqf: a quantile-density bivariate distribution family toolkit.

The family is defined by marginal quantile densities
q_i(u) = c_i u^alpha_i (1-u)^beta_i and the conditional quantile function
Q21(u1, u2) = (1 + theta u1) Q2(u2).  The package provides the model
functions, a catalog of named special cases, L-moment and L-comoment
computation, method-of-L-moments estimation, goodness-of-fit testing,
random generation, and a command-line interface with two bundled
reference datasets.
"""

__version__ = "4.2.0"

from .catalog import CATALOG_NAMES, CatalogEntry, make_case
from .comoment import (
    LComomentSet,
    population_lcomoments,
    power_case_lcov_closed_form,
    power_case_lcov_hypergeometric,
    sample_lcomoments,
)
from .data import BUILTIN_DATASETS, PairedSample, ingest
from .errors import (
    BivqfError,
    BracketError,
    ConvergenceError,
    DivergentMomentError,
    DomainError,
    InfeasibleRegionError,
    InsufficientDataError,
    ParseError,
    QuadratureError,
    SingularSystemError,
    UnsupportedCaseError,
)
from .fit import (
    FitResult,
    MrqFitResult,
    MrqParams,
    fit_bivariate,
    fit_marginal,
    fit_mrq,
    fit_theta,
    mrq_quantile,
)
from .gof import GofResult, QQData, kolmogorov_pvalue, ks_conditional, ks_marginal, qq_data
from .lmom import LMomentVector, population_lmoments, sample_lmoments
from .model import (
    BivariateParams,
    DEFAULT_NUMERIC_CONFIG,
    MarginalParams,
    NumericConfig,
    SupportInfo,
    big_q1,
    f1,
    f1_flagged,
    joint_survival,
    product_moment,
    q1,
    q2_bar_conditional,
    support,
    u21,
)
from .sampling import SamplerSpec, draw

__all__ = [name for name in dir() if not name.startswith("_")]
