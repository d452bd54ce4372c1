"""Optimal-surrender valuation engine for variable annuities with a maturity guarantee.

The sub-account follows a lognormal market net of a time-dependent fee;
surrendering pays a charged fraction of the account before maturity and the
guaranteed maximum at maturity. The package prices the contract as an optimal
stopping problem by two independent routes (a Markov-chain lattice and a
variational-inequality finite-difference solver), extracts surrender regions
and the optimal boundary, evaluates the premium decompositions of the value,
and verifies everything against closed forms and Monte Carlo.
"""

from . import _threads

from .model import (
    ChargeSpec,
    ConfigError,
    ContractParams,
    DomainError,
    FeeSpec,
    L_value,
    MarketParams,
    Scenario,
    reward,
    scenario_from_dict,
    scenario_to_dict,
)
from .analytic import (
    NeverSurrenderReport,
    cubic_charge_fee_bound,
    fee_from_cubic_charge_bound,
    guarantee_put_value,
    matching_exponential_rate,
    maturity_benefit_value,
    never_surrender_check,
)
from .surfaces import ValueSurface, log_space_nodes, time_nodes
from .lattice import (
    ChainGrid,
    ConvergenceStudy,
    GridResolutionError,
    american_extrapolate,
    bermudan_value,
    build_chain,
)
from .pde import (
    PdeGrid,
    SmoothFitReport,
    SolverError,
    build_pde_grid,
    smooth_fit_diagnostic,
    solve_variational_inequality,
)
from .region import (
    Boundary,
    RegionComparison,
    RegionMask,
    classify_sections,
    compare_regions,
    extract_boundary,
    extract_regions,
)
from .decompose import (
    DecompositionReport,
    continuation_premium,
    decomposition_residuals,
    surrender_premium,
)
from .mc import (
    McEstimate,
    McPremiumEstimates,
    McVerifyEstimates,
    PathBatch,
    mc_boundary_strategy_value,
    mc_maturity_benefit,
    mc_premium_integrals,
    mc_verify_estimates,
    simulate_paths,
)
from .presets import (
    BENCHMARK_FEES,
    benchmark_scenario,
    low_charge_scenario,
    matched_exponential_scenario,
)

__version__ = "0.1.0"

_threads.pin_blas()  # last: every submodule has loaded numpy's and scipy's BLAS
