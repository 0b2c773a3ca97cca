"""Grouped adaptive BH multiple testing with a closed-form FDR bound under
equicorrelated one-sided normal means, plus Monte Carlo and quadrature audit
tooling and a command-line front end."""

from .bound import (BoundBreakdown, BoundInput, DomainError, ab_from_rho,
                    bound_curve, exact_p_conditional, fdr_bound,
                    fdr_bound_aform, in_theorem_domain, integrals_closed,
                    m_factor, m_factor_ab, p_lower, rho_max)
from .normal import norm_cdf, norm_quantile, norm_sf, phi
from .procedures import (GBHWeights, GroupedPValues, RejectionResult,
                         bh_step_up, gbh1, gbh1_weights, gbh1_weights_loo, storey)
from .simulator import (ConfigError, SimConfig, SimSummary, generate_sample,
                        generate_sample_conditional, pvalues_from_sample,
                        run_mc, run_mc_conditional)
from .verify import (QuadratureError, SectionResult, VerifyReport,
                     check_loo_expectation, check_rejection_expectation,
                     f_ratio, mvt_residual, quad_integrals, sup_f)

__all__ = [
    "BoundBreakdown", "BoundInput", "DomainError", "ab_from_rho",
    "bound_curve", "exact_p_conditional", "fdr_bound", "fdr_bound_aform",
    "in_theorem_domain", "integrals_closed", "m_factor", "m_factor_ab",
    "p_lower", "rho_max",
    "norm_cdf", "norm_quantile", "norm_sf", "phi",
    "GBHWeights", "GroupedPValues", "RejectionResult", "bh_step_up", "gbh1",
    "gbh1_weights", "gbh1_weights_loo", "storey",
    "ConfigError", "SimConfig", "SimSummary", "generate_sample",
    "generate_sample_conditional", "pvalues_from_sample", "run_mc",
    "run_mc_conditional",
    "QuadratureError", "SectionResult", "VerifyReport", "check_loo_expectation",
    "check_rejection_expectation", "f_ratio", "mvt_residual", "quad_integrals",
    "sup_f",
]

__version__ = "0.1.0"
