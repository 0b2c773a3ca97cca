"""Grouped adaptive BH multiple testing with a closed-form FDR bound under
equicorrelated one-sided normal means, plus Monte Carlo and quadrature audit
tooling and a command-line front end.  Each public name is imported from its
module on first access (PEP 562), so `import gbh_fdr` loads no numpy."""

import importlib

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

# The defining module of each name in __all__, which lists them in this order.
_MODULE_OF = dict(zip(__all__, ["bound"] * 14 + ["normal"] * 4 + ["procedures"] * 8
                      + ["simulator"] * 8 + ["verify"] * 9))

# Defined here so that reading them loads no numpy: the parser offers PROCEDURES,
# the procedures simulate and adjust accept; cli's readers raise ConfigError.
PROCEDURES = ("gbh1", "storey", "bh")


class ConfigError(ValueError):
    """Invalid simulation configuration."""


__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
