"""Fair division of indivisible chores with two-valued costs.

Computes Fisher-market equilibria whose payments certify Pareto
optimality, reallocates toward bounded-envy allocations, verifies every
claimed fairness property exactly, and cross-checks against exhaustive
ground truth on small instances.  All arithmetic is exact rational.

The package root exports what the README's library quickstart uses;
everything else is imported from its module.
"""
from .approx_efx import run_approx_efx
from .efx_k2 import run_efx_k2
from .errors import AlreadyUniform, ChorefairError
from .harness import report_fingerprint, run_pipeline
from .model import Instance, normalize_instance, raw_instance
from .pef1 import run_pef1
from .verify import check_equilibrium, check_pEF1, min_beta_EFX

__version__ = "0.1.0"

__all__ = [
    "AlreadyUniform", "ChorefairError", "Instance", "__version__",
    "check_equilibrium", "check_pEF1", "min_beta_EFX", "normalize_instance",
    "raw_instance", "report_fingerprint", "run_approx_efx", "run_efx_k2",
    "run_pef1", "run_pipeline",
]
