"""Fair division of indivisible chores with two-valued costs.

Computes Fisher-market equilibria whose payments certify Pareto
optimality, reallocates toward bounded-envy allocations, verifies every
claimed fairness property exactly, and cross-checks against exhaustive
ground truth on small instances.  All arithmetic is exact rational.
"""
from types import ModuleType as _ModuleType

from .approx_efx import (approx_from_equilibrium, approx_round,
                         run_approx_efx, strong_envy_target)
from .efx_k2 import (earning_tiers, efx_violation,
                     k2_from_equilibrium, k2_round, run_efx_k2)
from .errors import (AllEmpty, AlreadyUniform, BudgetExceeded, ChorefairError,
                     GroupPropertyViolation, InternalInvariant,
                     InvariantViolation, IterationCapExceeded,
                     LemmaViolation, MissingIntermediary, MPBViolation,
                     NotBiValued, ParseError, PreconditionViolated,
                     RaiseOverflow, TierViolation, ZeroCost)
from .harness import (GenParams, RunReport, SplitMix64, StageSummary,
                      Verdicts, bench, gen_instance, instance_digest,
                      instance_text, load_instance, load_report,
                      parse_instance, parse_rational, parse_report,
                      equilibrium_from_parts, report_fingerprint,
                      report_text, run_pipeline, save_instance, save_report)
from .market_init import (AgentGroups, build_initial_state,
                          find_violating_chain, partition_agent_groups,
                          resolve_overpaid_paths)
from .model import (Allocation, ExactRational, Instance, MarketState,
                    RawInstance, as_rational, build_market_state, earning,
                    earning_units, hat_earning, hat_earning_units,
                    instance_to_raw, normalize_instance, raw_instance)
from .oracle import (DEFAULT_BUDGET, best_efx_beta_over_po, exists_efx_po,
                     is_pareto_optimal)
from .pef1 import (SolverState, StageResult, pef1_round, run_pef1,
                   select_big_earner, select_least_earner)
from .trace import TraceEvent, replay_trace
from .verify import (UNBOUNDED, BetaResult, FairnessVerdict, Unbounded,
                     Witness, beta_le, check_EF1, check_equilibrium,
                     check_pEF1, min_beta_EFX, min_beta_pEFX)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = [_name for _name, _value in list(globals().items())
           if not (_name.startswith("_") or isinstance(_value, _ModuleType))]
