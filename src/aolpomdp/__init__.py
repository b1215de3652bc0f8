"""Adaptive open-loop POMDP planning with formally checkable bounds."""

from .bounds import (BoundPair, ExactEvaluator, PlanResult, SeparationResult,
                     check_separation, compute_bounds, plan_with_guarantees)
from .core import (DiscretePomdp, ExactBelief, ImpossibleObservationError,
                   ParticleBelief, ParticleDepletionError, exact_bayes_update,
                   expected_reward, observation_predictive,
                   propagate_open_loop, reachable_states)
from .envs import (GridEnvironment, GridWorldSpec, build_beacon_pomdp,
                   build_tunnel_pomdp, tunnel_spec)
from .oracle import (exact_afo_value, exact_aol_value, exact_bounds,
                     exact_q_star)
from .pomcp import AtPomcp, PomcpConfig, SearchResult
from .replan import (SkipConfig, SrgCertificate, check_srg, compute_ck,
                     execute_with_skipping, future_bounds)
from .sparse import SparseConfig, SparsePftEvaluator, estimate_lb, estimate_ub
from .topology import (CLOSED, OPEN, Topology, build_tree, random_topology,
                       refine_topology)

__version__ = "0.1.0"

__all__ = [
    "AtPomcp", "BoundPair", "CLOSED", "DiscretePomdp",
    "ExactBelief", "ExactEvaluator", "GridEnvironment", "GridWorldSpec",
    "ImpossibleObservationError", "OPEN", "ParticleBelief",
    "ParticleDepletionError", "PlanResult", "PomcpConfig", "SearchResult",
    "SeparationResult", "SkipConfig", "SparseConfig", "SparsePftEvaluator",
    "SrgCertificate", "Topology", "build_beacon_pomdp", "build_tree",
    "build_tunnel_pomdp", "check_separation", "check_srg", "compute_bounds",
    "compute_ck", "exact_afo_value", "exact_aol_value", "exact_bayes_update",
    "exact_bounds", "exact_q_star", "execute_with_skipping",
    "expected_reward", "estimate_lb", "estimate_ub", "future_bounds",
    "observation_predictive", "plan_with_guarantees",
    "propagate_open_loop", "random_topology", "reachable_states",
    "refine_topology", "tunnel_spec",
]
