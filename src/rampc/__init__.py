"""Robust adaptive-horizon MPC for uncertain linear systems.

The toolkit covers the full pipeline: H-polytope geometry and invariant
sets, net-additive uncertainty bounding, disturbance-feedback predictions,
a certified LP/QP solve layer, the adaptive-horizon robust controller, a
conservative lumped baseline, closed-loop simulation with stability
monitors, grid-sampled ROA estimation and timing benchmarks, plus a CLI.

A controller is an object prepared once per system and config,
``AdaptiveController`` or ``BaselineController``: ``solve(x)`` returns an
``MPCSolution`` (an all-infeasible bank is data) and ``step(x)`` the applied
input, raising ``AllHorizonsInfeasibleError`` instead.  One horizon's QP is
posed by ``controller.Case1Template``/``CaseNTemplate`` and ``parts(x)``.
"""
from . import baseline, controller, geometry, prediction, qpsolver, simulator, system
from .baseline import BaselineConfig, BaselineController, make_baseline_config
from .controller import (
    AdaptiveController,
    MPCConfig,
    MPCSolution,
    TerminalComponents,
    candidate_tail_cost,
    config_from_problem,
    rollout_policy,
    synthesize_terminal,
)
from .geometry import (
    Polytope,
    PointCloudHull2D,
    hull_2d,
    is_subset,
    max_robust_invariant,
    pre_set,
    remove_redundant,
    support,
)
from .prediction import FeedbackGainStack, StackedDynamics, build_stacked, policy_input
from .system import (
    NetAdditiveBound,
    ProblemDefinition,
    UncertainSystem,
    UncertaintyRealization,
    default_problem_path,
    load_problem,
    net_additive_bound,
    sample_realization,
)

__version__ = "0.1.0"
