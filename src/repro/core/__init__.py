"""VIA relay selection: prediction-guided exploration (the paper's core).

The pipeline of Figure 10:

1. :mod:`repro.core.history` -- per (pair, option, window) performance
   aggregation from completed calls,
2. :mod:`repro.core.tomography` -- linear network tomography expanding
   coverage to unseen relay paths (Figure 11),
3. :mod:`repro.core.predictor` + :mod:`repro.core.topk` -- mean/SEM
   prediction with 95% confidence bounds and the dynamic top-k pruning of
   Algorithm 2,
4. :mod:`repro.core.bandit` -- the modified UCB1 exploration-exploitation
   of Algorithm 3, and
5. :mod:`repro.core.policy` -- Algorithm 1 tying it all together, with the
   budgeted relaying of §4.6.

:mod:`repro.core.baselines` provides the oracle and both strawmen of §4.2.
"""

from repro import _lazy_exports

#: Re-exports, by defining module; each resolves on first use.
_EXPORTS = {
    "keys": ("Granularity", "PairKeyer", "PairView"),
    "history": ("CallHistory", "RunningStat"),
    "tomography": ("TomographyModel",),
    "predictor": ("Prediction", "Predictor"),
    "topk": ("dynamic_top_k", "fixed_top_k"),
    "bandit": ("UCB1Explorer",),
    "budget": ("BudgetGate", "RelayLoadTracker"),
    "caching": ("CachedAssignmentPolicy",),
    "costs": ("CostModel", "MetricCost", "MosCost", "make_cost_model"),
    "policy": ("SelectionPolicy", "ViaConfig", "ViaPolicy", "make_policy"),
    "hybrid": ("HybridReactivePolicy", "ProbePlan", "blend_call_metrics"),
    "baselines": (
        "DefaultPolicy",
        "OraclePolicy",
        "make_via",
        "via_config",
        "make_strawman_prediction",
        "make_strawman_exploration",
    ),
    "multipath": (
        "PathSet",
        "MultipathPolicy",
        "MultipathBanditPolicy",
        "RandomPathSetPolicy",
        "combine_duplicate",
        "combine_split",
        "combined_metrics",
    ),
    "sharding": ("ShardedPolicy",),
    "registry": (
        "REGISTRY",
        "ConfigField",
        "PolicyEntry",
        "PolicyRegistry",
        "UnknownPolicyError",
        "build_policy",
        "policy_names",
        "register",
        "world_inter_relay",
    ),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
