"""Backend-neutral inference plans: the IR between models and executors.

The package splits *what a GNN computes* from *what it costs on a platform*:

* :mod:`repro.plan.ir` — the typed phase ops (:class:`WeightingOp`,
  :class:`AggregationOp`, :class:`AttentionOp`, :class:`DenseMatmulOp`,
  :class:`SampleOp`, :class:`PreprocessOp`) and the :class:`InferencePlan`
  container they form,
* :mod:`repro.plan.lowering` — the family → plan lowering registry (the
  rules themselves live in :mod:`repro.models.lowering`),
* :mod:`repro.plan.executor` — the :class:`Executor` protocol and the
  backend registry (GNNIE plus the baseline platforms register here).

Plans handed to any registered executor are structurally verified first by
:mod:`repro.check.verifier` (memoized per plan content) — see the "Static
analysis" section of the README for the rules.

Adding a sixth GNN family means registering one lowering rule; adding a new
cost model means registering one executor.  Neither requires touching the
simulation engine.
"""

from repro.plan.executor import (
    Executor,
    executor,
    executor_names,
    register_executor,
)
from repro.plan.ir import (
    FULL_ADJACENCY,
    HIDDEN_DENSITY,
    AdjacencyRef,
    AggregationOp,
    AttentionOp,
    DenseMatmulOp,
    HaloExchangeOp,
    InferencePlan,
    PhaseOp,
    PlanLayer,
    PreprocessOp,
    SampleOp,
    WeightingOp,
)
from repro.plan.lowering import (
    lower,
    lower_model,
    lowering_families,
    lowering_rule,
    register_lowering,
)

__all__ = [
    "AdjacencyRef",
    "FULL_ADJACENCY",
    "HIDDEN_DENSITY",
    "WeightingOp",
    "AttentionOp",
    "AggregationOp",
    "DenseMatmulOp",
    "HaloExchangeOp",
    "SampleOp",
    "PreprocessOp",
    "PhaseOp",
    "PlanLayer",
    "InferencePlan",
    "register_lowering",
    "lowering_rule",
    "lowering_families",
    "lower",
    "lower_model",
    "Executor",
    "register_executor",
    "executor",
    "executor_names",
]
