"""Optimal aggregator placement: exact search and optimality certificates.

The paper elects each partition's aggregator independently (a greedy argmin
of the C1+C2 objective, Section IV-B).  Under the paper's separable
objective that greedy election *is* globally optimal, so this package scores
placements under a coupled extension of the objective: aggregators elected
onto the same compute node share that node's injection link, so every
bandwidth-derived term of a partition's cost is multiplied by the number of
aggregators co-located on the chosen node (the same "sharing factor >= 1"
vocabulary as :class:`repro.core.cost_model.ContentionFactors`).  With no
co-location the coupled objective equals the sum of the paper's TopoAware
values, and the greedy placement is provably optimal.

Two solvers operate on a :class:`~repro.placement_opt.problem.PlacementProblem`:

* :func:`~repro.placement_opt.problem.greedy_choice` — the paper's election;
* :func:`~repro.placement_opt.exact.branch_and_bound` — exact search over
  the connected components of the partition–candidate-node graph, with
  admissible lower bounds and symmetry breaking, warm-started from greedy.

:mod:`~repro.placement_opt.certify` turns a scenario into an
:class:`~repro.placement_opt.certify.OptimalityCertificate` (the
``optimality_gap`` carried by experiment artifacts when
``placement.certify`` is on).
"""

from repro.placement_opt.certify import (
    OptimalityCertificate,
    certify_problem,
    certify_scenario,
    maybe_certify_result,
    problem_for_scenario,
)
from repro.placement_opt.exact import ExactSolution, branch_and_bound
from repro.placement_opt.problem import (
    CandidateCost,
    PartitionCandidates,
    PlacementProblem,
    assignment_cost,
    greedy_choice,
)

__all__ = [
    "CandidateCost",
    "ExactSolution",
    "OptimalityCertificate",
    "PartitionCandidates",
    "PlacementProblem",
    "assignment_cost",
    "branch_and_bound",
    "certify_problem",
    "certify_scenario",
    "greedy_choice",
    "maybe_certify_result",
    "problem_for_scenario",
]
