"""Branch-and-bound exact solver for the aggregator-node assignment problem.

The coupled objective ``Σ lat + Σ_n count_n · tsum_n`` is a sum over nodes,
so partitions that share no candidate node never interact: the problem
splits into the connected components of the partition–candidate-node
graph, and each component is solved on its own.  A partition whose
candidate nodes no other partition can elect is a one-partition component,
optimal at its cheapest candidate.

Per component, a depth-first search over candidate positions with:

* **a root lower-bound shortcut** — every partition at its multiplicity-1
  minimum ``base_s``.  When the warm start meets it (no co-location), the
  component is proven optimal without any search.
* **admissible lower bounds** — a partial assignment's cost (under the
  coupled objective, maintained incrementally) plus the suffix sum of every
  unassigned partition's minimum ``base_s``.  Both pieces only ever grow as
  partitions are assigned (multiplicities never decrease and every
  partition's term is at least its multiplicity-1 minimum), so pruning on
  ``bound >= incumbent`` is safe.
* **symmetry breaking** — partitions with identical candidate signatures
  are interchangeable; the search forces them to pick non-decreasing
  candidate positions.

The search is warm-started from the greedy solution, so the returned cost
never exceeds the greedy cost.  A ``node_limit`` caps the search nodes
explored over all components together; a component the budget cannot
finish keeps its incumbent, contributes its root bound to
``lower_bound_s``, and leaves the solution ``proven_optimal=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs import recorder as obs_recorder, span as obs_span
from repro.placement_opt.problem import (
    PartitionCandidates,
    PlacementProblem,
    assignment_cost,
    greedy_choice,
)
from repro.utils.validation import require

#: Default cap on explored search nodes (over all components) before giving
#: up on a proof.
DEFAULT_NODE_LIMIT = 500_000

#: Relative slack when comparing solver costs (floating-point noise only).
COST_RTOL = 1e-12


@dataclass(frozen=True)
class ExactSolution:
    """Result of :func:`branch_and_bound`.

    Attributes:
        choice: candidate position per partition.
        cost_s: coupled-objective value of ``choice`` (seconds).
        lower_bound_s: proven lower bound on the optimum: per component, its
            optimum when proven and its root bound otherwise.
        proven_optimal: True when every component was proven optimal, so
            ``choice`` is a proven optimum.
        nodes_explored: number of candidate assignments tried.
        components: connected components of the partition–node graph.
    """

    choice: tuple[int, ...]
    cost_s: float
    lower_bound_s: float
    proven_optimal: bool
    nodes_explored: int
    components: int


def branch_and_bound(
    problem: PlacementProblem,
    *,
    warm_start: Sequence[int] | None = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ExactSolution:
    """Solve the assignment problem exactly (within ``node_limit``)."""
    require(node_limit > 0, "node_limit must be positive")
    choice = list(greedy_choice(problem) if warm_start is None else warm_start)
    groups = _components(problem.partitions)
    lower_bound = 0.0
    proven = True
    explored = 0
    with obs_span(
        "placement_opt.exact",
        cat="placement_opt",
        partitions=problem.num_partitions,
        components=len(groups),
    ):
        for members in groups:
            positions, bound, done, used = _search(
                [problem.partitions[i] for i in members],
                [choice[i] for i in members],
                node_limit - explored,
            )
            for i, position in zip(members, positions):
                choice[i] = position
            lower_bound += bound
            proven &= done
            explored += used

    rec = obs_recorder()
    if rec is not None:
        rec.inc("placement_opt.nodes_explored", explored)
    final = tuple(choice)
    cost = assignment_cost(problem, final)
    return ExactSolution(
        choice=final,
        cost_s=cost,
        # Summing per-component costs may differ from the whole-choice cost
        # by rounding; a bound above an achieved cost would be no bound.
        lower_bound_s=min(lower_bound, cost),
        proven_optimal=proven,
        nodes_explored=explored,
        components=len(groups),
    )


def _components(parts: Sequence[PartitionCandidates]) -> list[list[int]]:
    """Partition indices grouped by shared candidate nodes, in index order."""
    parent = list(range(len(parts)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for i, part in enumerate(parts):
        for candidate in part.candidates:
            parent[root(i)] = root(owner.setdefault(candidate.node, i))
    groups: dict[int, list[int]] = {}
    for i in range(len(parts)):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def _search(
    parts: list[PartitionCandidates], warm: list[int], budget: int
) -> tuple[list[int], float, bool, int]:
    """Depth-first search of one component within ``budget`` search nodes.

    Returns ``(choice, lower_bound_s, proven, nodes_explored)``; the lower
    bound is the component's optimum when proven and its root bound
    otherwise.
    """
    incumbent_cost = assignment_cost(PlacementProblem(parts), warm)
    # Root bound: every partition at its multiplicity-1 minimum.  Candidates
    # are sorted ascending, so that minimum is position 0.
    root_bound = sum(part.candidates[0].base_s for part in parts)
    if incumbent_cost <= root_bound * (1.0 + COST_RTOL):
        return warm, incumbent_cost, True, 0

    # Search order: most-constrained first, identical signatures adjacent so
    # symmetry breaking can chain predecessor positions.
    signatures = [part.signature() for part in parts]
    order = sorted(
        range(len(parts)),
        key=lambda i: (len(parts[i].candidates), signatures[i], i),
    )
    twin_of: list[int | None] = [None] * len(order)
    for k in range(1, len(order)):
        if signatures[order[k]] == signatures[order[k - 1]]:
            twin_of[k] = k - 1

    # suffix_min[k] = Σ over search slots k.. of their min base_s.
    suffix_min = [0.0] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        suffix_min[k] = suffix_min[k + 1] + parts[order[k]].candidates[0].base_s

    # The coupled cost is maintained incrementally: latency sum plus
    # Σ_n count[n] · tsum[n].
    counts: dict[int, int] = {}
    tsum: dict[int, float] = {}
    explored = 0
    exhausted = False
    improved = False
    chosen = [0] * len(order)
    best = list(chosen)

    def descend(k: int, cost: float) -> None:
        nonlocal incumbent_cost, explored, exhausted, improved
        if k == len(order):
            if cost < incumbent_cost:
                incumbent_cost = cost
                best[:] = chosen
                improved = True
            return
        part = parts[order[k]]
        start = chosen[twin_of[k]] if twin_of[k] is not None else 0
        for position in range(start, len(part.candidates)):
            if explored >= budget:
                exhausted = True
                return
            explored += 1
            candidate = part.candidates[position]
            count = counts.get(candidate.node, 0)
            node_tsum = tsum.get(candidate.node, 0.0)
            # Δ(count·tsum) of adding this aggregator to the node, plus its
            # latency: (c+1)(t+x) - c·t = t + (c+1)·x.
            child = (
                cost
                + candidate.latency_s
                + node_tsum
                + (count + 1) * candidate.transfer_s
            )
            if child + suffix_min[k + 1] >= incumbent_cost:
                continue
            counts[candidate.node] = count + 1
            tsum[candidate.node] = node_tsum + candidate.transfer_s
            chosen[k] = position
            descend(k + 1, child)
            counts[candidate.node] = count
            tsum[candidate.node] = node_tsum
            if exhausted:
                return

    descend(0, 0.0)

    choice = list(warm)
    if improved:
        for slot, position in zip(order, best):
            choice[slot] = position
    if exhausted:
        return choice, root_bound, False, explored
    return choice, incumbent_cost, True, explored
