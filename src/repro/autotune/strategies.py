"""Search strategies: how a tuner walks its search space.

Every strategy drives the same evaluation interface — it proposes batches
of candidate points and the :class:`~repro.autotune.tuner.Tuner` evaluates
them (in parallel, against the point cache, within the budget) — so
strategies stay pure search logic:

* :class:`GridSearch` — exhaust the whole space, product order;
* :class:`RandomSearch` — seeded uniform sampling without replacement;
* :class:`HillClimb` — coordinate-descent: sweep one domain at a time from
  the base scenario's own settings, move to the best rung, repeat until a
  full pass stops improving;
* :class:`SuccessiveHalving` — sample wide, evaluate at a coarse
  ``--scale`` fidelity (fewer nodes), keep the top ``1/eta``, and re-rank
  at successively finer fidelities until the survivors run at full scale;
* :class:`Anneal` — a Metropolis walk over single-field mutations with
  geometric cooling and re-heats.

All randomness flows through :func:`repro.utils.rng.derive_seed`
substreams, so a tuning trace is a pure function of ``(target, strategy,
seed, budget)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.autotune.space import AutotuneError, canonical_point, chunked
from repro.utils.rng import derive_seed, seeded_rng
from repro.utils.validation import did_you_mean_hint, require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autotune.tuner import TunerRun

#: Batch size for strategies that could otherwise propose unbounded batches;
#: keeps the parallel fan-out's memory footprint flat on huge grids.
_BATCH = 64


class Strategy:
    """Base class: a named search procedure over a :class:`TunerRun`."""

    #: Registry key (subclasses override).
    name = "strategy"

    def search(self, run: "TunerRun") -> None:
        """Drive ``run.evaluate`` until the budget is spent or search ends."""
        raise NotImplementedError

    def _sample_distinct(self, run: "TunerRun", count: int) -> list[dict]:
        """Up to ``count`` distinct points, seeded off the run's substream."""
        rng = seeded_rng(derive_seed(run.seed, "sample", self.name))
        points: list[dict] = []
        seen: set[str] = set()
        attempts = 0
        limit = max(50, 50 * count)
        while len(points) < count and attempts < limit:
            attempts += 1
            point = run.space.sample(rng)
            key = canonical_point(point)
            if key in seen:
                continue
            seen.add(key)
            points.append(point)
        return points


class GridSearch(Strategy):
    """Exhaustive evaluation of every grid point (budget permitting)."""

    name = "grid"

    def search(self, run: "TunerRun") -> None:
        batch: list[dict] = []
        for point in run.space.grid():
            if run.remaining() <= 0:
                break
            batch.append(point)
            if len(batch) >= _BATCH:
                run.evaluate(batch)
                batch = []
        if batch and run.remaining() > 0:
            run.evaluate(batch)


class RandomSearch(Strategy):
    """Uniform sampling without replacement, one batch per budget."""

    name = "random"

    def search(self, run: "TunerRun") -> None:
        points = self._sample_distinct(run, run.remaining())
        for batch in chunked(points, _BATCH):
            if run.remaining() <= 0:
                break
            run.evaluate(batch)


class HillClimb(Strategy):
    """Coordinate descent from the base scenario's own settings.

    Each pass sweeps the domains in declaration order; for every domain the
    full value ladder is evaluated with the other fields held at the
    current point, and the current point moves to the best rung.  The climb
    stops when a complete pass yields no strict improvement (or the budget
    runs out).  Re-probing the current point is free — the run memoises
    within-run repeats — so passes cost ``sum(len(domain) - 1)`` fresh
    evaluations.
    """

    name = "hill-climb"

    def search(self, run: "TunerRun") -> None:
        current = run.start_point()
        current_value = run.evaluate([current])[0]
        improved = True
        while improved and run.remaining() > 0:
            improved = False
            for domain in run.space.domains:
                if run.remaining() <= 0:
                    break
                candidates = [
                    {**current, **fragment} for fragment in domain.fragments()
                ]
                values = run.evaluate(candidates)
                for candidate, value in zip(candidates, values):
                    if value is None:
                        continue
                    if run.objective.better(value, current_value):
                        if canonical_point(candidate) != canonical_point(current):
                            improved = True
                        current, current_value = candidate, value


class SuccessiveHalving(Strategy):
    """Multi-fidelity racing over ``--scale`` rungs.

    Args:
        eta: survivor fraction between rungs (keep the top ``1/eta``).
        fidelities: node-count divisors relative to the target scale,
            coarsest first; the last rung must be ``1.0`` (full fidelity)
            so the winner's value is comparable to the other strategies.
    """

    name = "halving"

    def __init__(
        self, *, eta: int = 2, fidelities: tuple[float, ...] = (8.0, 4.0, 2.0, 1.0)
    ) -> None:
        require(eta >= 2, f"eta must be >= 2, got {eta}")
        require(len(fidelities) >= 2, "halving needs at least two fidelity rungs")
        require(
            fidelities[-1] == 1.0,
            f"the last fidelity rung must be 1.0, got {fidelities[-1]}",
        )
        require(
            all(a > b for a, b in zip(fidelities, fidelities[1:])),
            f"fidelities must strictly decrease, got {fidelities}",
        )
        self.eta = int(eta)
        self.fidelities = tuple(float(f) for f in fidelities)

    @staticmethod
    def _rung_sizes(initial: int, rungs: int, eta: int) -> list[int]:
        sizes = [initial]
        for _ in range(rungs - 1):
            sizes.append(max(1, sizes[-1] // eta))
        return sizes

    def plan(self, budget: int) -> tuple[tuple[float, ...], int]:
        """``(fidelity rungs, initial cohort size)`` fitting a budget.

        When the budget cannot carry even one candidate through every
        configured rung, the *coarsest* rungs are dropped (the race still
        ends at fidelity 1.0, so a best full-fidelity point always exists);
        otherwise the cohort is the widest whose full race fits.
        """
        fidelities = self.fidelities
        if budget < len(fidelities):
            fidelities = fidelities[-max(1, budget):]
        count = 1
        while (
            sum(self._rung_sizes(count + 1, len(fidelities), self.eta)) <= budget
        ):
            count += 1
        return fidelities, count

    def search(self, run: "TunerRun") -> None:
        fidelities, initial = self.plan(run.remaining())
        cohort = self._sample_distinct(run, initial)
        for rung, fidelity in enumerate(fidelities):
            if not cohort or run.remaining() <= 0:
                break
            values = run.evaluate(cohort, fidelity=fidelity)
            if rung == len(fidelities) - 1:
                break
            ranked = sorted(
                (
                    (value, index)
                    for index, value in enumerate(values)
                    if value is not None
                ),
                key=lambda pair: pair[0],
                reverse=run.objective.direction == "max",
            )
            survivors = max(1, len(cohort) // self.eta)
            cohort = [cohort[index] for _, index in ranked[:survivors]]


class Anneal(Strategy):
    """Simulated annealing over single-field mutations.

    A Metropolis walk starting from the base scenario's own settings: each
    step mutates one randomly chosen domain to a different rung, accepts
    improvements outright and worsenings with probability
    ``exp(-relative_worsening / temperature)`` under a geometric cooling
    schedule sized to the remaining budget.  With ``restarts`` the walk
    re-heats (but keeps its current position), trading exploitation for a
    chance to leave a basin.  All randomness flows through the run's
    ``derive_seed`` substream, so traces are reproducible.

    Args:
        initial_temp: starting temperature in *relative objective* units
            (0.1 accepts a 10% worsening with probability ``1/e``).
        cooling_target: final temperature as a fraction of ``initial_temp``.
        restarts: number of re-heats across the budget.
    """

    name = "anneal"

    def __init__(
        self,
        *,
        initial_temp: float = 0.1,
        cooling_target: float = 1e-2,
        restarts: int = 2,
    ) -> None:
        require(initial_temp > 0, f"initial_temp must be > 0, got {initial_temp}")
        require(
            0 < cooling_target < 1,
            f"cooling_target must be in (0, 1), got {cooling_target}",
        )
        require(restarts >= 1, f"restarts must be >= 1, got {restarts}")
        self.initial_temp = float(initial_temp)
        self.cooling_target = float(cooling_target)
        self.restarts = int(restarts)

    def _neighbour(self, rng, run: "TunerRun", current: dict) -> dict:
        domains = [d for d in run.space.domains if len(d.fragments()) > 1]
        if not domains:
            return dict(current)
        domain = domains[int(rng.integers(0, len(domains)))]
        fragments = [
            fragment
            for fragment in domain.fragments()
            if any(current.get(key) != value for key, value in fragment.items())
        ]
        if not fragments:
            return dict(current)
        fragment = fragments[int(rng.integers(0, len(fragments)))]
        return {**current, **fragment}

    def _relative_worsening(self, run: "TunerRun", value: float, current: float) -> float:
        delta = value - current
        if run.objective.direction == "max":
            delta = -delta
        scale = max(abs(current), 1e-30)
        return delta / scale

    def search(self, run: "TunerRun") -> None:
        import math

        rng = seeded_rng(derive_seed(run.seed, "anneal"))
        current = run.start_point()
        current_value = run.evaluate([current])[0]
        budget = run.remaining()
        if budget <= 0:
            return
        steps_per_restart = max(1, budget // self.restarts)
        decay = self.cooling_target ** (1.0 / steps_per_restart)
        # Memoised repeats are free, so an exhausted neighbourhood could
        # spin forever without this proposal cap.
        proposals = 0
        proposal_cap = 50 * max(1, budget)
        for _restart in range(self.restarts):
            temperature = self.initial_temp
            for _step in range(steps_per_restart):
                if run.remaining() <= 0 or proposals >= proposal_cap:
                    return
                proposals += 1
                temperature *= decay
                candidate = self._neighbour(rng, run, current)
                if canonical_point(candidate) == canonical_point(current):
                    continue
                value = run.evaluate([candidate])[0]
                if value is None:
                    continue
                if current_value is None or run.objective.better(value, current_value):
                    current, current_value = candidate, value
                    continue
                worsening = self._relative_worsening(run, value, current_value)
                if rng.random() < math.exp(-worsening / temperature):
                    current, current_value = candidate, value


#: Registered strategies, by name (fresh instances per call — halving is
#: stateful in construction only, not across runs).
_STRATEGIES = {
    GridSearch.name: GridSearch,
    RandomSearch.name: RandomSearch,
    HillClimb.name: HillClimb,
    SuccessiveHalving.name: SuccessiveHalving,
    Anneal.name: Anneal,
}


def strategy_names() -> list[str]:
    """All registered strategy names."""
    return list(_STRATEGIES)


def get_strategy(name: str) -> Strategy:
    """Instantiate a registered strategy (did-you-mean hint on unknown names)."""
    if name in _STRATEGIES:
        return _STRATEGIES[name]()
    hint = did_you_mean_hint(name, _STRATEGIES)
    raise AutotuneError(
        f"unknown strategy {name!r} (known: {', '.join(_STRATEGIES)}){hint}"
    )
