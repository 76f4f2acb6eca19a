"""Search spaces over scenario fields.

A :class:`SearchSpace` is the tuning counterpart of a
:class:`~repro.scenario.sweep.Sweep`: where a sweep *enumerates* a figure's
grid, a search space *describes* the set of candidate points
:func:`~repro.autotune.tuner.tune` evaluates.  Each :class:`Domain` covers
one dotted spec field (``"storage.stripe_count"``, ``"io.buffer_size"``)
with an ordered, finite value ladder — integer ranges, log-scaled byte
sizes, categorical policies — and :func:`linked` ties several domains
together so they advance in lockstep (e.g. Table I's matched
buffer-size:stripe-size pair), exactly like :func:`~repro.scenario.sweep.zipped`
does for sweep axes.

Candidate points are plain override mappings applied through
:func:`~repro.scenario.spec.apply_overrides`, so every point inherits the
spec module's eager validation and did-you-mean errors: a typo'd field fails
at space construction, and a value combination the scenario tree rejects is
recorded as an invalid point instead of crashing the tune.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from repro.scenario.spec import Scenario, apply_overrides
from repro.scenario.sweep import Axis, Sweep, ZippedAxes
from repro.utils.validation import require


class AutotuneError(ValueError):
    """A search space or tuning request is invalid."""


# --------------------------------------------------------------------------- #
# Domains
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Domain:
    """One searched field: a dotted path and the ordered values it may take.

    Subclasses only differ in how the value ladder is built; the search
    machinery works uniformly on *fragments* — per-value override mappings —
    so a linked group of domains behaves exactly like a single domain.
    """

    field: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        require(bool(self.field), "domain field must be non-empty")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        require(len(self.values) > 0, f"domain {self.field!r} has no values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise AutotuneError(f"domain {self.field!r} has duplicate values")

    def fields(self) -> tuple[str, ...]:
        """The dotted paths this domain writes at every point."""
        return (self.field,)

    def fragments(self) -> tuple[dict[str, Any], ...]:
        """The domain as ordered single-point override mappings."""
        return tuple({self.field: value} for value in self.values)

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """One uniformly drawn fragment."""
        return self.fragments()[int(rng.integers(len(self.values)))]


class Categorical(Domain):
    """An explicit unordered choice set (policies, booleans, kinds)."""


class LogBytes(Domain):
    """Log-scaled byte sizes ``low, low*factor, ...`` up to ``high`` (inclusive)."""

    def __init__(
        self, field: str, low: int, high: int, *, factor: int = 2
    ) -> None:
        require(low > 0, f"low must be positive, got {low}")
        require(factor > 1, f"factor must be > 1, got {factor}")
        require(low <= high, f"empty byte range {low}..{high} for {field!r}")
        sizes = []
        size = int(low)
        while size <= high:
            sizes.append(size)
            size *= factor
        super().__init__(field, tuple(sizes))


@dataclass(frozen=True)
class Linked:
    """Several domains advanced in lockstep (equal lengths, like ``zipped``).

    The group participates in the search as one axis: its fragments merge
    the member domains' fragments position by position, so e.g. the
    aggregation buffer size can track the Lustre stripe size (the 1:1 ratio
    Table I shows to be optimal) instead of being searched independently.
    """

    domains: tuple[Domain, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.domains, tuple):
            object.__setattr__(self, "domains", tuple(self.domains))
        require(len(self.domains) >= 2, "linked() needs at least two domains")
        lengths = {len(domain.values) for domain in self.domains}
        if len(lengths) != 1:
            detail = ", ".join(
                f"{d.field}={len(d.values)}" for d in self.domains
            )
            raise AutotuneError(f"linked domains must have equal lengths ({detail})")
        seen: set[str] = set()
        for domain in self.domains:
            for name in domain.fields():
                if name in seen:
                    raise AutotuneError(f"linked domains repeat field {name!r}")
                seen.add(name)

    def fields(self) -> tuple[str, ...]:
        return tuple(
            name for domain in self.domains for name in domain.fields()
        )

    def fragments(self) -> tuple[dict[str, Any], ...]:
        merged = []
        for index in range(len(self.domains[0].values)):
            fragment: dict[str, Any] = {}
            for domain in self.domains:
                fragment.update(domain.fragments()[index])
            merged.append(fragment)
        return tuple(merged)

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        fragments = self.fragments()
        return fragments[int(rng.integers(len(fragments)))]



def linked(*domains: Domain) -> Linked:
    """Advance several domains in lockstep instead of taking their product."""
    return Linked(tuple(domains))


# --------------------------------------------------------------------------- #
# The search space
# --------------------------------------------------------------------------- #


class SearchSpace:
    """A finite product of domains over a base scenario.

    Args:
        *domains: :class:`Domain` / :class:`Linked` groups, outermost first
            (grid iteration varies the last one fastest, like a
            :class:`~repro.scenario.sweep.Sweep`).

    Raises:
        AutotuneError: when two domains write the same dotted field — the
            later one would silently clobber the earlier at every point.
    """

    def __init__(self, *domains: Domain | Linked) -> None:
        require(len(domains) > 0, "a search space needs at least one domain")
        self.domains: tuple[Domain | Linked, ...] = tuple(domains)
        seen: set[str] = set()
        for domain in self.domains:
            for name in domain.fields():
                if name in seen:
                    raise AutotuneError(
                        f"duplicate search domain for field {name!r}: each "
                        f"field may be searched by exactly one domain"
                    )
                seen.add(name)

    @classmethod
    def from_sweep(cls, sweep: Sweep, *extra: Domain | Linked) -> "SearchSpace":
        """A space searching a sweep's axes, plus optional extra domains.

        Plain axes become :class:`Categorical` domains; zipped axis groups
        become :func:`linked` groups, preserving their lockstep semantics.
        """
        domains: list[Domain | Linked] = []
        for entry in sweep.axes:
            if isinstance(entry, ZippedAxes):
                domains.append(
                    linked(*(Categorical(a.field, a.values) for a in entry.axes))
                )
            elif isinstance(entry, Axis):
                domains.append(Categorical(entry.field, entry.values))
            else:  # pragma: no cover - Sweep already rejects other types
                raise AutotuneError(f"cannot build a domain from {entry!r}")
        domains.extend(extra)
        return cls(*domains)

    # -- introspection ------------------------------------------------------

    def fields(self) -> tuple[str, ...]:
        """Every dotted field the space writes, in declaration order."""
        return tuple(
            name for domain in self.domains for name in domain.fields()
        )

    def size(self) -> int:
        """Number of grid points (product of the domain ladder lengths)."""
        total = 1
        for domain in self.domains:
            total *= len(domain.fragments())
        return total

    def describe(self) -> dict[str, list]:
        """JSON-friendly ``{field: values}`` summary for tuning traces."""
        description: dict[str, list] = {}
        for domain in self.domains:
            for name in domain.fields():
                description[name] = [
                    repr(fragment[name]) if _needs_repr(fragment[name]) else fragment[name]
                    for fragment in domain.fragments()
                ]
        return description

    # -- guards -------------------------------------------------------------

    def reject_overrides(self, overrides: Mapping[str, Any] | None) -> None:
        """Refuse user overrides of fields this space is about to search.

        The same contract as :meth:`Sweep.reject_overrides`: a ``--set`` of
        a searched field would be clobbered at every candidate point, so it
        either takes effect or errors — never silently disappears.
        """
        collisions = sorted(set(overrides or ()) & set(self.fields()))
        if collisions:
            raise AutotuneError(
                f"cannot override searched field(s) {', '.join(map(repr, collisions))}: "
                f"the tuner sets them at every candidate point"
            )

    def validate_on(self, base: Scenario) -> None:
        """Check every domain resolves against a base scenario.

        Applies one fragment per domain through the spec layer, so unknown
        field paths fail here — with the spec module's did-you-mean hint —
        instead of mid-search.
        """
        for domain in self.domains:
            apply_overrides(base, domain.fragments()[0])

    # -- candidate generation -----------------------------------------------

    def grid(self) -> Iterator[dict[str, Any]]:
        """Every candidate point, product order (last domain fastest)."""
        for combination in itertools.product(
            *(domain.fragments() for domain in self.domains)
        ):
            point: dict[str, Any] = {}
            for fragment in combination:
                point.update(fragment)
            yield point

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """One uniformly drawn candidate point (one fragment per domain)."""
        point: dict[str, Any] = {}
        for domain in self.domains:
            point.update(domain.sample(rng))
        return point

    def apply(self, base: Scenario, point: Mapping[str, Any]) -> Scenario:
        """``base`` with one candidate point applied (spec-layer validation).

        Raises:
            ScenarioError: when the point violates the scenario tree's eager
                validation — the caller records the point as invalid and the
                search moves on.
        """
        return apply_overrides(base, point)


def _needs_repr(value: Any) -> bool:
    """Whether a domain value needs ``repr`` to be JSON-serialisable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return False
    return True

