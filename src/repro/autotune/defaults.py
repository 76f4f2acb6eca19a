"""Default search spaces: what ``repro tune`` evaluates when you don't say.

Custom spaces are a library feature (build a
:class:`~repro.autotune.space.SearchSpace` and hand it to
:func:`~repro.autotune.tuner.tune`); the CLI needs something sensible out
of the box.  :func:`suggest_space` derives a space from the target scenario
itself — which I/O path it uses, which aggregator knob it sets, what its
storage looks like — and :func:`as_tunable` first rewrites the preset
``mpiio-baseline``/``mpiio-tuned`` strategies into their explicit field
form (via :mod:`repro.iolib.tuning`, so the two stay in lock-step), because
a preset's fields are fixed by definition and there would be nothing to
tune.
"""

from __future__ import annotations

from repro.autotune.space import (
    AutotuneError,
    Categorical,
    Domain,
    Linked,
    LogBytes,
    SearchSpace,
    linked,
)
from repro.iolib.tuning import baseline_hints, optimized_hints
from repro.scenario.simulation import resolve_machine
from repro.scenario.spec import ALLOCATION_POLICIES, Scenario
from repro.utils.units import MIB

#: Lustre stripe counts a Theta user would plausibly try: the power-of-two
#: ladder the paper's Section V-B tuning study walks, plus its chosen 48.
#: (56 — every OST of the file system — is deliberately absent: production
#: guidance keeps a margin of OSTs free for other tenants, which is exactly
#: why the paper settled on 48.)
THETA_STRIPE_COUNTS = (1, 4, 8, 16, 48)

#: Stripe/buffer sizes (bytes) searched on Lustre: 1 MiB (the system
#: default) through 16 MiB (the paper's HACC configuration).
LUSTRE_STRIPE_SIZES = tuple(size * MIB for size in (1, 2, 4, 8, 16))

#: Aggregators-per-OST ladder (the Cray MPI convention; the paper uses 2
#: per OST per 512 nodes).
AGGREGATORS_PER_OST = (1, 2, 3, 4)


def matched_stripe_domain() -> Linked:
    """Stripe size and aggregation buffer size advanced in lockstep.

    Table I shows the 1:1 buffer:stripe ratio to be optimal, so the default
    space searches the matched pair as one axis instead of evaluating
    dominated ratios.
    """
    return linked(
        LogBytes("storage.stripe_size", LUSTRE_STRIPE_SIZES[0], LUSTRE_STRIPE_SIZES[-1]),
        LogBytes("io.buffer_size", LUSTRE_STRIPE_SIZES[0], LUSTRE_STRIPE_SIZES[-1]),
    )


def theta_mpiio_space() -> SearchSpace:
    """The MPI-IO tuning space of the paper's Theta study (Section V-B)."""
    return SearchSpace(
        Categorical("storage.stripe_count", THETA_STRIPE_COUNTS),
        matched_stripe_domain(),
        Categorical("io.aggregators_per_ost", AGGREGATORS_PER_OST),
        Categorical("io.shared_locks", (False, True)),
    )


def as_tunable(scenario: Scenario) -> Scenario:
    """Rewrite preset I/O strategies into their explicit, searchable form.

    ``mpiio-baseline``/``mpiio-tuned`` resolve to fixed per-platform hint
    bundles, so tuning them would be a no-op; this expands the preset into
    plain ``mpiio`` with the equivalent spec fields (and, on Lustre
    machines, an explicit ``lustre`` storage spec carrying the preset's
    striping), after which every knob is a real dotted path the search can
    move.  Non-preset scenarios pass through unchanged.
    """
    if scenario.multijob is not None or scenario.io.kind not in (
        "mpiio-baseline",
        "mpiio-tuned",
    ):
        return scenario
    machine = resolve_machine(scenario.machine)
    hints = (
        baseline_hints(machine)
        if scenario.io.kind == "mpiio-baseline"
        else optimized_hints(machine)
    )
    overrides: dict[str, object] = {
        "io.kind": "mpiio",
        "io.shared_locks": bool(hints.shared_locks),
    }
    if hints.cb_buffer_size is not None:
        overrides["io.buffer_size"] = hints.cb_buffer_size
    if hints.aggregators_per_ost is not None:
        overrides["io.aggregators_per_ost"] = hints.aggregators_per_ost
    if scenario.machine.kind == "mira" and hints.cb_nodes is not None:
        num_psets = getattr(machine, "num_psets", None)
        if num_psets:
            overrides["io.aggregators_per_pset"] = max(1, hints.cb_nodes // num_psets)
    if hints.striping_factor is not None and scenario.storage.kind in (
        "machine-default",
        "lustre",
    ):
        overrides["storage.kind"] = "lustre"
        overrides["storage.stripe_count"] = hints.striping_factor
        if hints.striping_unit is not None:
            overrides["storage.stripe_size"] = hints.striping_unit
    return scenario.with_overrides(overrides)


def _ladder(current: int, *, floor: int = 1) -> tuple[int, ...]:
    """A small geometric ladder around a current integer setting."""
    values = sorted(
        {max(floor, current // 4), max(floor, current // 2), current, current * 2}
    )
    return tuple(values)


def _single_job_space(scenario: Scenario) -> SearchSpace:
    domains: list[Domain | Linked] = []
    io = scenario.io
    if io.kind == "tapioca":
        domains.append(LogBytes("io.buffer_size", 2 * MIB, 32 * MIB))
        domains.append(Categorical("io.pipeline_depth", (1, 2)))
        domains.append(Categorical("io.shared_locks", (False, True)))
        if io.num_aggregators is not None:
            domains.append(
                Categorical("io.num_aggregators", _ladder(io.num_aggregators))
            )
        elif io.aggregators_per_pset is not None:
            domains.append(
                Categorical(
                    "io.aggregators_per_pset", _ladder(io.aggregators_per_pset)
                )
            )
        elif io.aggregators_per_ost is not None:
            domains.append(
                Categorical("io.aggregators_per_ost", AGGREGATORS_PER_OST)
            )
        return SearchSpace(*domains)
    # Plain MPI I/O (presets were expanded by as_tunable before this).
    if scenario.storage.kind == "lustre" or scenario.machine.kind == "theta":
        return theta_mpiio_space()
    if scenario.machine.kind == "mira":
        return SearchSpace(
            Categorical("io.aggregators_per_pset", (4, 8, 16, 32)),
            LogBytes("io.buffer_size", 4 * MIB, 32 * MIB),
            Categorical("io.shared_locks", (False, True)),
        )
    return SearchSpace(
        LogBytes("io.buffer_size", 2 * MIB, 32 * MIB),
        Categorical("io.shared_locks", (False, True)),
        Categorical("io.collective_buffering", (False, True)),
    )


def _multijob_space(scenario: Scenario) -> SearchSpace:
    domains: list[Domain | Linked] = [
        Categorical("multijob.allocation_policy", ALLOCATION_POLICIES)
    ]
    for index, job in enumerate(scenario.multijob.jobs):
        if job.storage.kind == "lustre":
            width = job.storage.stripe_count
            domains.append(
                Categorical(
                    f"multijob.jobs.{index}.storage.ost_start",
                    tuple(width * step for step in range(4)),
                )
            )
    return SearchSpace(*domains)


def suggest_space(scenario: Scenario) -> SearchSpace:
    """A sensible default search space for a scenario.

    Multi-job scenarios search the allocation policy and each Lustre job's
    OST anchor (the interference knobs); single-job TAPIOCA scenarios
    search the aggregation knobs; single-job MPI-IO scenarios search the
    paper's Section V-B tuning parameters.

    Raises:
        AutotuneError: when no tunable field can be derived (should not
            happen for scenarios built by this package).
    """
    try:
        if scenario.multijob is not None:
            return _multijob_space(scenario)
        return _single_job_space(scenario)
    except ValueError as error:
        raise AutotuneError(
            f"cannot derive a default search space for scenario "
            f"{scenario.id!r}: {error}"
        ) from error
