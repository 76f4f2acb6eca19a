"""Scalar oracles for the aggregation phase.

:func:`repro.perfmodel.aggregation.fill_times` computes the fill time of
many aggregators as one array expression; :func:`round_fill_time` here is
the one-aggregator form, reading the aggregator's flow analysis, that it
must equal bit for bit.

:func:`repro.core.aggregation.build_schedule` cuts every partition's
declared data into rounds with array arithmetic; :func:`schedule_partition`
walks one partition's :class:`~repro.workloads.base.Segment` objects byte
range by byte range and builds one :class:`PutOp` per piece and one
:class:`FlushOp` per flush extent, which the array schedule must equal
exactly.  :func:`payload` is the per-segment ``Generator.integers`` draw
and :func:`pcg64_payload` the per-segment ``PCG64`` draw (a seeded
construction per segment) that
:meth:`repro.workloads.base.Workload.segment_payloads` must reproduce byte
for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.machine.machine import Machine
from repro.perfmodel.flows import FlowAnalysis
from repro.utils.rng import derive_seed
from repro.utils.validation import require_non_negative, require_positive


def round_fill_time(
    machine: Machine,
    flows: FlowAnalysis,
    ranks_per_node: int,
    aggregator_node: int,
    num_sender_nodes: int,
    round_bytes: float,
) -> float:
    """Time to fill one aggregation buffer of ``round_bytes`` bytes."""
    require_non_negative(round_bytes, "round_bytes")
    require_positive(num_sender_nodes, "num_sender_nodes")
    if round_bytes == 0:
        return 0.0
    local_fraction = 1.0 / num_sender_nodes
    local_fraction = min(max(local_fraction, 0.0), 1.0)
    topology = machine.topology
    contention = flows.aggregator_contention.get(aggregator_node, 1.0)
    incoming_bw = flows.aggregator_min_bandwidth.get(
        aggregator_node, topology.link_bandwidth("default")
    )
    effective_bw = incoming_bw / max(contention, 1.0)
    distance = flows.aggregator_distance.get(aggregator_node, 1.0)
    network_bytes = round_bytes * (1.0 - local_fraction)
    local_bytes = round_bytes * local_fraction
    memory_bw = machine.node_spec.main_memory.bandwidth
    per_message_overhead = 1.0e-6
    messages = max(1, num_sender_nodes - 1) * max(1, ranks_per_node)
    software = per_message_overhead * messages / max(1, num_sender_nodes)
    network_time = (
        topology.latency() * distance + network_bytes / effective_bw + software
    )
    local_time = local_bytes / memory_bw
    return max(network_time, local_time)


@dataclass(frozen=True)
class PutOp:
    """One piece of a rank's segment shipped to its aggregator in one round."""

    rank: int
    round_index: int
    segment: object
    segment_offset: int
    nbytes: int
    buffer_offset: int
    file_offset: int


@dataclass(frozen=True)
class FlushOp:
    """One contiguous file extent flushed by the aggregator at a round's end."""

    round_index: int
    file_offset: int
    nbytes: int
    buffer_offset: int


def schedule_partition(workload, partition, buffer_size: int):
    """``(puts, flushes_by_round)`` of one partition, puts in stream order."""
    segments = [
        segment
        for rank in partition.ranks.tolist()
        for segment in workload.segments_for_rank(rank)
        if segment.nbytes > 0
    ]
    if not segments:
        return [], []
    # Buffers fill in ascending file-offset order.
    segments.sort(key=lambda s: s.offset)
    total = sum(s.nbytes for s in segments)
    num_rounds = max(1, math.ceil(total / buffer_size))
    flushes_by_round: list[list[FlushOp]] = [[] for _ in range(num_rounds)]
    puts: list[PutOp] = []
    cursor = 0  # byte position within the partition's aggregate stream
    for segment in segments:
        consumed = 0
        while consumed < segment.nbytes:
            round_index, buffer_offset = divmod(cursor, buffer_size)
            take = min(segment.nbytes - consumed, buffer_size - buffer_offset)
            put = PutOp(
                rank=segment.rank,
                round_index=round_index,
                segment=segment,
                segment_offset=consumed,
                nbytes=take,
                buffer_offset=buffer_offset,
                file_offset=segment.offset + consumed,
            )
            puts.append(put)
            # Merge with the previous extent when both the file range and
            # the buffer range continue it.
            extents = flushes_by_round[round_index]
            if (
                extents
                and extents[-1].file_offset + extents[-1].nbytes == put.file_offset
                and extents[-1].buffer_offset + extents[-1].nbytes == buffer_offset
            ):
                last = extents[-1]
                extents[-1] = FlushOp(
                    round_index, last.file_offset, last.nbytes + take, last.buffer_offset
                )
            else:
                extents.append(FlushOp(round_index, put.file_offset, take, buffer_offset))
            consumed += take
            cursor += take
    return puts, flushes_by_round


def payload(workload, segment) -> bytes:
    """A segment's payload, drawn with ``Generator.integers``."""
    seed = derive_seed(
        workload.payload_seed, workload.name, segment.rank, segment.call_index, segment.offset
    )
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=segment.nbytes, dtype=np.uint8).tobytes()


def pcg64_payload(workload, segment) -> bytes:
    """A segment's payload, drawn from a ``PCG64`` seeded for it alone."""
    seed = derive_seed(
        workload.payload_seed, workload.name, segment.rank, segment.call_index, segment.offset
    )
    words = np.random.PCG64(seed).random_raw(-(-segment.nbytes // 8))
    return words.astype("<u8", copy=False).tobytes()[: segment.nbytes]
