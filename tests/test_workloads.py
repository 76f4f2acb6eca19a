"""Tests for the IOR, HACC-IO and synthetic workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import DeclaredWorkload
from repro.utils.units import MIB
from repro.workloads.base import Segment, check_no_overlap
from repro.workloads.hacc import HACC_VARIABLES, HACCIOWorkload, hacc_particle_size
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload


class TestSegment:
    def test_end(self):
        segment = Segment(rank=0, offset=100, nbytes=50)
        assert segment.end == 150

    def test_validation(self):
        with pytest.raises(ValueError):
            Segment(rank=-1, offset=0, nbytes=1)
        with pytest.raises(ValueError):
            Segment(rank=0, offset=-1, nbytes=1)

    def test_numpy_integer_fields_become_python_ints(self):
        segment = Segment(
            rank=np.int64(1), offset=np.int64(8), nbytes=np.int32(4), call_index=np.int64(0)
        )
        for name in ("rank", "offset", "nbytes", "call_index"):
            assert type(getattr(segment, name)) is int
        with pytest.raises(TypeError):
            Segment(rank=0, offset=1.5, nbytes=1)

    def test_numpy_rank_yields_the_same_payload(self):
        workload = HACCIOWorkload(4, 10)
        from_numpy = workload.segments_for_rank(np.int64(1))[0]
        from_int = workload.segments_for_rank(1)[0]
        assert from_numpy == from_int
        assert workload.payload(from_numpy) == workload.payload(from_int)


@pytest.mark.parametrize(
    "workload",
    [
        HACCIOWorkload(12, 100, layout="aos"),
        HACCIOWorkload(12, 100, layout="soa"),
        IORWorkload(12, transfer_size=100, iterations=3),
        SyntheticWorkload(12, seed=4, max_segment_bytes=512),
        DeclaredWorkload([[(r, 4, 64 * r), (2, 8, 4096 + 16 * r)] for r in range(12)]),
    ],
    ids=lambda w: w.name,
)
def test_rank_bytes_array_equals_per_rank_scalar(workload):
    array = workload.rank_bytes()
    assert array.dtype == np.int64
    assert array.tolist() == [workload.bytes_per_rank(r) for r in range(workload.num_ranks)]


class TestIORWorkload:
    def test_single_iteration_layout(self):
        workload = IORWorkload(4, transfer_size=1000)
        for rank in range(4):
            segments = workload.segments_for_rank(rank)
            assert len(segments) == 1
            assert segments[0].offset == rank * 1000
            assert segments[0].nbytes == 1000
        assert workload.total_bytes() == 4000
        assert workload.file_size() == 4000

    def test_multiple_iterations_are_segmented(self):
        workload = IORWorkload(2, transfer_size=10, iterations=3)
        offsets = [s.offset for s in workload.segments_for_rank(1)]
        assert offsets == [10, 30, 50]
        assert workload.num_calls() == 3
        assert workload.bytes_per_rank() == 30

    def test_no_overlap(self):
        check_no_overlap(IORWorkload(8, transfer_size=4096, iterations=2))

    def test_payload_deterministic_and_distinct(self):
        workload = IORWorkload(4, transfer_size=256)
        seg0 = workload.segments_for_rank(0)[0]
        seg1 = workload.segments_for_rank(1)[0]
        assert workload.payload(seg0) == workload.payload(seg0)
        assert workload.payload(seg0) != workload.payload(seg1)
        assert len(workload.payload(seg0)) == 256

    def test_expected_file_image(self):
        workload = IORWorkload(3, transfer_size=64)
        image = workload.expected_file_image()
        assert len(image) == 3 * 64
        for rank in range(3):
            segment = workload.segments_for_rank(rank)[0]
            assert image[segment.offset : segment.end] == workload.payload(segment)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            IORWorkload(0)
        with pytest.raises(ValueError):
            IORWorkload(2, transfer_size=0)
        with pytest.raises(ValueError):
            IORWorkload(2, access="append")

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            IORWorkload(2).segments_for_rank(2)


class TestHACCWorkload:
    def test_particle_size_is_38_bytes(self):
        assert hacc_particle_size() == 38
        assert len(HACC_VARIABLES) == 9

    def test_25000_particles_is_about_1mb(self):
        # Paper: "A useful base value of 25,000 particles requires ~1 MB".
        assert 0.9 * MIB <= 25_000 * hacc_particle_size() <= 1.05 * MIB

    def test_aos_single_contiguous_segment(self):
        workload = HACCIOWorkload(4, 100, layout="aos")
        assert workload.num_calls() == 1
        for rank in range(4):
            segments = workload.segments_for_rank(rank)
            assert len(segments) == 1
            assert segments[0].nbytes == 100 * 38
            assert segments[0].offset == rank * 100 * 38

    def test_soa_nine_segments_per_rank(self):
        workload = HACCIOWorkload(4, 100, layout="soa")
        assert workload.num_calls() == 9
        segments = workload.segments_for_rank(2)
        assert len(segments) == 9
        assert [s.variable for s in segments] == [name for name, _ in HACC_VARIABLES]
        # Each variable's block is particles * variable size.
        assert [s.nbytes for s in segments] == [100 * size for _, size in HACC_VARIABLES]

    def test_soa_variable_regions_do_not_overlap(self):
        check_no_overlap(HACCIOWorkload(6, 37, layout="soa"))

    def test_aos_and_soa_total_bytes_match(self):
        aos = HACCIOWorkload(8, 500, layout="aos")
        soa = HACCIOWorkload(8, 500, layout="soa")
        assert aos.total_bytes() == soa.total_bytes() == 8 * 500 * 38

    def test_file_size_equals_total(self):
        workload = HACCIOWorkload(4, 123, layout="soa")
        assert workload.file_size() == workload.total_bytes()

    def test_segment_sizes_per_call(self):
        workload = HACCIOWorkload(4, 10, layout="soa")
        assert workload.segment_sizes_per_call() == [
            10 * size for _, size in HACC_VARIABLES
        ]

    def test_from_data_size(self):
        workload = HACCIOWorkload.from_data_size(4, 1_000_000)
        assert workload.bytes_per_rank() == pytest.approx(1_000_000, rel=0.01)

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            HACCIOWorkload(2, 10, layout="csr")


class TestSyntheticWorkload:
    def test_deterministic_for_seed(self):
        a = SyntheticWorkload(5, seed=11)
        b = SyntheticWorkload(5, seed=11)
        for rank in range(5):
            assert a.segments_for_rank(rank) == b.segments_for_rank(rank)

    def test_not_uniform(self):
        assert not SyntheticWorkload(3, seed=1).is_uniform()

    @settings(max_examples=30, deadline=None)
    @given(
        num_ranks=st.integers(min_value=1, max_value=12),
        calls=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        allow_empty=st.booleans(),
    )
    def test_never_overlaps_and_fits_file(self, num_ranks, calls, seed, allow_empty):
        workload = SyntheticWorkload(
            num_ranks, calls=calls, seed=seed, allow_empty=allow_empty
        )
        check_no_overlap(workload)
        assert workload.total_bytes() <= workload.file_size()
        for rank in range(num_ranks):
            for segment in workload.segments_for_rank(rank):
                assert segment.end <= workload.file_size()
                assert 0 <= segment.call_index < calls

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_expected_image_composes_payloads(self, seed):
        workload = SyntheticWorkload(4, calls=2, seed=seed, max_segment_bytes=128)
        image = workload.expected_file_image()
        for rank in range(4):
            for segment in workload.segments_for_rank(rank):
                assert image[segment.offset : segment.end] == workload.payload(segment)
