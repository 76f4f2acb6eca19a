"""Tests for the sparse in-memory file store, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.file import SimFile, SimFileRegistry


class TestSimFileBasics:
    def test_empty_file(self):
        f = SimFile()
        assert f.size == 0
        assert f.read(0, 4) == b"\x00\x00\x00\x00"

    def test_write_then_read(self):
        f = SimFile()
        f.write(10, b"hello")
        assert f.size == 15
        assert f.read(10, 5) == b"hello"

    def test_holes_read_as_zeros(self):
        f = SimFile()
        f.write(100, b"x")
        assert f.read(0, 3) == b"\x00\x00\x00"
        assert f.read(98, 4) == b"\x00\x00x\x00"

    def test_overwrite(self):
        f = SimFile()
        f.write(0, b"aaaa")
        f.write(2, b"bb")
        assert f.read(0, 4) == b"aabb"

    def test_write_spanning_chunks(self):
        f = SimFile()
        offset = SimFile.CHUNK_SIZE - 3
        f.write(offset, b"abcdef")
        assert f.read(offset, 6) == b"abcdef"

    def test_write_numpy_array(self):
        f = SimFile()
        data = np.arange(10, dtype=np.uint8)
        f.write(5, data)
        assert f.read(5, 10) == data.tobytes()

    def test_zero_byte_write_counts(self):
        f = SimFile()
        assert f.write(0, b"") == 0
        assert f.write_count == 1
        assert f.size == 0

    def test_negative_offset_rejected(self):
        f = SimFile()
        with pytest.raises(ValueError):
            f.write(-1, b"a")
        with pytest.raises(ValueError):
            f.read(-1, 2)

    def test_counters(self):
        f = SimFile()
        f.write(0, b"abcd")
        f.read(0, 2)
        assert f.bytes_written == 4
        assert f.bytes_read == 2
        assert f.write_count == 1
        assert f.read_count == 1


class TestRegistry:
    def test_open_creates(self):
        registry = SimFileRegistry()
        f = registry.open("/out/a.dat")
        assert registry.open("/out/a.dat", create=False) is f
        assert registry.open("/out/a.dat") is f

    def test_open_missing_without_create(self):
        registry = SimFileRegistry()
        with pytest.raises(FileNotFoundError):
            registry.open("/nope", create=False)

    def test_total_bytes(self):
        registry = SimFileRegistry()
        registry.open("/b").write(0, b"1234")
        registry.open("/a").write(0, b"12")
        assert registry.total_bytes() == 6


class TestSimFileProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4_000_000),
                st.binary(min_size=0, max_size=2048),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_matches_reference_bytearray(self, writes):
        """The sparse chunked store behaves exactly like one big bytearray."""
        f = SimFile()
        reference = bytearray()
        for offset, data in writes:
            f.write(offset, data)
            if not data:
                continue  # zero-byte writes do not extend the file (POSIX)
            if offset + len(data) > len(reference):
                reference.extend(b"\x00" * (offset + len(data) - len(reference)))
            reference[offset : offset + len(data)] = data
        assert f.size == len(reference)
        assert f.as_bytes() == bytes(reference)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3 * SimFile.CHUNK_SIZE),
        st.binary(min_size=1, max_size=4096),
    )
    def test_read_back_what_was_written(self, offset, data):
        f = SimFile()
        f.write(offset, data)
        assert f.read(offset, len(data)) == data
