"""Tests for unit conversions and size parsing."""

import pytest

from repro.utils import units


class TestConstants:
    def test_binary_multiples(self):
        assert units.KIB == 1024
        assert units.MIB == 1024**2
        assert units.GIB == 1024**3

    def test_decimal_multiples(self):
        assert units.KB == 1000
        assert units.MB == 10**6
        assert units.GB == 10**9


class TestBandwidthHelpers:
    def test_gbps(self):
        assert units.gbps(1.8) == pytest.approx(1.8e9)

    def test_bytes_to_mb(self):
        assert units.bytes_to_mb(2_000_000) == pytest.approx(2.0)


class TestFormatting:
    def test_format_bandwidth_gbps(self):
        assert units.format_bandwidth(1.8e9) == "1.80 GBps"

    def test_format_bandwidth_mbps(self):
        assert units.format_bandwidth(2.5e8) == "250.00 MBps"
