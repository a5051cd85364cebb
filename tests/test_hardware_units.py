"""Tests for unit conversion helpers."""

import pytest

from repro.hardware import units


def test_constants_are_decimal():
    assert units.KB == 1_000
    assert units.MB == 1_000_000
    assert units.GB == 1_000_000_000


def test_bytes_to_mb():
    assert units.bytes_to_mb(5 * units.MB) == pytest.approx(5.0)


def test_bytes_to_gb():
    assert units.bytes_to_gb(12 * units.GB) == pytest.approx(12.0)


def test_mb_per_second_to_bytes_per_ms():
    # 530 MB/s == 530,000 bytes per millisecond.
    assert units.mb_per_second_to_bytes_per_ms(530.0) == pytest.approx(530_000.0)


def test_round_trip_bandwidth_and_size():
    bandwidth = units.mb_per_second_to_bytes_per_ms(1000.0)
    transfer_ms = (178 * units.MB) / bandwidth
    assert transfer_ms == pytest.approx(178.0)
