"""Tests for the macrochip configuration."""

import pytest

from repro.macrochip.config import (
    MacrochipConfig,
    full_2015_config,
    scaled_config,
    small_test_config,
    table4_rows,
)


class TestScaledConfig:
    """Table 4 values."""

    def test_site_and_core_counts(self, paper_config):
        assert paper_config.num_sites == 64
        assert paper_config.cores_per_site == 8
        assert paper_config.num_cores == 512

    def test_bandwidths(self, paper_config):
        assert paper_config.site_bandwidth_gb_per_s == pytest.approx(320.0)
        assert paper_config.total_bandwidth_tb_per_s == pytest.approx(20.48)

    def test_cache_size(self, paper_config):
        assert paper_config.l2_cache_kb == 256

    def test_clock(self, paper_config):
        assert paper_config.cycle_ps == 200  # 5 GHz

    def test_message_sizes(self, paper_config):
        assert paper_config.control_message_bytes == 8
        assert paper_config.data_message_bytes == 72  # 64 B line + header

    def test_wavelength_rate(self, paper_config):
        assert paper_config.wavelength_gb_per_s == 2.5

    def test_latency_helpers(self, paper_config):
        assert paper_config.loopback_latency_ps == 200
        assert paper_config.directory_latency_ps == 2000
        assert paper_config.memory_latency_ps == 10000


def test_full_2015_config_scales_8x():
    full = full_2015_config()
    scaled = scaled_config()
    assert full.cores_per_site == 8 * scaled.cores_per_site
    assert full.transmitters_per_site == 8 * scaled.transmitters_per_site
    # 2.56 TB/s per site, 160 TB/s aggregate (section 3)
    assert full.site_bandwidth_gb_per_s == pytest.approx(2560.0)
    assert full.total_bandwidth_tb_per_s == pytest.approx(163.84)


def test_small_test_config():
    cfg = small_test_config(4, 4)
    assert cfg.num_sites == 16
    assert cfg.num_cores == 128


def test_with_overrides_is_functional():
    cfg = scaled_config()
    other = cfg.with_overrides(cores_per_site=4)
    assert other.cores_per_site == 4
    assert cfg.cores_per_site == 8


def test_table4_rows_match_paper():
    rows = dict(table4_rows())
    assert rows["Number of sites"] == "64"
    assert rows["Shared L2 Cache per site"] == "256 KB"
    assert rows["Bandwidth per site"] == "320 GB/sec"
    assert rows["Total peak bandwidth"] == "20 TB/sec"
    assert rows["Cores per site"] == "8"
    assert rows["Threads per core"] == "1"


def test_grid_config_holds_per_site_resources_at_table4():
    from repro.macrochip.config import grid_config, scaled_config

    assert grid_config(8) == scaled_config()
    big = grid_config(16)
    assert big.num_sites == 256
    assert big.transmitters_per_site == 128
    assert big.site_bandwidth_gb_per_s == scaled_config().site_bandwidth_gb_per_s
    rect = grid_config(4, 8)
    assert (rect.layout.rows, rect.layout.cols) == (4, 8)


@pytest.mark.parametrize("mshrs", [0, -1])
def test_non_positive_mshr_budget_is_rejected(mshrs):
    # zero MSHRs would stall every replayed op forever; a negative budget
    # would skip the stall check and leave MSHRs unbounded
    with pytest.raises(ValueError, match="mshrs_per_site"):
        MacrochipConfig(mshrs_per_site=mshrs)
    with pytest.raises(ValueError, match="mshrs_per_site"):
        small_test_config(2, 2).with_overrides(mshrs_per_site=mshrs)
    assert MacrochipConfig(mshrs_per_site=1).mshrs_per_site == 1
