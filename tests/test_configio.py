"""Tests for configuration serialization."""

import io

import pytest

from repro.macrochip.config import MacrochipConfig, scaled_config
from repro.macrochip.configio import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.photonics.layout import MacrochipLayout


def test_default_config_serializes_empty():
    assert config_to_dict(scaled_config()) == {}


def test_overrides_only_in_doc():
    cfg = scaled_config().with_overrides(cores_per_site=4,
                                         memory_latency_cycles=100)
    doc = config_to_dict(cfg)
    assert doc == {"cores_per_site": 4, "memory_latency_cycles": 100}


def test_layout_and_technology_sections():
    cfg = MacrochipConfig(
        layout=MacrochipLayout(rows=4, cols=4),
        tech=scaled_config().tech.with_overrides(switch_loss_db=0.5))
    doc = config_to_dict(cfg)
    assert doc["layout"] == {"rows": 4, "cols": 4}
    assert doc["technology"] == {"switch_loss_db": 0.5}


def test_roundtrip():
    cfg = MacrochipConfig(
        layout=MacrochipLayout(rows=4, cols=8, site_pitch_cm=1.5),
        cores_per_site=16, mshrs_per_site=4,
        tech=scaled_config().tech.with_overrides(modulator_loss_db=3.0))
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_full_dump_contains_everything():
    doc = config_to_dict(scaled_config(), full=True)
    assert doc["cores_per_site"] == 8
    assert doc["layout"]["rows"] == 8
    assert doc["technology"]["bit_rate_gbps"] == 20.0


def test_unknown_keys_rejected():
    with pytest.raises(ValueError):
        config_from_dict({"warp_factor": 9})


def test_file_roundtrip(tmp_path):
    cfg = scaled_config().with_overrides(l2_cache_kb=512)
    path = str(tmp_path / "config.json")
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_stream_roundtrip():
    cfg = scaled_config().with_overrides(clock_ghz=4.0)
    buf = io.StringIO()
    save_config(cfg, buf)
    buf.seek(0)
    assert load_config(buf).clock_ghz == 4.0


def test_load_rejects_non_positive_mshr_budget():
    with pytest.raises(ValueError, match="mshrs_per_site"):
        load_config(io.StringIO('{"mshrs_per_site": 0}'))
