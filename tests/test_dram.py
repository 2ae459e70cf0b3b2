"""Unit tests for the DRAM configuration the hardware models share."""

import pytest

from repro.hw.config import DramConfig


class TestDramConfig:
    def test_defaults(self):
        config = DramConfig()
        assert config.bandwidth_gbps == 51.2

    def test_with_bandwidth(self):
        assert DramConfig().with_bandwidth(204.8).bandwidth_gbps == 204.8

    def test_validation(self):
        with pytest.raises(ValueError):
            DramConfig(bandwidth_gbps=0)
        with pytest.raises(ValueError):
            DramConfig(efficiency=0.0)
        with pytest.raises(ValueError):
            DramConfig(efficiency=1.5)

