"""Unit tests for configuration objects and packet geometry."""

import pytest

from repro import (
    CL_BUFFER,
    ConfigurationError,
    MeshSystemConfig,
    PacketType,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
    format_hierarchy,
    hierarchy_processors,
    mesh_packet_geometry,
    parse_hierarchy,
    ring_packet_geometry,
)


class TestPacketGeometry:
    @pytest.mark.parametrize(
        "cache_line,expected", [(16, 2), (32, 3), (64, 5), (128, 9)]
    )
    def test_ring_cl_packet_flits(self, cache_line, expected):
        """Paper Section 2.2: 1-flit headers on 128-bit channels."""
        assert ring_packet_geometry(cache_line).cl_packet_flits == expected

    @pytest.mark.parametrize(
        "cache_line,expected", [(16, 8), (32, 12), (64, 20), (128, 36)]
    )
    def test_mesh_cl_packet_flits(self, cache_line, expected):
        """Paper Section 2.2: 4-flit headers on 32-bit channels."""
        assert mesh_packet_geometry(cache_line).cl_packet_flits == expected

    def test_packet_type_sizes(self):
        geometry = ring_packet_geometry(64)
        assert geometry.size_of(PacketType.READ_REQUEST) == 1
        assert geometry.size_of(PacketType.WRITE_RESPONSE) == 1
        assert geometry.size_of(PacketType.READ_RESPONSE) == 5
        assert geometry.size_of(PacketType.WRITE_REQUEST) == 5

    def test_invalid_cache_line(self):
        with pytest.raises(ConfigurationError):
            ring_packet_geometry(48)


class TestParseHierarchy:
    def test_string_notation(self):
        assert parse_hierarchy("2:3:4") == (2, 3, 4)
        assert parse_hierarchy("8") == (8,)

    def test_sequence_inputs(self):
        assert parse_hierarchy((3, 3, 6)) == (3, 3, 6)
        assert parse_hierarchy([2, 12]) == (2, 12)

    def test_round_trip(self):
        assert format_hierarchy(parse_hierarchy("3:3:2:3")) == "3:3:2:3"

    def test_processors(self):
        assert hierarchy_processors((2, 3, 4)) == 24
        assert hierarchy_processors((8,)) == 8

    @pytest.mark.parametrize("bad", ["", "a:b", "2:0:4", "1:4", "-2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_hierarchy(bad)

    def test_leaf_of_one_allowed(self):
        assert parse_hierarchy("2:1") == (2, 1)


class TestRingSystemConfig:
    def test_derived_properties(self):
        config = RingSystemConfig(topology="2:3:4", cache_line_bytes=64)
        assert config.levels == 3
        assert config.processors == 24
        assert config.ring_buffer_flits == 5

    def test_validation(self):
        RingSystemConfig(topology="8").validate()
        with pytest.raises(ConfigurationError):
            RingSystemConfig(topology="8", cache_line_bytes=40).validate()
        with pytest.raises(ConfigurationError):
            RingSystemConfig(topology="8", global_ring_speed=3).validate()
        with pytest.raises(ConfigurationError):
            RingSystemConfig(topology="8", memory_latency=-1).validate()

    def test_with_topology(self):
        config = RingSystemConfig(topology="8").with_topology("2:4")
        assert config.branching == (2, 4)


class TestMeshSystemConfig:
    def test_processors(self):
        assert MeshSystemConfig(side=4).processors == 16

    def test_cl_buffer_resolution(self):
        config = MeshSystemConfig(side=3, cache_line_bytes=128, buffer_flits=CL_BUFFER)
        assert config.input_buffer_flits == 36
        assert MeshSystemConfig(side=3, buffer_flits=4).input_buffer_flits == 4

    def test_for_processors(self):
        assert MeshSystemConfig.for_processors(49).side == 7
        with pytest.raises(ConfigurationError):
            MeshSystemConfig.for_processors(50)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MeshSystemConfig(side=0).validate()
        with pytest.raises(ConfigurationError):
            MeshSystemConfig(side=3, buffer_flits=0).validate()


class TestWorkloadConfig:
    def test_defaults_match_paper(self):
        workload = WorkloadConfig()
        assert workload.miss_rate == 0.04
        assert workload.read_fraction == 0.7
        assert workload.outstanding == 4
        assert workload.locality == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"locality": 0.0},
            {"locality": 1.5},
            {"miss_rate": 0.0},
            {"outstanding": 0},
            {"read_fraction": 1.2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**kwargs).validate()


class TestSimulationParams:
    def test_total_cycles(self):
        params = SimulationParams(batch_cycles=100, batches=5)
        assert params.total_cycles == 500

    def test_needs_two_batches(self):
        with pytest.raises(ConfigurationError):
            SimulationParams(batches=1).validate()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationParams(batch_cycles=0).validate()
        with pytest.raises(ConfigurationError):
            SimulationParams(deadlock_threshold=0).validate()

    @pytest.mark.parametrize("scheduler", ("active", "batched"))
    def test_retired_schedulers_rejected(self, scheduler):
        with pytest.raises(ConfigurationError):
            SimulationParams(scheduler=scheduler).validate()
