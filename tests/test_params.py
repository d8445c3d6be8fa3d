"""Tests for configuration: Table 2 defaults and validation."""

import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigError
from repro.params import (
    ArbiterTopology,
    BaselineConfig,
    BulkSCConfig,
    CacheGeometry,
    ConsistencyModelKind,
    NAMED_CONFIGS,
    PrivateDataMode,
    ResilienceConfig,
    SignatureConfig,
    SystemConfig,
    bsc_base,
    bsc_dypvt,
    bsc_exact,
    bsc_stpvt,
    paper_config,
)


class TestTable2Defaults:
    """The defaults must reproduce the paper's Table 2 exactly."""

    def test_machine(self):
        cfg = paper_config()
        assert cfg.num_processors == 8
        assert cfg.num_directories == 1

    def test_processor(self):
        proc = paper_config().processor
        assert proc.frequency_ghz == 5.0
        assert (proc.fetch_width, proc.issue_width, proc.commit_width) == (6, 4, 5)
        assert (proc.instruction_window, proc.rob_size) == (80, 176)
        assert (proc.load_queue_entries, proc.store_queue_entries) == (56, 56)
        assert (proc.int_registers, proc.fp_registers) == (176, 90)
        assert proc.branch_penalty_cycles == 17

    def test_l1(self):
        l1 = paper_config().memory.l1
        assert l1.size_bytes == 32 * 1024
        assert l1.associativity == 4
        assert l1.line_bytes == 32
        assert l1.round_trip_cycles == 2
        assert l1.mshr_entries == 8
        assert l1.num_sets == 256

    def test_l2(self):
        l2 = paper_config().memory.l2
        assert l2.size_bytes == 8 * 1024 * 1024
        assert l2.associativity == 8
        assert l2.round_trip_cycles == 13
        assert l2.mshr_entries == 32

    def test_memory_latency(self):
        assert paper_config().memory.memory_round_trip_cycles == 300

    def test_bulksc(self):
        bulk = paper_config().bulksc
        assert bulk.signature.size_bits == 2048
        assert bulk.chunks_per_processor == 2
        assert bulk.chunk_size_instructions == 1000
        assert bulk.commit_arbitration_latency == 30
        assert bulk.max_simultaneous_commits == 8
        assert bulk.arbiter_topology is ArbiterTopology.CENTRAL


class TestNamedConfigs:
    def test_all_configurations_exist(self):
        """The paper's seven configurations plus the TSO extension."""
        assert set(NAMED_CONFIGS) == {
            "SC",
            "RC",
            "TSO",
            "SC++",
            "BSCbase",
            "BSCdypvt",
            "BSCstpvt",
            "BSCexact",
        }

    def test_private_data_modes(self):
        assert bsc_base().bulksc.private_data_mode is PrivateDataMode.NONE
        assert bsc_dypvt().bulksc.private_data_mode is PrivateDataMode.DYNAMIC
        assert bsc_stpvt().bulksc.private_data_mode is PrivateDataMode.STATIC

    def test_exact_uses_alias_free_signature(self):
        assert bsc_exact().bulksc.signature.exact
        assert not bsc_dypvt().bulksc.signature.exact

    def test_exact_builds_on_dypvt(self):
        assert bsc_exact().bulksc.private_data_mode is PrivateDataMode.DYNAMIC

    def test_models(self):
        assert NAMED_CONFIGS["SC"]().model is ConsistencyModelKind.SC
        assert NAMED_CONFIGS["RC"]().model is ConsistencyModelKind.RC
        assert NAMED_CONFIGS["SC++"]().model is ConsistencyModelKind.SCPP
        assert NAMED_CONFIGS["BSCbase"]().model is ConsistencyModelKind.BULKSC


class TestValidation:
    def test_cache_geometry_rejects_non_power_of_two_sets(self):
        geom = CacheGeometry(
            size_bytes=3 * 1024,
            associativity=4,
            line_bytes=32,
            round_trip_cycles=2,
            mshr_entries=8,
        )
        with pytest.raises(ConfigError):
            geom.validate("L1")

    def test_signature_banks_must_divide(self):
        with pytest.raises(ConfigError):
            SignatureConfig(size_bits=2048, num_banks=3).validate()

    def test_distributed_arbiters_valid_when_matching(self):
        cfg = replace(paper_config(), num_directories=4)
        good = replace(
            cfg,
            bulksc=replace(
                cfg.bulksc,
                arbiter_topology=ArbiterTopology.DISTRIBUTED,
            ),
        )
        good.validate()

    def test_zero_processors_rejected(self):
        with pytest.raises(ConfigError):
            replace(paper_config(), num_processors=0).validate()


class TestConfigHelpers:
    def test_with_model(self):
        cfg = paper_config().with_model(ConsistencyModelKind.RC)
        assert cfg.model is ConsistencyModelKind.RC

    def test_with_bulksc(self):
        cfg = paper_config().with_bulksc(chunk_size_instructions=2000)
        assert cfg.bulksc.chunk_size_instructions == 2000
        # Original untouched (frozen dataclasses).
        assert paper_config().bulksc.chunk_size_instructions == 1000

    def test_with_signature(self):
        cfg = paper_config().with_signature(size_bits=1024)
        assert cfg.bulksc.signature.size_bits == 1024

    def test_words_per_line(self):
        assert paper_config().memory.words_per_line == 8


class TestNoDeadKnobs:
    """Every option is read by the simulator, not only validated."""

    @pytest.mark.parametrize(
        "config_cls",
        [SystemConfig, BulkSCConfig, SignatureConfig, BaselineConfig, ResilienceConfig],
        ids=lambda cls: cls.__name__,
    )
    def test_every_field_is_read_outside_params(self, config_cls):
        package = Path(repro.__file__).parent
        source = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted(package.rglob("*.py"))
            if path != package / "params.py"
        )
        unread = [
            f.name
            for f in fields(config_cls)
            if not re.search(rf"\.{f.name}\b", source)
        ]
        assert not unread, f"{config_cls.__name__} fields never read: {unread}"
