"""Unit tests for the bench plumbing (table rendering, setups, cells)."""

import dataclasses
import json
import os
import pickle

import pytest

from repro.bench import setups, table1, tableio
from repro.sim import units


class TestTableIO:
    def test_render_basic(self):
        text = tableio.render_table("T", ["a", "b"], [[1, 2.5], ["x", 10]])
        assert "T" in text
        assert "a" in text and "b" in text
        assert "2.500" in text

    def test_render_large_numbers_comma_grouped(self):
        text = tableio.render_table("T", ["n"], [[1234567]])
        assert "1,234,567" in text

    def test_ratio_note(self):
        assert tableio.ratio_note(50, 100) == "x0.50"
        assert tableio.ratio_note(50, 0) == "-"

    def test_comparison_rows(self):
        rows = tableio.comparison_rows([("r", 90.0, 100.0)])
        assert rows[0][0] == "r"
        assert rows[0][3] == "x0.90"


class TestSetups:
    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "128")
        assert setups.scale_factor() == 128
        assert setups.scaled_db_bytes() == 100 * units.GIB // 128

    def test_quick_mode_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUICK", "1")
        assert setups.quick_mode()
        assert setups.ops_scale(100) == 25
        monkeypatch.setenv("REPRO_QUICK", "0")
        assert not setups.quick_mode()
        assert setups.ops_scale(100) == 100

    def test_scaled_buffer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "256")
        assert setups.scaled(10) == 10 * units.GIB // 256

    def test_device_makers(self):
        sim = setups.fresh_world()
        for kind in ("hdd", "ssd-a", "ssd-b", "durassd"):
            device = setups.make_device(sim, kind)
            assert device.exported_lbas > 0

    def test_mysql_setup_builds_engine(self):
        sim = setups.fresh_world()
        engine, devices = setups.mysql_setup(sim, 8 * units.KIB,
                                             barriers=False,
                                             doublewrite=False)
        assert engine.doublewrite is None
        assert not engine.data_fs.barriers
        assert len(devices) == 2

    def test_commercial_setup_coalesces(self):
        sim = setups.fresh_world()
        engine, _devices = setups.commercial_setup(sim, 8 * units.KIB,
                                                   barriers=True)
        assert engine.data_fs.coalesce_barriers

    def test_couchbase_setup(self):
        sim = setups.fresh_world()
        engine, devices = setups.couchbase_setup(sim, batch_size=10,
                                                 barriers=False)
        assert engine.config.batch_size == 10
        assert len(devices) == 1


class TestWorldConfig:
    CONFIGS = {
        "default": setups.WorldConfig(),
        "striped-nvme": setups.WorldConfig(
            data_devices=4, queue=setups.queue_topology("nvme", 4, 64)),
        "mirrored-gray": setups.WorldConfig(
            gray_faults="stalls", mirror=2, metrics_interval=0.01,
            profile=True),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_json_and_pickle_round_trip(self, name):
        config = self.CONFIGS[name]
        text = json.dumps(config.to_json())
        assert setups.WorldConfig.from_json(json.loads(text)) == config
        assert pickle.loads(pickle.dumps(config)) == config
        assert hash(pickle.loads(pickle.dumps(config))) == hash(config)

    def test_frozen_with_exactly_the_world_fields(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setups.WorldConfig().mirror = 2
        assert [field.name for field in dataclasses.fields(
            setups.WorldConfig)] == [
            "gray_faults", "data_devices", "mirror", "dedicated_log",
            "queue", "metrics_interval", "profile"]

    @pytest.mark.parametrize("kwargs", [
        {"data_devices": 0}, {"mirror": 0},
        {"mirror": 2, "data_devices": 2}, {"metrics_interval": 0.0}])
    def test_rejects_invalid_worlds(self, kwargs):
        with pytest.raises(ValueError):
            setups.WorldConfig(**kwargs)
        with pytest.raises(KeyError):
            setups.WorldConfig(gray_faults="no-such-profile")

    def test_gray_worlds_arm_the_timeout_stack(self):
        assert setups.WorldConfig().timeout_policy() is None
        assert setups.WorldConfig(
            gray_faults="mild").timeout_policy() is not None

    def test_nvme_pins_the_log_stream_to_the_last_queue(self):
        assert setups.queue_topology("nvme", 4).affinity == {"log": 3}
        assert setups.queue_topology("nvme", 1).affinity is None
        assert setups.queue_topology("sata", 4).interface == "sata"

    def test_flags_build_the_config(self):
        parser = setups.world_parser()

        def parse(*argv):
            return setups.world_config(parser, parser.parse_args(argv))

        assert parse() == setups.WorldConfig()
        assert parse("--gray-faults", "none") == setups.WorldConfig()
        assert parse("--interface", "sata", "--sq", "4") \
            == setups.WorldConfig()
        assert parse("--devices", "2", "--interface", "nvme", "--sq", "2",
                     "--log-device", "--profile") == setups.WorldConfig(
            data_devices=2, dedicated_log=True, profile=True,
            queue=setups.queue_topology("nvme", 2))
        assert parse("--queue-depth", "64").queue \
            == setups.queue_topology("sata", queue_depth=64)

    def test_gray_schedule_does_not_depend_on_build_order(self):
        world = setups.WorldConfig(gray_faults="stalls")

        def stall_draws():
            sim = setups.fresh_world(world=world)
            _engine, devices = setups.mysql_setup(
                sim, 16 * units.KIB, barriers=False, doublewrite=False,
                world=world)
            return {device.name: [device.gray_faults.command_delay(
                "write", 0.0) for _ in range(64)] for device in devices}

        alone = stall_draws()
        stall_draws()  # another world built in between
        assert stall_draws() == alone
        # the data and log drives still stall at different instants
        assert sorted(alone) == ["durassd", "durassd.log"]
        assert alone["durassd"] != alone["durassd.log"]
        assert any(alone["durassd"])


class TestTable1Cells:
    """Spot checks that single cells reproduce the paper's values."""

    def test_durassd_fsync1_matches_paper(self):
        iops = table1.measure_cell("durassd", "on", 1, ios=150)
        assert iops == pytest.approx(225, rel=0.25)

    def test_hdd_off_no_fsync_matches_paper(self):
        iops = table1.measure_cell("hdd", "off", 0, ios=80)
        assert iops == pytest.approx(158, rel=0.25)

    def test_nobarrier_cell_is_fast(self):
        iops = table1.measure_cell("durassd", "nobarrier", 1, ios=400)
        assert iops > 10000

    def test_paper_reference_table_complete(self):
        for key in table1.ROWS:
            assert len(table1.PAPER[key]) == len(table1.FSYNC_PERIODS)
