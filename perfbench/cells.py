"""The benchmark's three workloads, built from the simulator's public API.

Each workload class builds one world in its constructor (the set-up the
benchmark times as ``setup_s``) and runs its closed loop in
:meth:`run` (the measured phase).  The world does not read ``REPRO_*``
environment knobs: sizes are fixed here, and the only input is the
seed.

* ``linkbench-durable`` — InnoDB + LinkBench, 128 clients x 120 ops,
  data and log each on their own DuraSSD, barriers off, 8 KiB pages,
  a 2 GB/256 buffer pool (~16% miss ratio).  ``--seed 7`` is the
  width-1 durable-cache cell of ``BENCH_scaling.json``.
* ``ycsb-fsync`` — Couchstore + YCSB-A (50/50), 4 clients, batch 1,
  barriers on, one DuraSSD: every update ends in fsync -> flush-cache.
* ``fio-gc`` — 4 fio jobs of 4 KiB random writes at queue depth 1 into
  a 100 MiB file on a 128 MiB DuraSSD, writing 2.5x the device, so FTL
  garbage collection runs; a fifth job reads at queue depth 1.
"""

import math

from repro.db.couchstore import CouchstoreConfig, CouchstoreEngine
from repro.db.innodb import InnoDBConfig, InnoDBEngine
from repro.devices import make_durassd
from repro.failures import PowerFailureInjector, check_device
from repro.host import FileSystem
from repro.host.fio import FioJob, run_fio
from repro.sim import LatencyRecorder, units
from repro.sim.rng import make_rng
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

#: the paper's 100 GB databases, scaled down 256x as in the scaling sweep
DB_BYTES = 100 * units.GIB // 256

#: share of the slowest ops averaged into the ``*_tail_mean_ms`` metrics
TAIL = 0.01


def latency_metrics(writes, reads):
    """Simulated-latency metrics (ms) from the write and read recorders.

    The tail is the mean of the slowest 1%, not the p99: the device
    model's service times are fixed, so on ``fio-gc`` the write p50 and
    p99 are the same lattice point for almost every seed, while the
    mean of the slowest 1% moves with the seeded GC stalls.
    """
    return {
        "sim_write_mean_ms": writes.mean * 1e3,
        "sim_write_tail_mean_ms": _tail_mean(writes) * 1e3,
        "sim_read_tail_mean_ms": _tail_mean(reads) * 1e3,
        "sim_write_p50_ms": writes.percentile(0.50) * 1e3,
        "sim_write_p99_ms": writes.percentile(0.99) * 1e3,
        "sim_read_p99_ms": reads.percentile(0.99) * 1e3,
    }


def _tail_mean(recorder):
    ordered = recorder.sorted_samples()
    slowest = ordered[-max(1, math.ceil(len(ordered) * TAIL)):]
    return math.fsum(slowest) / len(slowest)


class Workload:
    """One built world.  Subclasses fill ``devices`` and ``filesystems``
    in ``__init__`` and implement :meth:`run`."""

    name = None

    def __init__(self, sim, seed):
        self.sim = sim
        self.seed = seed
        self.devices = []
        self.filesystems = []

    def run(self):
        """Run the closed loop; returns the simulated-result record."""
        raise NotImplementedError

    def totals(self):
        """Cumulative work counts from the public ``counters``/``stats``.

        The benchmark takes them before and after :meth:`run` and hands
        the difference to :meth:`counters`, so set-up work is left out.
        """
        fs = [f.counters for f in self.filesystems]
        dev = [d.counters for d in self.devices]
        ftl = [d.ftl.counters for d in self.devices]
        return {
            "fsyncs": sum(c["fsyncs"] for c in fs),
            "barriers": sum(c["barriers_issued"] for c in fs),
            "flushes": sum(c["flushes"] for c in dev),
            "blocks_written": sum(c["blocks_written"] for c in dev),
            "host_slot_writes": sum(c["host_slot_writes"] for c in ftl),
            "gc_moved_slots": sum(c["gc_moved_slots"] for c in ftl),
            "gc_runs": sum(c["gc_runs"] for c in ftl),
            "nand_page_writes": sum(c["nand_page_writes"] for c in ftl),
        }

    def counters(self, done, ops):
        """Per-layer metrics from the counts ``done`` during :meth:`run`,
        per each of the ``ops`` executed (measured and warm-up)."""
        host_slots = done["host_slot_writes"]
        return {
            "host.fsyncs_per_op": done["fsyncs"] / ops,
            "host.barriers_per_op": done["barriers"] / ops,
            "devices.flushes_per_op": done["flushes"] / ops,
            "devices.blocks_written_per_op": done["blocks_written"] / ops,
            "flash.waf": (host_slots + done["gc_moved_slots"]) / host_slots
            if host_slots else 0.0,
            "flash.gc_runs_per_kop": done["gc_runs"] * 1e3 / ops,
            "flash.nand_page_writes_per_op": done["nand_page_writes"] / ops,
        }

    def record_acks(self):
        for device in self.devices:
            device.record_acks = True

    def durability_violations(self):
        """Cut power now, reboot, and list what the checks found.

        Needs :meth:`record_acks` before :meth:`run`.
        """
        injector = PowerFailureInjector(self.sim, self.devices)
        injector.execute_cut()
        injector.reboot_all()
        problems = []
        for device in self.devices:
            report = check_device(device)
            if not report.clean:
                problems.append("%s: %r" % (device.name, report))
            if not device.ack_log:
                problems.append("%s: no acked writes recorded"
                                % device.name)
        return problems


class LinkBenchDurable(Workload):
    name = "linkbench-durable"
    CLIENTS = 128
    OPS_PER_CLIENT = 120
    WARMUP_OPS = 20
    span_prefix = "op."

    def __init__(self, sim, seed):
        super().__init__(sim, seed)
        data = make_durassd(sim, capacity_bytes=int(DB_BYTES * 2.5))
        log = make_durassd(sim, capacity_bytes=max(units.GIB,
                                                   DB_BYTES // 4),
                           name="durassd.log")
        data_fs = FileSystem(sim, data, barriers=False)
        log_fs = FileSystem(sim, log, barriers=False)
        self.devices = [data, log]
        self.filesystems = [data_fs, log_fs]
        self.engine = InnoDBEngine(sim, data_fs, log_fs, InnoDBConfig(
            page_size=8 * units.KIB, buffer_pool_bytes=2 * units.GIB // 256))
        self.workload = LinkBenchWorkload(
            self.engine, LinkBenchConfig(db_bytes=DB_BYTES, seed=seed))
        self.workload.warm()
        self.result = None

    def run(self):
        result = self.workload.run(
            clients=self.CLIENTS, ops_per_client=self.OPS_PER_CLIENT,
            warmup_ops=self.WARMUP_OPS, warm_buffer=False)
        self.result = result
        attempted = self.CLIENTS * self.OPS_PER_CLIENT
        record = {
            "attempted": attempted,
            "completed": len(result.reads) + len(result.writes),
            "failed": self.engine.counters["aborts"],
            "executed": self.CLIENTS * (self.OPS_PER_CLIENT
                                        + self.WARMUP_OPS),
            "sim_ops_per_s": result.tps,
        }
        record.update(latency_metrics(result.writes, result.reads))
        return record

    def totals(self):
        out = super().totals()
        engine = self.engine
        out.update({
            "reads_blocked_by_write":
                engine.pool.stats["reads_blocked_by_write"],
            "wal_flushes": engine.wal.counters["flushes"],
            "commits": engine.counters["commits"],
            "pages_flushed": engine.counters["pages_flushed"],
        })
        return out

    def counters(self, done, ops):
        out = super().counters(done, ops)
        commits = done["commits"]
        out.update({
            # LinkBench counts the hits and misses of the measured ops
            "db.buffer_miss_ratio": self.result.buffer_miss_ratio,
            "db.reads_blocked_by_write_per_op":
                done["reads_blocked_by_write"] / ops,
            "db.wal_flushes_per_commit":
                done["wal_flushes"] / commits if commits else 0.0,
            "db.pages_flushed_per_op": done["pages_flushed"] / ops,
        })
        return out


class YcsbFsync(Workload):
    name = "ycsb-fsync"
    CLIENTS = 4
    OPS_PER_CLIENT = 1000
    WARMUP_OPS = 30
    span_prefix = "ycsb."

    def __init__(self, sim, seed):
        super().__init__(sim, seed)
        device = make_durassd(sim, capacity_bytes=2 * units.GIB)
        filesystem = FileSystem(sim, device, barriers=True)
        self.devices = [device]
        self.filesystems = [filesystem]
        self.engine = CouchstoreEngine(sim, filesystem,
                                       CouchstoreConfig(batch_size=1))
        if sim.telemetry.enabled:
            # YCSBWorkload opens no request span: wrap each operation in
            # one so the tail attributor has a root to decompose.
            self.engine.read = _spanned(sim, "ycsb.read", self.engine.read)
            self.engine.update = _spanned(sim, "ycsb.update",
                                          self.engine.update)
        self.workload = YCSBWorkload(self.engine, YCSBConfig(
            "A", record_count=DB_BYTES // 1024, seed=seed))

    def run(self):
        result = self.workload.run(clients=self.CLIENTS,
                                   ops_per_client=self.OPS_PER_CLIENT,
                                   warmup_ops=self.WARMUP_OPS)
        record = {
            "attempted": self.CLIENTS * self.OPS_PER_CLIENT,
            "completed": len(result.latency),
            "failed": 0,
            "executed": self.CLIENTS * (self.OPS_PER_CLIENT
                                        + self.WARMUP_OPS),
            "sim_ops_per_s": result.ops_per_second,
        }
        record.update(latency_metrics(result.update_latency,
                                      result.read_latency))
        return record

    def totals(self):
        out = super().totals()
        counters = self.engine.counters
        for key in ("cache_hits", "reads", "blocks_appended", "updates"):
            out[key] = counters[key]
        return out

    def counters(self, done, ops):
        out = super().counters(done, ops)
        out.update({
            "db.cache_hit_ratio": done["cache_hits"] / done["reads"]
            if done["reads"] else 0.0,
            "db.blocks_appended_per_update":
                done["blocks_appended"] / done["updates"]
                if done["updates"] else 0.0,
        })
        return out

    def durability_violations(self):
        problems = super().durability_violations()
        lost = self.engine.lost_acked_updates()
        if lost:
            problems.append("couchstore lost %d acked updates" % lost)
        return problems


def _spanned(sim, name, operation):
    def spanned(key, rng):
        with sim.telemetry.span(name, "workload", key=key):
            return (yield from operation(key, rng))
    return spanned


class FioGc(Workload):
    name = "fio-gc"
    JOBS = 4
    #: 4 jobs x 20480 x 4 KiB = 320 MiB, 2.5x the 128 MiB device
    IOS_PER_JOB = 20480
    DEVICE_BYTES = 128 * units.MIB
    FILE_BYTES = 100 * units.MIB
    span_prefix = "fio."

    def __init__(self, sim, seed):
        super().__init__(sim, seed)
        device = make_durassd(sim, capacity_bytes=self.DEVICE_BYTES)
        self.filesystem = FileSystem(sim, device, barriers=False)
        self.devices = [device]
        self.filesystems = [self.filesystem]
        self.job = FioJob(rw="randwrite", block_size=4 * units.KIB,
                          numjobs=self.JOBS, ios_per_job=self.IOS_PER_JOB,
                          file_size=self.FILE_BYTES, seed=seed)
        self.reads = LatencyRecorder("fio-read")
        self.bad_reads = []

    def _reader(self):
        """One random-read job at queue depth 1 while the writers run.

        Every value read must be unwritten (None) or a block some fio
        writer wrote; anything else is a misdirected or corrupt read.
        """
        sim, filesystem = self.sim, self.filesystem
        handle = filesystem.open("fio-data")
        slots = handle.nblocks
        rng = make_rng((self.seed, "reader"))
        writes = self.JOBS * self.IOS_PER_JOB
        while filesystem.counters["data_writes"] < writes:
            offset = rng.randrange(slots) * units.LBA_SIZE
            begin = sim.now
            with sim.telemetry.span("fio.read", "workload"):
                values = yield from filesystem.pread(handle, offset, 1)
            self.reads.record(sim.now - begin)
            value = values[0]
            if value is not None and not (
                    isinstance(value, tuple) and value[0] == "fio"
                    and 0 <= value[1] < self.JOBS):
                self.bad_reads.append((offset, value))

    def run(self):
        self.sim.process(self._reader())
        result = run_fio(self.sim, self.filesystem, self.job)
        writes = self.JOBS * self.IOS_PER_JOB
        reads = len(self.reads)
        record = {
            "attempted": writes + reads,
            "completed": result.completed + reads,
            "failed": len(self.bad_reads),
            "executed": writes + reads,
            "sim_ops_per_s": (writes + reads) / result.elapsed,
        }
        record.update(latency_metrics(result.latency, self.reads))
        return record


WORKLOADS = {cls.name: cls for cls in (LinkBenchDurable, YcsbFsync, FioGc)}
