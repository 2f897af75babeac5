"""Pinned resume order of two seeded worlds.

The simulated results depend on which process resumes when, including
among processes that resume at the same instant.  This test folds
``(now, generator.__qualname__)`` of every process resume into a sha256
and pins it, together with ``processed_events``, for one InnoDB/LinkBench
world and one Couchstore/YCSB world with barriers on.  A change to the
kernel that reorders a single resume, or adds or drops an event, moves
one of these values; such a change must say so and re-pin them.
"""

import hashlib

import pytest

from repro.db import InnoDBConfig, InnoDBEngine
from repro.db.couchstore import CouchstoreConfig, CouchstoreEngine
from repro.devices import make_durassd
from repro.host import FileSystem
from repro.sim import Simulator, units
from repro.sim.engine import Process
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


def _linkbench(sim):
    data_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                         barriers=False)
    log_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB,
                                          name="durassd.log"),
                        barriers=False)
    engine = InnoDBEngine(sim, data_fs, log_fs,
                          InnoDBConfig(page_size=8 * units.KIB,
                                       buffer_pool_bytes=8 * units.MIB))
    workload = LinkBenchWorkload(
        engine, LinkBenchConfig(db_bytes=64 * units.MIB, seed=17))
    workload.run(clients=8, ops_per_client=12, warmup_ops=5)


def _couchstore(sim):
    filesystem = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                            barriers=True)
    engine = CouchstoreEngine(sim, filesystem, CouchstoreConfig(batch_size=1))
    workload = YCSBWorkload(engine, YCSBConfig("A", record_count=4096,
                                               seed=5))
    workload.run(clients=3, ops_per_client=40, warmup_ops=5)


def _fingerprint(monkeypatch, build):
    digest = hashlib.sha256()
    resume = Process._resume

    def traced(process, event):
        digest.update(b"%r %s\n" % (process.sim.now,
                                    process._generator.__qualname__.encode()))
        return resume(process, event)

    monkeypatch.setattr(Process, "_resume", traced)
    sim = Simulator()
    build(sim)
    return digest.hexdigest()[:16], sim.processed_events


@pytest.mark.parametrize("build, expected", [
    (_linkbench, ("4866becaaec11973", 1759)),
    (_couchstore, ("cc0988421ddb958a", 3951)),
], ids=["innodb-linkbench", "couchstore-barriers"])
def test_resume_order_is_pinned(monkeypatch, build, expected):
    assert _fingerprint(monkeypatch, build) == expected
