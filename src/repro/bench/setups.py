"""Shared experiment plumbing: the world config, devices, file systems,
engines, scaling.

Every bench builds its world through these helpers so the scale-down
policy lives in one place.  How a world departs from the paper's
calibrated default is one frozen :class:`WorldConfig`, passed
explicitly to :func:`fresh_world`, :func:`make_device`,
:func:`make_data_target` and every ``*_setup``; ``WorldConfig()`` is
the paper's world.  Its fields, with the CLI flags that set them:

* ``gray_faults`` (``--gray-faults <profile>``) — every device carries
  the named gray-fault profile, salted by the device's name within its
  world, and every file system arms the command-lifecycle timeout
  stack, so any bench table can be rerun against a stalling or hanging
  device.
* ``data_devices`` / ``mirror`` / ``dedicated_log`` (``--devices N`` /
  ``--mirror N`` / ``--log-device``) — the data target stripes over N
  member devices or mirrors across N checksum-verified replicas, and
  the single-drive Couchbase world moves its append log onto a
  dedicated device via a placement volume.
* ``queue`` (``--interface sata|nvme`` / ``--sq N`` /
  ``--queue-depth N``) — the :class:`repro.host.QueueTopology` every
  queue is built from; ``None`` keeps the calibrated single-queue SATA
  NCQ path byte-identical.
* ``metrics_interval`` (``--metrics-interval S``) and ``profile``
  (``--profile``) — each world gets a windowed metrics registry and/or
  a simulator self-profiler.  The simulators so armed are results, not
  config: :func:`fresh_world` appends them to a ``sims`` list the
  caller owns.

:func:`world_parser` is the argparse parent parser for those flags and
:func:`world_config` turns what it parsed into a ``WorldConfig``.

Environment knobs:

* ``REPRO_SCALE``   — divide the paper's 100GB databases by this factor
  (default 256; smaller = closer to the paper, slower).
* ``REPRO_QUICK``   — set to 1 to cut operation counts ~4x for smoke
  runs of the full benchmark suite.
"""

import argparse
import dataclasses
import os
from typing import Optional

from ..db.commercial import CommercialConfig, CommercialEngine
from ..db.couchstore import CouchstoreConfig, CouchstoreEngine
from ..db.innodb import InnoDBConfig, InnoDBEngine
from ..devices import DEVICE_MAKERS
from ..failures.grayfaults import PROFILES, GrayFaultModel, make_profile
from ..host import (
    FileSystem,
    MirroredVolume,
    PlacementVolume,
    SingleDevice,
    StripedVolume,
)
from ..host.lifecycle import TimeoutPolicy
from ..host.queues import INTERFACES, QueueTopology, queue_topology
from ..sim import Simulator, units
from ..telemetry import MetricsRegistry, Telemetry

PAPER_DB_BYTES = 100 * units.GIB

#: seed of every bench gray-fault schedule; devices decorrelate by salt
GRAY_SEED = 0


@dataclasses.dataclass(frozen=True)
class WorldConfig:
    """How one bench world departs from the paper's calibrated default.

    Frozen, picklable and JSON-round-trippable, so a world can be
    described in an artifact or shipped to a worker process.
    """

    #: gray-fault profile name (:data:`repro.failures.grayfaults.PROFILES`)
    gray_faults: Optional[str] = None
    #: data-target stripe width (RAID-0, per-member queues)
    data_devices: int = 1
    #: data-target replica count (RAID-1, block checksums, read-repair)
    mirror: int = 1
    #: the single-drive Couchbase world's log on its own device
    dedicated_log: bool = False
    #: host queue model; None is the calibrated legacy SATA path
    queue: Optional[QueueTopology] = None
    #: windowed-metrics interval in simulated seconds, or None (off)
    metrics_interval: Optional[float] = None
    #: attach a simulator self-profiler to every world
    profile: bool = False

    def __post_init__(self):
        if self.gray_faults is not None:
            make_profile(self.gray_faults, GRAY_SEED)  # validate the name
        if self.data_devices < 1:
            raise ValueError("data_devices must be >= 1")
        if self.mirror < 1:
            raise ValueError("mirror must be >= 1")
        if self.mirror > 1 and self.data_devices > 1:
            raise ValueError("mirror and striping are mutually exclusive")
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ValueError("metrics interval must be positive")

    def timeout_policy(self):
        """The lifecycle policy file systems run with under gray faults
        (``None`` on healthy devices)."""
        if self.gray_faults is None:
            return None
        return TimeoutPolicy(deadline=0.01, backoff_base=1e-3,
                             seed=GRAY_SEED)

    def to_json(self):
        data = dataclasses.asdict(self)
        data["queue"] = None if self.queue is None else self.queue.to_json()
        return data

    @classmethod
    def from_json(cls, data):
        data = dict(data)
        if data.get("queue") is not None:
            data["queue"] = QueueTopology.from_json(data["queue"])
        return cls(**data)


def world_parser():
    """An argparse parent parser for the world flags every bench takes."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group("world")
    group.add_argument("--gray-faults", metavar="PROFILE",
                       choices=sorted(PROFILES),
                       help="inject a gray-fault profile into every device")
    group.add_argument("--devices", type=int, default=1, metavar="N",
                       help="stripe the data target over N devices")
    group.add_argument("--mirror", type=int, default=1, metavar="N",
                       help="mirror the data target across N replicas")
    group.add_argument("--log-device", action="store_true",
                       help="give the Couchbase log its own device")
    group.add_argument("--interface", choices=INTERFACES, default="sata",
                       help="host queue model")
    group.add_argument("--sq", type=int, default=2, metavar="N",
                       help="NVMe submission queues")
    group.add_argument("--queue-depth", type=int, metavar="N",
                       help="command slots per queue")
    group.add_argument("--metrics-interval", type=float, metavar="SECONDS",
                       help="arm windowed metrics; series go to "
                       "<target>-metrics.csv")
    group.add_argument("--profile", action="store_true",
                       help="self-profile every world; report goes to "
                       "<target>-profile.json")
    return parser


def world_config(parser, args):
    """The :class:`WorldConfig` that :func:`world_parser` flags describe;
    an invalid combination is a usage error (exit 2)."""
    try:
        queue = None
        if args.interface != "sata" or args.queue_depth is not None:
            queue = queue_topology(args.interface, args.sq, args.queue_depth)
        return WorldConfig(
            gray_faults=None if args.gray_faults == "none"
            else args.gray_faults,
            data_devices=args.devices, mirror=args.mirror,
            dedicated_log=args.log_device, queue=queue,
            metrics_interval=args.metrics_interval, profile=args.profile)
    except ValueError as error:
        parser.error(str(error))


def make_data_target(sim, device_kind, capacity_bytes, width=None,
                     mirror=None, timeout_policy=None, queue_model=None,
                     world=WorldConfig()):
    """``(target_or_device, member_devices)`` for the data extent.

    Width 1 returns the raw device — :class:`FileSystem` wraps it in a
    :class:`SingleDevice`, keeping the calibrated path byte-identical.
    Striped members named ``<kind>.d<i>`` each carry ``capacity /
    width`` (rounded up) behind their own queue + lifecycle; mirror
    replicas named ``<kind>.m<i>`` each carry the full capacity behind
    a checksum-verified :class:`MirroredVolume`.  ``width``, ``mirror``
    and ``queue_model`` default to the ``world``'s.
    """
    width = world.data_devices if width is None else width
    mirror = world.mirror if mirror is None else mirror
    if queue_model is None:
        queue_model = world.queue
    if mirror > 1:
        members = tuple(
            make_device(sim, device_kind, capacity_bytes=capacity_bytes,
                        name="%s.m%d" % (device_kind, index), world=world)
            for index in range(mirror))
        volume = MirroredVolume(sim, members, timeout_policy=timeout_policy,
                                queue_model=queue_model)
        return volume, members
    if width <= 1:
        device = make_device(sim, device_kind, capacity_bytes=capacity_bytes,
                             world=world)
        return device, (device,)
    member_bytes = -(-int(capacity_bytes) // width)
    members = tuple(
        make_device(sim, device_kind, capacity_bytes=member_bytes,
                    name="%s.d%d" % (device_kind, index), world=world)
        for index in range(width))
    volume = StripedVolume(sim, members, timeout_policy=timeout_policy,
                           queue_model=queue_model)
    return volume, members


def scale_factor():
    return int(os.environ.get("REPRO_SCALE", "256"))


def quick_mode():
    return os.environ.get("REPRO_QUICK", "0") not in ("0", "", "false")


def ops_scale(base):
    """Operation count, shrunk in quick mode."""
    return max(10, base // 4) if quick_mode() else base


def scaled_db_bytes():
    return PAPER_DB_BYTES // scale_factor()


def scaled(buffer_gb):
    """A paper buffer-pool size (GB) scaled to the local run."""
    return int(buffer_gb * units.GIB) // scale_factor()


def fresh_world(telemetry=None, world=WorldConfig(), sims=None):
    """A simulator for one bench world.

    With ``world.metrics_interval`` set and no explicit hub, the world
    gets a trace-disabled hub with an enabled metrics registry — spans
    stay off (their overhead would distort latency-sensitive benches
    far more than windowed counter snapshots do).  With
    ``world.profile``, a :class:`~repro.sim.profiler.SimProfiler` rides
    whatever hub the world ends up with.  A simulator armed either way
    is appended to ``sims`` (when given) so the caller can export its
    series or profile after the run.  The default world gets neither:
    the off path costs the event loop one ``None`` test per event, and
    every metrics instrument is a shared no-op.
    """
    armed = False
    if telemetry is None and world.metrics_interval is not None:
        telemetry = Telemetry(
            enabled=False,
            metrics=MetricsRegistry(interval=world.metrics_interval))
        armed = True
    if world.profile:
        if telemetry is None:
            telemetry = Telemetry(enabled=False)
        if telemetry.profiler is None:
            from ..sim.profiler import SimProfiler
            telemetry.profiler = SimProfiler()
            armed = True
    sim = Simulator(telemetry)
    if armed and sims is not None:
        sims.append(sim)
    return sim


def make_device(sim, kind="durassd", cache_enabled=True, capacity_bytes=None,
                name=None, world=WorldConfig()):
    maker = DEVICE_MAKERS[kind]
    if capacity_bytes is None:
        device = maker(sim, cache_enabled=cache_enabled, name=name)
    else:
        device = maker(sim, cache_enabled=cache_enabled,
                       capacity_bytes=capacity_bytes, name=name)
    if world.gray_faults is not None:
        # Device names are unique within a world (probes require it), so
        # salting by name decorrelates its devices while keeping each
        # one's schedule independent of whatever was built before it.
        device.inject_gray_faults(GrayFaultModel(
            make_profile(world.gray_faults, GRAY_SEED), salt=device.name))
    return device


def mysql_setup(sim, page_size, barriers, doublewrite, buffer_gb=10,
                device_kind="durassd", world=WorldConfig(),
                **config_overrides):
    """The paper's MySQL world: two drives, XFS, O_DIRECT."""
    db_bytes = scaled_db_bytes()
    policy = world.timeout_policy()
    data_target, data_devices = make_data_target(
        sim, device_kind, int(db_bytes * 2.5), timeout_policy=policy,
        world=world)
    # The log drive gets a distinct name: probes identify instances by
    # their device attr, so two same-kind drives must not collide.
    log_device = make_device(sim, device_kind,
                             capacity_bytes=max(units.GIB, db_bytes // 4),
                             name="%s.log" % device_kind, world=world)
    data_fs = FileSystem(sim, data_target, barriers=barriers,
                         timeout_policy=policy, queue_model=world.queue)
    log_fs = FileSystem(sim, log_device, barriers=barriers,
                        timeout_policy=policy, queue_model=world.queue)
    config = InnoDBConfig(page_size=page_size,
                          buffer_pool_bytes=scaled(buffer_gb),
                          doublewrite=doublewrite, **config_overrides)
    engine = InnoDBEngine(sim, data_fs, log_fs, config)
    return engine, data_devices + (log_device,)


def commercial_setup(sim, page_size, barriers, buffer_gb=2,
                     device_kind="durassd", world=WorldConfig(),
                     **config_overrides):
    """The paper's commercial-DBMS world: ext4, O_DSYNC data files."""
    db_bytes = scaled_db_bytes()
    policy = world.timeout_policy()
    data_target, data_devices = make_data_target(
        sim, device_kind, int(db_bytes * 2.5), timeout_policy=policy,
        world=world)
    log_device = make_device(sim, device_kind,
                             capacity_bytes=max(units.GIB, db_bytes // 4),
                             name="%s.log" % device_kind, world=world)
    data_fs = FileSystem(sim, data_target, barriers=barriers,
                         coalesce_barriers=True, timeout_policy=policy,
                         queue_model=world.queue)
    log_fs = FileSystem(sim, log_device, barriers=barriers,
                        coalesce_barriers=True, timeout_policy=policy,
                        queue_model=world.queue)
    config = CommercialConfig(page_size=page_size,
                              buffer_pool_bytes=scaled(buffer_gb),
                              **config_overrides)
    engine = CommercialEngine(sim, data_fs, log_fs, config)
    return engine, data_devices + (log_device,)


def couchbase_setup(sim, batch_size, barriers, device_kind="durassd",
                    world=WorldConfig(), **config_overrides):
    """The paper's Couchbase world: one drive, XFS.

    Under a non-default ``world`` the data extent stripes or mirrors
    and/or the append log moves onto a dedicated device behind a
    placement volume; the default is the paper's single drive.
    """
    policy = world.timeout_policy()
    model = world.queue
    data_target, devices = make_data_target(sim, device_kind,
                                            2 * units.GIB,
                                            timeout_policy=policy,
                                            world=world)
    if world.dedicated_log:
        if not hasattr(data_target, "flush"):  # raw device at width 1
            data_target = SingleDevice(sim, data_target,
                                       timeout_policy=policy,
                                       queue_model=model)
        log_device = make_device(sim, device_kind,
                                 capacity_bytes=units.GIB,
                                 name="%s.log" % device_kind, world=world)
        devices = devices + (log_device,)
        data_target = PlacementVolume({
            "data": data_target,
            "log": SingleDevice(sim, log_device, timeout_policy=policy,
                                queue_model=model),
        })
    filesystem = FileSystem(sim, data_target, barriers=barriers,
                            timeout_policy=policy, queue_model=model)
    config = CouchstoreConfig(batch_size=batch_size, **config_overrides)
    engine = CouchstoreEngine(sim, filesystem, config)
    return engine, devices
