"""Crash-consistency torture harness.

Systematically answers the paper's central claim — *a DuraSSD needs no
write barriers to be crash-safe* — by construction rather than by
argument:

1. **Record**: run a deterministic, seeded LinkBench operation stream
   against a freshly built world (engine + devices) and collect every
   ack boundary the devices reported.
2. **Sweep**: for each candidate cut point (the midpoints between
   consecutive distinct ack instants, plus one before the first and one
   after the last), rebuild the *identical* world, replay the same
   operation stream, cut power there, reboot, run device and database
   recovery, and check both block-level invariants
   (:mod:`repro.failures.checker`) and the transaction oracle
   (:mod:`repro.db.dbrecovery`).  Short runs sweep exhaustively; long
   ones take a seeded sample and refine failures by bisection.
   Selected trials additionally inject a *nested* cut in the middle of
   recovery — either interrupting the DuraSSD dump replay or the
   database redo pass — and recover again.
3. **Minimize**: a failing schedule is reduced to the shortest
   operation prefix plus the earliest failing cut point, and emitted as
   a self-contained JSON artifact that :func:`replay_artifact`
   reproduces with no other inputs.

The verdict policy keys on ``StorageDevice.claims_durable_cache``: a
device claiming a durable cache must check clean at block level at
*every* cut point, and a configuration that promises durability (a
durable cache, or barriers on) must recover a consistent database.
Configurations that promise nothing (volatile cache, barriers off) are
still swept — their violations are what the paper's Table 1 anomaly
discussion is about — but they do not fail the sweep.
"""

import json

from ..db import dbrecovery
from ..db.commercial import CommercialConfig, CommercialEngine
from ..db.degrade import DegradedError
from ..db.innodb import InnoDBConfig, InnoDBEngine
from ..db.pages import TornPageError
from ..devices import DEVICE_MAKERS
from ..host import (
    FileSystem,
    MirroredVolume,
    Rebuilder,
    Scrubber,
    StripedVolume,
    VerifyingTarget,
    as_target,
)
from ..host.integrity import CorruptDataError
from ..host.lifecycle import TimeoutPolicy
from ..host.queues import INTERFACES, queue_topology
from ..sim import Simulator, units
from ..sim.rng import make_rng
from ..workloads.linkbench import (
    OPERATION_MIX,
    LinkBenchConfig,
    LinkBenchWorkload,
    NodeSampler,
)
from .checker import (
    check_device,
    check_undetected_corruption,
    check_write_order,
)
from .corruption import CorruptionConfig, CorruptionModel
from .death import DeviceDeathModel, DeviceDeathSchedule
from .faults import FaultConfig, TransientFaultModel
from .grayfaults import GrayFaultModel, GrayFaultProfile
from .injector import PowerFailureInjector

ARTIFACT_FORMAT = "repro.torture/1"

#: Offset past the final ack for the "after everything was acked" cut.
_AFTER_LAST_ACK = 1e-7

ENGINES = ("innodb", "commercial")


class TortureScenario:
    """A fully seeded, JSON-serializable description of one torture world.

    Everything a trial needs is here (plus the operation list, which
    :func:`generate_ops` derives deterministically from the seed), so a
    failure reproduces from the serialized scenario alone.
    """

    def __init__(self, engine="innodb", device="durassd", barriers=None,
                 doublewrite=True, ops=200, seed=11,
                 db_bytes=2 * units.MIB, page_size=16 * units.KIB,
                 buffer_pool_bytes=None, fault_config=None,
                 capacitor_health=1.0, workload="linkbench",
                 timeout_policy=None, gray_profile=None,
                 gray_target="both", admission_control=False, stripe=1,
                 corruption=None, corruption_target="data", mirror=1,
                 checksums=False, scrub=False, death=None,
                 death_target="data", spares=0, rebuild_pace=None,
                 interface="sata", submission_queues=2):
        if engine not in ENGINES:
            raise ValueError("unknown engine: %r" % engine)
        if device not in DEVICE_MAKERS:
            raise ValueError("unknown device: %r" % device)
        if workload != "linkbench":
            raise ValueError("unknown workload: %r" % workload)
        if ops < 1:
            raise ValueError("ops must be >= 1")
        if engine == "commercial":
            doublewrite = False  # the commercial engine has no DWB
        self.engine = engine
        self.device = device
        #: None = auto: off when every device claims a durable cache
        #: (the paper's DuraSSD configuration), on otherwise.
        self.barriers = barriers
        self.doublewrite = doublewrite
        self.ops = ops
        self.seed = seed
        self.db_bytes = db_bytes
        self.page_size = page_size
        self.buffer_pool_bytes = (buffer_pool_bytes if buffer_pool_bytes
                                  else max(16 * page_size, db_bytes // 4))
        if fault_config is not None and not isinstance(fault_config,
                                                       FaultConfig):
            fault_config = FaultConfig(**fault_config)
        self.fault_config = fault_config
        if not 0.0 <= capacitor_health <= 1.0:
            raise ValueError("capacitor_health must be in [0, 1]")
        self.capacitor_health = capacitor_health
        self.workload = workload
        # Gray-failure wiring (repro.failures.grayfaults): all None/off
        # by default, so classic torture scenarios are untouched.
        if timeout_policy is not None and not isinstance(timeout_policy,
                                                         TimeoutPolicy):
            timeout_policy = TimeoutPolicy(**timeout_policy)
        self.timeout_policy = timeout_policy
        if gray_profile is not None and not isinstance(gray_profile,
                                                       GrayFaultProfile):
            gray_profile = GrayFaultProfile(**gray_profile)
        self.gray_profile = gray_profile
        stripe = int(stripe)
        if stripe < 1:
            raise ValueError("stripe width must be >= 1")
        self.stripe = stripe
        # "data:<i>" targets gray faults at one stripe member only.
        if gray_target.startswith("data:"):
            member = int(gray_target.split(":", 1)[1])
            if not 0 <= member < stripe:
                raise ValueError("gray_target member %d outside stripe "
                                 "width %d" % (member, stripe))
        elif gray_target not in ("both", "data", "log"):
            raise ValueError("gray_target must be both, data, log or "
                             "data:<member>: %r" % (gray_target,))
        self.gray_target = gray_target
        self.admission_control = admission_control
        # End-to-end integrity wiring (repro.failures.corruption,
        # repro.host.integrity): all off by default, so classic torture
        # scenarios build byte-identical worlds.
        if corruption is not None and not isinstance(corruption,
                                                     CorruptionConfig):
            corruption = CorruptionConfig(**corruption)
        self.corruption = corruption
        if corruption_target not in ("data", "log", "all"):
            raise ValueError("corruption_target must be data, log or all: "
                             "%r" % (corruption_target,))
        self.corruption_target = corruption_target
        mirror = int(mirror)
        if mirror < 1:
            raise ValueError("mirror width must be >= 1")
        if mirror > 1 and stripe > 1:
            raise ValueError("mirror and stripe are mutually exclusive")
        self.mirror = mirror
        self.checksums = bool(checksums)
        if scrub and not (self.checksums or mirror > 1):
            raise ValueError("scrub needs checksums or a mirror to verify "
                             "against")
        self.scrub = bool(scrub)
        # Fail-stop device deaths and online repair (repro.failures.death,
        # repro.host.volume.Rebuilder): all off by default.
        if death is not None and not isinstance(death, DeviceDeathSchedule):
            death = DeviceDeathSchedule(**death)
        self.death = death
        width = max(stripe, mirror)
        if death_target.startswith("data:"):
            member = int(death_target.split(":", 1)[1])
            if not 0 <= member < width:
                raise ValueError("death_target member %d outside width %d"
                                 % (member, width))
        elif death_target not in ("data", "log", "all"):
            raise ValueError("death_target must be data, log, all or "
                             "data:<member>: %r" % (death_target,))
        self.death_target = death_target
        spares = int(spares)
        if spares < 0:
            raise ValueError("spares must be >= 0")
        if spares and mirror <= 1:
            raise ValueError("hot spares need a mirror to rebuild")
        self.spares = spares
        if rebuild_pace is not None and rebuild_pace <= 0:
            raise ValueError("rebuild_pace must be > 0")
        self.rebuild_pace = rebuild_pace
        # Host queue model (repro.host.queues): the default SATA NCQ
        # builds byte-identical classic worlds; "nvme" runs every
        # queue-owning target behind a multi-queue model instead.
        if interface not in INTERFACES:
            raise ValueError("interface must be one of %s" % (INTERFACES,))
        self.interface = interface
        submission_queues = int(submission_queues)
        if submission_queues < 1:
            raise ValueError("submission_queues must be >= 1")
        self.submission_queues = submission_queues

    @property
    def integrity_armed(self):
        """Does this world defend reads (checksums and/or a mirror)?"""
        return self.checksums or self.mirror > 1

    def to_json(self):
        return {
            "engine": self.engine,
            "device": self.device,
            "barriers": self.barriers,
            "doublewrite": self.doublewrite,
            "ops": self.ops,
            "seed": self.seed,
            "db_bytes": self.db_bytes,
            "page_size": self.page_size,
            "buffer_pool_bytes": self.buffer_pool_bytes,
            "fault_config": (self.fault_config.to_json()
                             if self.fault_config else None),
            "capacitor_health": self.capacitor_health,
            "workload": self.workload,
            "timeout_policy": (self.timeout_policy.to_json()
                               if self.timeout_policy else None),
            "gray_profile": (self.gray_profile.to_json()
                             if self.gray_profile else None),
            "gray_target": self.gray_target,
            "admission_control": self.admission_control,
            "stripe": self.stripe,
            "corruption": (self.corruption.to_json()
                           if self.corruption else None),
            "corruption_target": self.corruption_target,
            "mirror": self.mirror,
            "checksums": self.checksums,
            "scrub": self.scrub,
            "death": self.death.to_json() if self.death else None,
            "death_target": self.death_target,
            "spares": self.spares,
            "rebuild_pace": self.rebuild_pace,
            "interface": self.interface,
            "submission_queues": self.submission_queues,
        }

    @classmethod
    def from_json(cls, data):
        return cls(**data)

    def __repr__(self):
        return ("<TortureScenario %s/%s barriers=%r ops=%d seed=%d>"
                % (self.engine, self.device, self.barriers, self.ops,
                   self.seed))


class TortureWorld:
    """One freshly built simulation world for a single trial."""

    def __init__(self, sim, engine, devices, workload, barriers,
                 expected_clean, data_devices=None, audit=None,
                 scrubber=None, integrity_expected=False, volume=None,
                 rebuilder=None, spare_devices=()):
        self.sim = sim
        self.engine = engine
        self.devices = devices
        #: the data-target members (one for an unstriped world)
        self.data_devices = (tuple(data_devices) if data_devices
                             else (devices[0],))
        self.data_device = self.data_devices[0]
        self.log_device = devices[-1]
        self.workload = workload
        self.barriers = barriers
        self.expected_clean = expected_clean
        #: passive undetected-corruption auditor (corruption worlds only)
        self.audit = audit
        #: background media scrubber, when the scenario arms one
        self.scrubber = scrubber
        #: does this world promise detection (checksums or mirror)?
        self.integrity_expected = integrity_expected
        #: the striped/mirrored data volume, when the world has one
        self.volume = volume
        #: background online rebuilder, when hot spares are pooled
        self.rebuilder = rebuilder
        #: unattached hot-spare devices (they join via the rebuilder)
        self.spare_devices = tuple(spare_devices)


def build_world(scenario, telemetry=None):
    """Construct the scenario's world from scratch; deterministic."""
    sim = Simulator(telemetry)
    maker = DEVICE_MAKERS[scenario.device]
    data_capacity = max(32 * units.MIB, scenario.db_bytes * 8)
    log_capacity = max(16 * units.MIB, scenario.db_bytes * 2)
    if scenario.stripe > 1:
        member_capacity = -(-data_capacity // scenario.stripe)
        data_devices = tuple(
            maker(sim, capacity_bytes=member_capacity,
                  name="%s.d%d" % (scenario.device, index))
            for index in range(scenario.stripe))
    elif scenario.mirror > 1:
        data_devices = tuple(
            maker(sim, capacity_bytes=data_capacity,
                  name="%s.m%d" % (scenario.device, index))
            for index in range(scenario.mirror))
    else:
        data_devices = (maker(sim, capacity_bytes=data_capacity),)
    log_device = maker(sim, capacity_bytes=log_capacity)
    spare_devices = tuple(
        maker(sim, capacity_bytes=data_capacity,
              name="%s.s%d" % (scenario.device, index))
        for index in range(scenario.spares))
    # Spares sit between the data members and the log so devices[-1]
    # stays the log device everywhere downstream.
    devices = data_devices + spare_devices + (log_device,)
    for device in devices:
        if scenario.fault_config is not None and \
                hasattr(device, "inject_faults"):
            device.inject_faults(TransientFaultModel(scenario.fault_config))
        if scenario.capacitor_health < 1.0 and \
                hasattr(device, "set_capacitor_health"):
            device.set_capacitor_health(scenario.capacitor_health)
    if scenario.gray_profile is not None:
        if scenario.gray_target.startswith("data:"):
            member = int(scenario.gray_target.split(":", 1)[1])
            data_devices[member].inject_gray_faults(
                GrayFaultModel(scenario.gray_profile,
                               salt="data:%d" % member))
        elif scenario.gray_target in ("both", "data"):
            for index, device in enumerate(data_devices):
                salt = "data" if index == 0 else "data:%d" % index
                device.inject_gray_faults(
                    GrayFaultModel(scenario.gray_profile, salt=salt))
        if scenario.gray_target in ("both", "log"):
            log_device.inject_gray_faults(
                GrayFaultModel(scenario.gray_profile, salt="log"))
    if scenario.corruption is not None:
        # Silent-corruption models beneath the FTL, one per device with
        # its own salt so replicas never rot in lock-step.
        if scenario.corruption_target in ("data", "all"):
            for index, device in enumerate(data_devices):
                if hasattr(device, "inject_corruption"):
                    device.inject_corruption(CorruptionModel(
                        scenario.corruption, salt="data:%d" % index))
        if scenario.corruption_target in ("log", "all") \
                and hasattr(log_device, "inject_corruption"):
            log_device.inject_corruption(CorruptionModel(
                scenario.corruption, salt="log"))
    if scenario.death is not None and not scenario.death.quiet:
        # Fail-stop death models; ``index`` orders staggered deaths so a
        # double-death profile kills members one after the other.
        if scenario.death_target.startswith("data:"):
            member = int(scenario.death_target.split(":", 1)[1])
            data_devices[member].inject_death(DeviceDeathModel(
                scenario.death, salt="data:%d" % member, index=0))
        elif scenario.death_target in ("data", "all"):
            for index, device in enumerate(data_devices):
                device.inject_death(DeviceDeathModel(
                    scenario.death, salt="data:%d" % index, index=index))
        if scenario.death_target in ("log", "all"):
            log_device.inject_death(DeviceDeathModel(
                scenario.death, salt="log", index=len(data_devices)))
    all_durable = all(device.claims_durable_cache for device in devices)
    barriers = (not all_durable) if scenario.barriers is None \
        else scenario.barriers
    # None = the legacy SATA construction path, byte-identical to every
    # committed torture artifact; NVMe is the bench worlds' topology.
    queue_model = (queue_topology("nvme", scenario.submission_queues)
                   if scenario.interface == "nvme" else None)
    volume = None
    if scenario.stripe > 1:
        data_target = StripedVolume(sim, data_devices,
                                    timeout_policy=scenario.timeout_policy,
                                    queue_model=queue_model)
    elif scenario.mirror > 1:
        volume = MirroredVolume(sim, data_devices,
                                timeout_policy=scenario.timeout_policy,
                                queue_model=queue_model)
        data_target = volume
    else:
        data_target = data_devices[0]
    if scenario.checksums and scenario.mirror <= 1:
        # Unreplicated defense: fingerprint writes, fail-stop bad reads.
        data_target = VerifyingTarget(as_target(
            sim, data_target, timeout_policy=scenario.timeout_policy,
            queue_model=queue_model))
    defended_target = data_target
    audit = None
    if scenario.corruption is not None:
        # Harness-side oracle OUTSIDE any defense: a corrupt value that
        # makes it past this point was served to the host undetected.
        audit = VerifyingTarget(as_target(
            sim, data_target, timeout_policy=scenario.timeout_policy,
            queue_model=queue_model),
            fail_stop=False)
        data_target = audit
    data_fs = FileSystem(sim, data_target, barriers=barriers,
                         timeout_policy=scenario.timeout_policy,
                         queue_model=queue_model)
    log_fs = FileSystem(sim, log_device, barriers=barriers,
                        timeout_policy=scenario.timeout_policy,
                        queue_model=queue_model)
    # Keep the WAL ring well inside the shrunken log device.
    log_ring = min(192 * units.MIB, log_capacity // 4)
    if scenario.engine == "commercial":
        config = CommercialConfig(page_size=scenario.page_size,
                                  buffer_pool_bytes=scenario.buffer_pool_bytes,
                                  log_capacity_bytes=log_ring)
        engine = CommercialEngine(sim, data_fs, log_fs, config)
    else:
        config = InnoDBConfig(page_size=scenario.page_size,
                              buffer_pool_bytes=scenario.buffer_pool_bytes,
                              doublewrite=scenario.doublewrite,
                              log_capacity_bytes=log_ring,
                              admission_control=scenario.admission_control)
        engine = InnoDBEngine(sim, data_fs, log_fs, config)
    for device in devices:
        device.record_acks = True
    if scenario.checksums:
        # Record-checksum verification of the redo log during recovery.
        engine.wal.verify_on_recovery = True
    degradation = getattr(engine, "degradation", None)
    scrubber = None
    if scenario.scrub:
        scrubber = Scrubber(
            sim, defended_target,
            escalate=(degradation.record_escalation
                      if degradation is not None else None))
        if volume is not None:
            # Repairs pause the scrubber; finished rebuilds hand it the
            # copied blocks for re-verification.
            volume.scrubber = scrubber
    rebuilder = None
    if volume is not None and spare_devices:
        rebuilder = Rebuilder(
            sim, volume, spares=list(spare_devices),
            pace=scenario.rebuild_pace or 5e-4,
            escalate=(degradation.record_escalation
                      if degradation is not None else None))
    lb_config = LinkBenchConfig(db_bytes=scenario.db_bytes,
                                seed=scenario.seed)
    workload = LinkBenchWorkload(engine, lb_config)
    # The promise under test: either every cache is durable (DuraSSD's
    # claim), or the host kept barriers on AND multi-block pages are
    # protected against tearing (double-write, or single-LBA pages —
    # only DuraSSD makes whole *commands* atomic).  Anything else
    # promises nothing, and its violations are findings, not failures.
    expected_clean = all_durable or (
        barriers and (scenario.doublewrite
                      or scenario.page_size <= units.LBA_SIZE))
    if scenario.corruption is not None and not scenario.corruption.quiet:
        # Silently rotting media voids the crash-consistency promise:
        # even a mirror loses data when both replicas of a block fault
        # (detected, fail-stop — but lost).  What an integrity-armed
        # world *does* promise is detection: any ``integrity:``
        # violation still fails the trial via ``integrity_expected``.
        expected_clean = False
    return TortureWorld(sim, engine, devices, workload, barriers,
                        expected_clean, data_devices=data_devices,
                        audit=audit, scrubber=scrubber,
                        integrity_expected=scenario.integrity_armed,
                        volume=volume, rebuilder=rebuilder,
                        spare_devices=spare_devices)


def generate_ops(scenario):
    """The scenario's deterministic (name, node) operation stream."""
    config = LinkBenchConfig(db_bytes=scenario.db_bytes, seed=scenario.seed)
    rng = make_rng(("torture-ops", scenario.seed))
    sampler = NodeSampler(config, rng)
    write_sampler = NodeSampler(config, rng, config.write_hot_fraction)
    names = [name for name, _w, _k in OPERATION_MIX]
    weights = [weight for _n, weight, _k in OPERATION_MIX]
    kinds = {name: kind for name, _w, kind in OPERATION_MIX}
    ops = []
    for _ in range(scenario.ops):
        name = rng.choices(names, weights=weights)[0]
        node = (write_sampler.next() if kinds[name] == "write"
                else sampler.next())
        ops.append((name, int(node)))
    return ops


def _client(workload, ops, progress):
    """Single sequential client replaying a pre-drawn operation list.

    Detected corruption (fail-stop checksum errors) and read-only
    rejections are tolerated and tallied — in an integrity world the
    *defense* turning a wrong answer into an error is the correct
    outcome, and the client must keep replaying the stream.  Classic
    worlds never raise either, so the handlers are inert there.
    """
    for index, (name, node) in enumerate(ops):
        try:
            yield from workload._operation(name, node)
        except (CorruptDataError, TornPageError):
            # Host checksum or database page checksum fired: the wrong
            # answer became an error.  Both are detection points in the
            # threat model.
            progress["corrupt_detected"] = \
                progress.get("corrupt_detected", 0) + 1
        except DegradedError:
            progress["rejected"] = progress.get("rejected", 0) + 1
        progress["completed"] = index + 1


class Recording:
    """Result of the record phase: cut candidates + determinism marks."""

    def __init__(self, ops, cut_candidates, ack_times, end_time,
                 processed_events):
        self.ops = ops
        self.cut_candidates = cut_candidates
        self.ack_times = ack_times
        self.end_time = end_time
        self.processed_events = processed_events

    def __repr__(self):
        return ("<Recording ops=%d candidates=%d events=%d>"
                % (len(self.ops), len(self.cut_candidates),
                   self.processed_events))


def record(scenario, ops=None, telemetry=None):
    """Run the full stream once, uncut, and derive the cut candidates.

    Candidates are the midpoints between consecutive *distinct* ack
    instants (cutting exactly at an ack time would be order-ambiguous:
    the injector's event sorts before same-instant acks), plus one
    point before the first ack and one just after the last.
    """
    if ops is None:
        ops = generate_ops(scenario)
    world = build_world(scenario, telemetry)
    progress = {"completed": 0}
    done = world.sim.process(_client(world.workload, ops, progress))
    world.sim.run_until(done)
    world.engine.stop_cleaner()
    ack_times = sorted({rec.time for device in world.devices
                        for rec in device.ack_log})
    candidates = []
    if ack_times:
        candidates.append(ack_times[0] * 0.5)
        for earlier, later in zip(ack_times, ack_times[1:]):
            candidates.append((earlier + later) / 2.0)
        candidates.append(ack_times[-1] + _AFTER_LAST_ACK)
    return Recording(ops, candidates, ack_times, world.sim.now,
                     world.sim.processed_events)


def verify_determinism(scenario, ops=None):
    """Record twice; identical worlds must yield identical fingerprints."""
    first = record(scenario, ops)
    second = record(scenario, ops)
    return (first.processed_events == second.processed_events
            and first.cut_candidates == second.cut_candidates
            and first.end_time == second.end_time)


class TrialResult:
    """One rebuilt world, one (possibly nested) cut, one verdict."""

    def __init__(self, cut_time, nested=None):
        self.cut_time = cut_time
        self.nested = nested
        self.fired = False
        self.nested_performed = False
        self.ops_completed = 0
        self.device_reports = {}
        self.order_inversions = {}
        self.db_report = None
        self.violations = []
        self.expected_clean = True
        self.integrity_expected = False
        self.undetected_corrupt_reads = 0
        self.corrupt_detected = 0
        self.recovery_seconds = 0.0

    @property
    def clean(self):
        return not self.violations

    @property
    def failed(self):
        """A violation where the configuration promised none.

        An integrity-armed world additionally fails on any
        ``integrity:`` violation even when silent corruption voided the
        crash-consistency promise — checksums promise *detection*
        regardless of whether the data can be recovered.
        """
        if self.expected_clean and self.violations:
            return True
        return self.integrity_expected and any(
            violation.startswith("integrity:")
            for violation in self.violations)

    def to_json(self):
        return {
            "cut_time": self.cut_time,
            "nested": list(self.nested) if self.nested else None,
            "fired": self.fired,
            "nested_performed": self.nested_performed,
            "ops_completed": self.ops_completed,
            "expected_clean": self.expected_clean,
            "integrity_expected": self.integrity_expected,
            "undetected_corrupt_reads": self.undetected_corrupt_reads,
            "corrupt_detected": self.corrupt_detected,
            "violations": list(self.violations),
            "recovery_seconds": self.recovery_seconds,
        }

    def __repr__(self):
        return ("<TrialResult cut=%.6f fired=%r nested=%r violations=%d>"
                % (self.cut_time, self.fired, self.nested,
                   len(self.violations)))


def _recover_devices(world, injector, nested, result):
    """Reboot every device; optionally interrupt a dump replay mid-way
    with a second power cut, then recover in full."""
    total = 0.0
    if nested and nested[0] == "device-recovery":
        budget = nested[1]
        for device in world.devices:
            manager = getattr(device, "recovery_manager", None)
            if manager is not None and manager.needs_recovery():
                total += device.reboot(interrupt_recovery_after=budget)
                if manager.needs_recovery():
                    # The replay was cut short: power-cycle again.  The
                    # dump image survived (merged), so the second replay
                    # recovers everything.
                    result.nested_performed = True
                    device.power_fail()
                    total += device.reboot()
            else:
                total += device.reboot()
        injector.cancel_pending_cuts()
    else:
        for seconds in injector.reboot_all().values():
            total += seconds
    return total


def run_trial(scenario, ops, cut_time, nested=None, telemetry=None):
    """Rebuild the world, replay ``ops``, cut at ``cut_time``, recover,
    and check every invariant.

    ``nested`` is ``None``, ``("device-recovery", k)`` (cut again after
    ``k`` replayed dump items) or ``("db-recovery", k)`` (cut again
    after ``k`` recovery page installs).
    """
    world = build_world(scenario, telemetry)
    sim = world.sim
    injector = PowerFailureInjector(sim, world.devices)
    progress = {"completed": 0}
    done = sim.process(_client(world.workload, ops, progress))
    cut = injector.schedule_cut(cut_time)
    result = TrialResult(cut_time, nested)
    result.expected_clean = world.expected_clean
    result.integrity_expected = world.integrity_expected
    with sim.telemetry.span("torture.trial", "failures",
                            device=scenario.device, engine=scenario.engine,
                            cut_time=cut_time) as span:
        sim.run_until(done)
        result.fired = cut.fired
        result.ops_completed = progress["completed"]
        result.corrupt_detected = progress.get("corrupt_detected", 0)
        # The integrity safety verdict holds at *every* instant, cut or
        # no cut: no acked read returned corrupted data undetected.
        result.undetected_corrupt_reads = \
            check_undetected_corruption(world.audit)
        if result.undetected_corrupt_reads:
            result.violations.append(
                "integrity:undetected-corrupt-read:count=%d"
                % result.undetected_corrupt_reads)
        if not cut.fired:
            # The stream finished before the cut: nothing else to check.
            span.annotate(fired=False)
            world.engine.stop_cleaner()
            return result
        world.engine.stop_cleaner()
        sim.telemetry.instant("torture.cut", "failures",
                              at=sim.now, ops_completed=result.ops_completed)
        with sim.telemetry.span("torture.device_recovery", "failures",
                                nested=bool(nested)):
            result.recovery_seconds = _recover_devices(world, injector,
                                                       nested, result)
        # Block-level invariants, checked *before* database recovery can
        # repair (and thereby mask) device-level anomalies.
        for device in world.devices:
            report = check_device(device)
            inversions = check_write_order(device)
            result.device_reports[device.name] = report
            result.order_inversions[device.name] = inversions
            # A device with an armed corruption model deliberately
            # violates block-level durability — that is the injection,
            # not a finding.  The verdict moves up the stack: the
            # volume/database layers must detect (and, mirrored,
            # repair) it, which the integrity checks above assert.
            if device.claims_durable_cache and device.corruption is None:
                for violation in report.violations:
                    result.violations.append(
                        "device:%s:%s:lba=%d" % (device.name, violation.kind,
                                                 violation.lba))
                for missing, present in inversions:
                    result.violations.append(
                        "device:%s:reorder:%d>%d" % (device.name, missing,
                                                     present))
        # Database recovery, optionally crashed in the middle and re-run.
        durable_log = world.log_device.claims_durable_cache
        with sim.telemetry.span("torture.db_recovery", "failures",
                                nested=bool(nested)):
            if nested and nested[0] == "db-recovery":
                first_pass = dbrecovery.recover(
                    world.engine, durable_log,
                    crash_after_installs=nested[1])
                if first_pass.interrupted:
                    result.nested_performed = True
                    injector.execute_cut()
                    injector.reboot_all()
            report = dbrecovery.recover(world.engine, durable_log)
            dbrecovery.check_consistency(world.engine, report)
        result.db_report = report
        for txn_id in report.lost_committed_txns:
            result.violations.append("db:lost-txn:%s" % (txn_id,))
        for key in report.torn_unrepairable:
            result.violations.append("db:torn-page:%s" % (key,))
        for kind, key, found, want in report.consistency_violations:
            result.violations.append(
                "db:%s:%s:found=%s:want=%s" % (kind, key, found, want))
        span.annotate(violations=len(result.violations),
                      failed=result.failed)
    return result


class SweepResult:
    """Outcome of a full crash-point sweep."""

    def __init__(self, scenario, recording, mode):
        self.scenario = scenario
        self.recording = recording
        self.mode = mode
        self.trials = []
        self.failures = []
        self.first_failure = None

    @property
    def clean(self):
        return not self.failures

    def summary(self):
        nested = sum(1 for t in self.trials if t.nested_performed)
        return {
            "mode": self.mode,
            "candidates": len(self.recording.cut_candidates),
            "trials": len(self.trials),
            "nested_trials": nested,
            "failures": len(self.failures),
            "violations": sum(len(t.violations) for t in self.trials),
            "expected_clean": (self.trials[0].expected_clean
                               if self.trials else True),
        }

    def __repr__(self):
        return "<SweepResult %r>" % (self.summary(),)


#: Sweeps at or below this many candidates run exhaustively by default.
EXHAUSTIVE_LIMIT = 400


def sweep(scenario, max_trials=None, nested_stride=5, nested_budget=1,
          stop_on_failure=False, telemetry=None):
    """Record once, then torture every (sampled) cut point.

    ``max_trials`` caps the number of primary cut points; when the
    candidate list is longer, a seeded sample is swept instead and any
    failure is refined by bisection back toward the earliest failing
    candidate.  Every ``nested_stride``-th fired trial is additionally
    re-run with a nested cut during device recovery and during database
    recovery (``nested_budget`` items/installs deep).
    """
    recording = record(scenario, telemetry=telemetry)
    candidates = recording.cut_candidates
    limit = EXHAUSTIVE_LIMIT if max_trials is None else max_trials
    if len(candidates) <= limit:
        indices = list(range(len(candidates)))
        mode = "exhaustive"
    else:
        rng = make_rng(("torture-sample", scenario.seed))
        indices = sorted(rng.sample(range(len(candidates)), limit))
        mode = "sampled"
    result = SweepResult(scenario, recording, mode)
    passed_indices = set()
    failed_indices = set()

    def run_one(index, nested=None):
        trial = run_trial(scenario, recording.ops, candidates[index],
                          nested=nested, telemetry=telemetry)
        result.trials.append(trial)
        if trial.failed:
            result.failures.append(trial)
            failed_indices.add(index)
        elif nested is None:
            passed_indices.add(index)
        return trial

    for position, index in enumerate(indices):
        trial = run_one(index)
        if trial.fired and nested_stride and position % nested_stride == 0:
            run_one(index, nested=("device-recovery", nested_budget))
            run_one(index, nested=("db-recovery", nested_budget))
        if stop_on_failure and result.failures:
            break

    if mode == "sampled" and failed_indices and not stop_on_failure:
        # Bisection refinement: close in on the earliest failing
        # candidate between the last sampled pass and the first sampled
        # failure.
        high = min(failed_indices)
        lower_passes = [i for i in passed_indices if i < high]
        low = max(lower_passes) if lower_passes else -1
        while high - low > 1:
            middle = (low + high) // 2
            trial = run_one(middle)
            if trial.failed:
                high = middle
            else:
                low = middle
        result.first_failure = candidates[high]
    elif failed_indices:
        result.first_failure = candidates[min(failed_indices)]
    return result


def make_artifact(scenario, ops, cut_time, nested, trial):
    """A self-contained, replayable description of one failure."""
    return {
        "format": ARTIFACT_FORMAT,
        "scenario": scenario.to_json(),
        "ops": [[name, node] for name, node in ops],
        "cut_time": cut_time,
        "nested": list(nested) if nested else None,
        "violations": list(trial.violations),
    }


def replay_artifact(artifact, telemetry=None):
    """Re-run a minimized repro from its JSON alone; returns the trial."""
    if isinstance(artifact, (str, bytes)):
        artifact = json.loads(artifact)
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError("not a torture artifact: %r"
                         % (artifact.get("format"),))
    scenario = TortureScenario.from_json(artifact["scenario"])
    ops = [(name, node) for name, node in artifact["ops"]]
    nested = tuple(artifact["nested"]) if artifact.get("nested") else None
    return run_trial(scenario, ops, artifact["cut_time"], nested=nested,
                     telemetry=telemetry)


def minimize(scenario, ops, nested=None, probe_budget=8, predicate=None,
             telemetry=None):
    """Shrink a failing schedule to (shortest op prefix, earliest cut).

    Binary-searches the shortest operation prefix that still fails at
    *some* cut point (probing up to ``probe_budget`` late candidates per
    prefix — data lost at a cut is most often data produced near the
    end), then scans that prefix's candidates for the earliest failing
    one.  Returns a replayable artifact dict, or ``None`` when not even
    the full stream fails.

    ``predicate`` decides what counts as failing; the default is
    :attr:`TrialResult.failed` (a broken promise).  Pass
    ``lambda trial: not trial.clean`` to minimize any violating
    schedule, e.g. an expected anomaly of a volatile-cache preset.
    """
    if predicate is None:
        predicate = lambda trial: trial.failed

    def prefix_failure(length):
        prefix = ops[:length]
        recording = record(scenario, prefix, telemetry=telemetry)
        probes = recording.cut_candidates[-probe_budget:]
        for cut_time in reversed(probes):
            trial = run_trial(scenario, prefix, cut_time, nested=nested,
                              telemetry=telemetry)
            if predicate(trial):
                return recording, cut_time, trial
        return None

    if prefix_failure(len(ops)) is None:
        return None
    low, high = 1, len(ops)
    best = None
    while low < high:
        middle = (low + high) // 2
        found = prefix_failure(middle)
        if found is not None:
            best = (middle, found)
            high = middle
        else:
            low = middle + 1
    if best is None:
        length = len(ops)
        found = prefix_failure(length)
    else:
        length, found = best
    recording, cut_time, trial = found
    # Earliest failing cut for the minimized prefix.
    for candidate in recording.cut_candidates:
        if candidate >= cut_time:
            break
        earlier = run_trial(scenario, ops[:length], candidate,
                            nested=nested, telemetry=telemetry)
        if predicate(earlier):
            cut_time, trial = candidate, earlier
            break
    return make_artifact(scenario, ops[:length], cut_time, nested, trial)
