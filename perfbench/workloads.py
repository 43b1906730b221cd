"""The three lifecycle workloads: set-up, one closed-loop operation, checks.

Each workload drives the unmodified program from one thread, with the
default deployment: a plain unsharded store, one worker, the program's
own telemetry at its defaults (reset before each set-up), and the master
store journalling to a WAL (fsync off, no snapshots) in a directory
under ``perfbench/out``.

An operation's latency covers only its timed segments
(:meth:`Segments.run`).  The emulator's ``add_device``/``sync_wiring``
bookkeeping stands in for physical cabling and stays outside them.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro import Robotron, obs, seed_environment
from repro.configgen.generator import ConfigGenerator
from repro.design.fleet import FLEET_224, FleetProfile, build_fleet
from repro.design.workload import ZipfReadWorkload
from repro.fbnet.api import ReadApi
from repro.fbnet.models import ClusterGeneration, Device, DeviceStatus
from repro.fbnet.query import Expr, Op, Query
from repro.fbnet.replication import ReplicatedFBNet
from repro.simulation.executor import WorkloadExecutor
from repro.simulation.workloads import DesignChangeOp, DesignChangeWorkload

OUT_DIR = Path(__file__).resolve().parent / "out"

#: The churn base: 2 DC Gen3 clusters plus 4 backbone sites x 2 meshed
#: routers (64 devices) on FLEET_224's regions.  Every migrate_circuit
#: regenerates the whole fleet, so on a 120-device base a change takes
#: ~0.5 s on average and a 25 s run would hold too few changes for a p90
#: with ten samples beyond it; this base keeps a run above 100 changes.
CHURN_BASE = FleetProfile(
    name="churn_base",
    region_names=FLEET_224.region_names,
    datacenter_count=2,
    pop_count=2,
    backbone_site_count=4,
    backbone_routers_per_site=2,
    backbone_mesh=True,
)

#: Share of read_mix requests that are writes.
WRITE_SHARE = 0.05
#: Simulated seconds the clock advances after each read_mix write: past
#: the replication lag, so every write is applied in every region before
#: the next request.
WRITE_SETTLE_S = 1.0


@dataclass
class Step:
    """What one operation did."""

    ok: bool
    #: Work units completed, for the throughput metric.
    units: int
    #: Whether its latency is a sample of the workload's latency metrics.
    sample: bool
    kind: str


class Segments:
    """Times the timed parts of one operation; arms the tracer for them."""

    def __init__(self, tracer=None):
        self.seconds = 0.0
        self._tracer = tracer

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if self._tracer is not None:
            self._tracer.active = True
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += perf_counter() - started
            if self._tracer is not None:
                self._tracer.active = False


def interleave(ops: list[DesignChangeOp], key: Callable, weights: dict) -> deque:
    """Smooth weighted round-robin over op classes, keeping order within each.

    Every prefix of the result holds each class in proportion to its
    weight, so a run that stops after any number of operations has the
    same mix at every seed; the seed still picks targets and sites.
    """
    queues = {name: deque(op for op in ops if key(op) == name) for name in weights}
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0.0)
    out: deque = deque()
    while any(queues.values()):
        live = [name for name in weights if queues[name]]
        for name in live:
            credit[name] += weights[name]
        chosen = max(live, key=lambda name: credit[name])
        credit[chosen] -= total
        out.append(queues[chosen].popleft())
    return out


class Workload:
    """One workload: ``setup`` a fresh instance, ``step`` it, ``check`` it."""

    name = ""
    #: The quantile reported as the latency tail.
    tail = 0.90
    #: Operations per set-up in a timed run (None: one set-up throughout).
    epoch_ops: int | None = None

    def __init__(self, seed: int):
        self.seed = seed
        self._wal_dir: Path | None = None

    def _new_wal_dir(self) -> Path:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._wal_dir = Path(tempfile.mkdtemp(prefix=f"wal-{self.name}-", dir=OUT_DIR))
        return self._wal_dir

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, segments: Segments) -> Step | None:
        """Run the next operation; ``None`` when the schedule is exhausted."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Correctness failures after the run (empty when correct)."""
        raise NotImplementedError

    def wal_bytes(self) -> int:
        if self._wal_dir is None:
            return 0
        return sum(path.stat().st_size for path in self._wal_dir.iterdir())

    def cache_stats(self) -> dict[str, float]:
        return {}

    def teardown(self) -> None:
        self._close_wal()
        if self._wal_dir is not None:
            shutil.rmtree(self._wal_dir, ignore_errors=True)
            self._wal_dir = None

    def _close_wal(self) -> None:
        raise NotImplementedError


class Turnup(Workload):
    """Cluster turn-ups from an empty seeded environment (paper §6.2)."""

    name = "turnup"
    #: One cluster of each generation (84 devices).  A turn-up's latency
    #: grows with the fleet already built, so with longer epochs the p50
    #: and p90 fall among turn-ups that each ran once and read as noisy as
    #: a single 0.5 s timing; with five, a run of k epochs repeats each
    #: turn-up k times and both fall inside a group of repeats.
    epoch_ops = len(ClusterGeneration)

    def setup(self) -> None:
        robotron = Robotron()
        robotron.attach_durability(self._new_wal_dir())
        self.env = seed_environment(
            robotron.store,
            region_names=FLEET_224.region_names,
            pop_count=FLEET_224.pop_count,
            datacenter_count=FLEET_224.datacenter_count,
            backbone_site_count=FLEET_224.backbone_site_count,
        )
        robotron.boot_fleet()
        robotron.attach_monitoring()
        self.robotron = robotron
        schedule = DesignChangeWorkload(seed=self.seed).schedule()
        builds = [op for op in schedule if op.kind == "build_cluster"]
        self._ops = interleave(
            builds,
            lambda op: op.params["generation"],
            dict.fromkeys(ClusterGeneration, 1.0),
        )
        self._rng = random.Random(self.seed)
        self._built = 0
        self.reports = []

    def step(self, segments: Segments) -> Step | None:
        if not self._ops:
            return None
        generation = self._ops.popleft().params["generation"]
        pop = generation.value.startswith("pop")
        sites = self.env.pops if pop else self.env.datacenters
        location = sites[self._rng.choice(sorted(sites))]
        self._built += 1
        robotron = self.robotron
        cluster = segments.run(
            robotron.build_cluster,
            f"{location.name}.c{self._built:03d}",
            location,
            generation,
            employee_id="turnup",
            ticket_id=f"TURNUP-{self._built:04d}",
        )
        devices = cluster.all_devices()
        for device in devices:
            robotron.fleet.add_device(
                device.name, device.vendor().value, role=device.role.value
            )
        robotron.fleet.sync_wiring(robotron.store)
        report = segments.run(robotron.provision_cluster, cluster)
        self.reports.append(report)
        return Step(ok=report.ok, units=len(devices), sample=True, kind="cluster")

    def check(self) -> list[str]:
        failures = [
            f"provision report not ok: {report.failed}"
            for report in self.reports
            if not report.ok
        ]
        drift = self.robotron.confmon.check_all()
        if drift:
            failures.append(f"ConfMon found drift on {[d.device for d in drift]}")
        if not self.robotron.fleet.all_bgp_established():
            failures.append("not every BGP session is established")
        return failures

    def _close_wal(self) -> None:
        self.robotron.store.detach_durability()


class Churn(Workload):
    """Steady design churn on a provisioned fleet (paper §5.1.2)."""

    name = "churn"

    def setup(self) -> None:
        robotron = Robotron()
        robotron.attach_durability(self._new_wal_dir())
        build = build_fleet(robotron.store, CHURN_BASE)
        robotron.boot_fleet()
        report = robotron.provision_devices(build.all_devices())
        if not report.ok:
            raise RuntimeError(f"churn base failed to provision: {report.failed}")
        robotron.attach_monitoring()
        self.robotron = robotron
        self.executor = WorkloadExecutor(robotron.store, build.env, seed=self.seed)
        workload = DesignChangeWorkload(seed=self.seed)
        ops = [op for op in workload.schedule() if op.kind != "build_cluster"]
        self._ops = interleave(
            ops,
            lambda op: op.kind,
            {
                "add_rack": workload.rack_changes_per_week,
                "add_router": workload.router_adds_per_week,
                "delete_router": workload.router_deletes_per_week,
                "add_circuit": workload.circuit_adds_per_week,
                "migrate_circuit": workload.circuit_migrations_per_week,
                "delete_circuit": workload.circuit_deletes_per_week,
            },
        )
        #: Ops the executor skipped for a missing precondition, with why.
        self.skipped: list[tuple[str, str]] = []

    def step(self, segments: Segments) -> Step | None:
        if not self._ops:
            return None
        op = self._ops.popleft()
        robotron = self.robotron
        skipped_before = len(self.executor.skipped)
        executed = segments.run(self.executor.execute, op)
        if executed is None:
            _op, reason = self.executor.skipped[skipped_before]
            self.skipped.append((op.kind, reason))
            return Step(ok=True, units=0, sample=False, kind="skipped")
        store, fleet = robotron.store, robotron.fleet
        new_devices = []
        for name in dict.fromkeys(executed.touched_devices):
            if name in fleet.devices:
                continue
            device = store.first(Device, Expr("name", Op.EQUAL, name))
            if device is not None:
                fleet.add_device(name, device.vendor().value, role=device.role.value)
                new_devices.append(device)
        fleet.sync_wiring(store)
        ok = True
        if new_devices:
            ok = segments.run(robotron.provision_devices, new_devices).ok
        cycle = segments.run(robotron.incremental_cycle)
        return Step(ok=ok and cycle.ok, units=1, sample=True, kind=op.kind)

    def check(self) -> list[str]:
        failures = []
        store = self.robotron.store
        golden = self.robotron.generator.golden
        fresh = ConfigGenerator(store).generate_devices(store.all(Device))
        if sorted(fresh) != sorted(golden):
            failures.append(
                "incremental golden set differs from a full regeneration: "
                f"{sorted(set(fresh) ^ set(golden))}"
            )
        differing = sorted(
            name
            for name, config in fresh.items()
            if name in golden and golden[name].text != config.text
        )
        if differing:
            failures.append(f"incremental configs differ from full on {differing}")
        drift = self.robotron.confmon.check_all()
        if drift:
            failures.append(f"ConfMon found drift on {[d.device for d in drift]}")
        return failures

    def _close_wal(self) -> None:
        self.robotron.store.detach_durability()


class ReadMix(Workload):
    """Front-door reads with a trickle of writes over replicated FBNet."""

    name = "read_mix"
    tail = 0.99

    def setup(self) -> None:
        regions = list(FLEET_224.region_names)
        fbnet = ReplicatedFBNet(regions, regions[0], cache_reads=True)
        fbnet.attach_master_durability(self._new_wal_dir())
        build_fleet(fbnet.master.store, FLEET_224)
        fbnet.scheduler.run_for(WRITE_SETTLE_S)
        self.fbnet = fbnet
        self.clients = [fbnet.client(region) for region in regions]
        master = fbnet.master.store
        # Each region's users have their own popularity ranking.  With a
        # single ranking, which few devices and sites the seed makes hot
        # swings a run's cost by up to ~20%; three rankings average that.
        seeds = [self.seed * len(regions) + index for index in range(len(regions))]
        self.readers = [ZipfReadWorkload.over_store(master, seed=s) for s in seeds]
        # A second stream at each region's seed shares its readers'
        # ranking; that region's writes take their target from its requests.
        self.writers = [ZipfReadWorkload.over_store(master, seed=s) for s in seeds]
        self._coin = random.Random(self.seed)
        self._by_name: dict[str, list] = {}
        self._by_id: dict[int, list] = {}
        for device in master.all(Device):
            entry = [type(device).__name__, device.id, device.status]
            self._by_name[device.name] = entry
            self._by_id[device.id] = entry
        self._requests = 0
        self.write_latencies: list[float] = []
        self.mismatches: list[str] = []

    def step(self, segments: Segments) -> Step | None:
        region = self._requests % len(self.clients)
        client = self.clients[region]
        self._requests += 1
        if self._coin.random() < WRITE_SHARE:
            entry = self._write_target(self.writers[region])
            statuses = list(DeviceStatus)
            entry[2] = statuses[(statuses.index(entry[2]) + 1) % len(statuses)]
            update = [(entry[0], entry[1], {"status": entry[2].value})]
            started = perf_counter()
            segments.run(client.update_objects, update)
            self.write_latencies.append(perf_counter() - started)
            segments.run(self.fbnet.scheduler.run_for, WRITE_SETTLE_S)
            return Step(ok=True, units=0, sample=False, kind="write")
        spec = self.readers[region].next()
        query = Query.from_wire(spec.query)
        fields = list(spec.fields) if spec.fields is not None else None
        rows = segments.run(client.get, spec.model, fields, query)
        if self._requests % 997 == 0:
            self._compare(client, spec.model, fields, query, rows)
        return Step(ok=True, units=1, sample=True, kind="read")

    def _write_target(self, writer: ZipfReadWorkload) -> list:
        while True:
            spec = writer.next()
            if spec.kind not in ("device_page", "device_linecards"):
                continue
            (target,) = Query.from_wire(spec.query).rvalues
            if spec.kind == "device_page":
                return self._by_name[target]
            return self._by_id[target]

    def _compare(self, client, model, fields, query, rows) -> None:
        region = self.fbnet.regions[client.region]
        want = ReadApi(region.store).get(model, fields, query)
        if json.dumps(rows, sort_keys=True) != json.dumps(want, sort_keys=True):
            self.mismatches.append(f"{client.region} {model} {query!r}")

    def check(self) -> list[str]:
        self.fbnet.scheduler.run_for(WRITE_SETTLE_S)
        sample = ZipfReadWorkload.over_store(self.fbnet.master.store, seed=self.seed)
        for index in range(300):
            spec = sample.next()
            client = self.clients[index % len(self.clients)]
            query = Query.from_wire(spec.query)
            fields = list(spec.fields) if spec.fields is not None else None
            rows = client.get(spec.model, fields, query)
            self._compare(client, spec.model, fields, query, rows)
        failures = [
            f"cached answer differs from ReadApi: {mismatch}"
            for mismatch in self.mismatches[:5]
        ]
        if self.cache_stats()["hits"] == 0:
            failures.append("the region caches served no hits")
        return failures

    def cache_stats(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for region in self.fbnet.regions.values():
            for key, value in region.cache.stats().items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def _close_wal(self) -> None:
        self.fbnet.master.store.detach_durability()


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Turnup, Churn, ReadMix)
}


def fresh(name: str, seed: int) -> Workload:
    """A set-up instance of workload ``name``; resets the program's telemetry."""
    obs.reset()
    workload = WORKLOADS[name](seed)
    workload.setup()
    return workload
