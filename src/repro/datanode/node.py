"""One simulated DataNode: disk, heartbeats, and chunk storage.

A :class:`DataNode` is a DES actor owned by a
:class:`~repro.datanode.fleet.DataNodeFleet`.  Its disk state (the
set of block replicas it holds) survives a :meth:`kill` — a killed
node is unreachable, not wiped — so a node that :meth:`restart`\\ s
rejoins with its replicas intact, exactly like an HDFS DataNode
coming back after a reboot.

The heartbeat loop ticks for the node's whole life; a dead node
simply stops *recording* beats at the tracker.  Restart therefore
needs no process respawn (which would perturb event ids), keeping
flapping nodes cheap and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Set

if TYPE_CHECKING:  # pragma: no cover
    from repro.datanode.fleet import DataNodeFleet


@dataclass(frozen=True)
class DataNodeFleetConfig:
    """Shape and timing of the DataNode fleet."""

    count: int = 9
    racks: int = 3
    """Nodes are assigned round-robin to ``rack0..rack{racks-1}``."""
    replication: int = 3
    heartbeat_interval_ms: float = 500.0
    miss_threshold: int = 3
    """Heartbeats missed before the tracker declares a node dead
    (liveness cutoff = ``miss_threshold × heartbeat_interval_ms``)."""
    scan_interval_ms: float = 500.0
    """Tracker liveness scan and re-replication scan cadence."""
    publish_interval_ms: float = 3_000.0
    """Block-report publishing cadence into the metadata store (the
    serverless heartbeat substitute of §1/Fig. 2; 0 disables)."""
    net_ms_per_hop: float = 0.8
    net_jitter_ms: float = 0.2
    disk_ms_per_chunk: float = 2.5
    disk_jitter_ms: float = 0.5
    ack_ms_per_hop: float = 0.2
    repair_enabled: bool = True
    """Background re-replication on by default; the chaos
    ``datanode_kill`` fault's ``disable_repair`` param switches it off
    for the deliberately broken expected-FAIL path."""


class DataNode:
    """One DataNode actor: rack-labelled disk plus a heartbeat loop."""

    def __init__(self, fleet: "DataNodeFleet", node_id: str, rack: str) -> None:
        self.fleet = fleet
        self.env = fleet.env
        self.id = node_id
        self.rack = rack
        self.alive = True
        #: Block replicas on this node's disk (survives kill/restart).
        self.replicas: Set[int] = set()
        self.chunks_written = 0
        self.kills = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<DataNode {self.id} {self.rack} {state} blocks={len(self.replicas)}>"

    # -- fault surface -------------------------------------------------
    def kill(self) -> None:
        """Crash the node: heartbeats stop, replicas become unreachable."""
        if not self.alive:
            return
        self.alive = False
        self.kills += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.point("dn.kill", self.id, rack=self.rack)

    def restart(self) -> None:
        """Bring the node back with its disk intact."""
        if self.alive:
            return
        self.alive = True
        tracer = self.env.tracer
        if tracer is not None:
            tracer.point("dn.restart", self.id, rack=self.rack)
        # The next heartbeat tick re-records the node at the tracker;
        # a restart inside one miss window is therefore never observed
        # as a death (the flap case).

    # -- storage -------------------------------------------------------
    def write_chunk(self, block_id: int) -> Generator:
        """Persist one chunk; returns False if the node died mid-write.

        Disk service time is the configured per-chunk cost plus a
        jitter draw from the fleet's seeded stream, multiplied by any
        active ``disk_slow`` chaos factor.
        """
        config = self.fleet.config
        service = config.disk_ms_per_chunk
        if config.disk_jitter_ms > 0.0:
            service += self.fleet.rng.uniform(0.0, config.disk_jitter_ms)
        chaos = self.env.chaos
        if chaos is not None:
            service *= chaos.datanode_disk_factor(self.id, self.rack)
        yield self.env.timeout(service)
        if not self.alive:
            return False
        self.replicas.add(block_id)
        self.chunks_written += 1
        return True

    def read_chunk(self, block_id: int) -> Generator:
        """Read one chunk off disk (re-replication source side)."""
        config = self.fleet.config
        service = config.disk_ms_per_chunk / 2.0
        chaos = self.env.chaos
        if chaos is not None:
            service *= chaos.datanode_disk_factor(self.id, self.rack)
        yield self.env.timeout(service)
        return self.alive and block_id in self.replicas

    # -- heartbeats ----------------------------------------------------
    def heartbeat_loop(self) -> Generator:
        """Tick forever; record a beat at the tracker only while alive."""
        interval = self.fleet.config.heartbeat_interval_ms
        # Direct registry call: one beat per node per tick, and a point
        # would add a span per tick.
        metrics = self.env.metrics
        while True:
            yield self.env.timeout(interval)
            if self.alive:
                self.fleet.tracker.record(self.id)
                if metrics is not None:
                    metrics.inc("dn_heartbeats_total", rack=self.rack)
