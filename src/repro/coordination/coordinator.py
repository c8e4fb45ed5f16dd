"""Membership tracking and INV/ACK delivery.

The Coordinator implements exactly what Algorithm 1 needs:

1. a registry of live NameNode instances per deployment (with
   liveness notifications on termination);
2. reliable delivery of invalidations (INVs) to every live member of
   a deployment, and collection of their ACKs;
3. the rule that *"ACKs are not required from NameNodes that
   terminate mid-protocol"* — a member that deregisters while an INV
   is outstanding is dropped from the pending set so writers never
   block on the dead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Generator, Iterable, Optional, Set

from repro.sim import Environment, Event


@dataclass(frozen=True)
class CoordinatorConfig:
    """Latency knobs for one Coordinator backend."""

    publish_ms: float = 0.4
    """One-way delivery latency of an INV to one member."""
    ack_ms: float = 0.4
    """One-way latency of an ACK back to the leader."""
    watch_ms: float = 0.3
    """Latency of a liveness notification."""
    ack_retry_ms: float = 5.0
    """Redelivery backoff when a member's ACK goes missing (chaos ACK
    loss).  INV handlers are idempotent, so redelivering the whole
    INV is safe and the writer eventually collects every ACK."""
    ack_max_retries: int = 32
    """Redelivery attempts before the coordinator gives up on a
    member (0 disables redelivery — a lost ACK then strands the
    writer until the member deregisters).  Generous by default:
    redelivery is cheap and outlasts any plausible loss window."""


@dataclass(frozen=True)
class Invalidation:
    """One invalidation message.

    ``prefix`` selects subtree (prefix) semantics: members invalidate
    every cached path under it.  Otherwise ``paths`` lists the exact
    entries to drop.
    """

    inv_id: int
    deployment: str
    paths: tuple = ()
    prefix: Optional[str] = None

    @property
    def is_subtree(self) -> bool:
        return self.prefix is not None


class _PendingInv:
    __slots__ = ("waiting", "event")

    def __init__(self, env: Environment, members: Set[str]) -> None:
        self.waiting = set(members)
        self.event = Event(env)
        if not self.waiting:
            self.event.succeed(0)


class Coordinator:
    """Base Coordinator; see subclasses for backend latencies."""

    def __init__(self, env: Environment, config: Optional[CoordinatorConfig] = None) -> None:
        self.env = env
        self.config = config or CoordinatorConfig()
        # deployment -> member_id -> INV handler callback
        self._members: Dict[str, Dict[str, Callable[[Invalidation], None]]] = {}
        self._pending: Dict[int, _PendingInv] = {}
        self._inv_ids = count(1)
        self._death_watchers: Dict[str, list] = {}
        self.invs_sent = 0
        self.acks_received = 0

    # -- membership ------------------------------------------------------
    def register(
        self,
        deployment: str,
        member_id: str,
        inv_handler: Callable[[Invalidation], None],
    ) -> None:
        """Announce a live NameNode instance."""
        self._members.setdefault(deployment, {})[member_id] = inv_handler

    def deregister(self, deployment: str, member_id: str) -> None:
        """Remove an instance (normal scale-in or crash).

        Outstanding INVs waiting on this member are released, per the
        "no ACK required from terminated NameNodes" rule.
        """
        members = self._members.get(deployment, {})
        members.pop(member_id, None)
        for pending in list(self._pending.values()):
            if member_id in pending.waiting:
                pending.waiting.discard(member_id)
                if not pending.waiting and not pending.event.triggered:
                    pending.event.succeed(0)
        for callback in self._death_watchers.pop(member_id, []):
            self.env.process(self._notify_death(callback, member_id))

    def live_members(self, deployment: str) -> Set[str]:
        """Ids of instances currently alive in ``deployment``."""
        return set(self._members.get(deployment, {}))

    def deployments(self) -> Set[str]:
        """Names of deployments with at least one registered member."""
        return {name for name, members in self._members.items() if members}

    def inv_handler(self, deployment: str, member_id: str):
        """The registered INV handler for a member (or None).

        Lets fault injection capture a handler before a simulated
        deregistration so the member can rejoin with it afterwards.
        """
        return self._members.get(deployment, {}).get(member_id)

    def live_count(self, deployment: str) -> int:
        return len(self._members.get(deployment, {}))

    def watch_death(self, member_id: str, callback: Callable[[str], None]) -> None:
        """Invoke ``callback(member_id)`` when the member deregisters."""
        self._death_watchers.setdefault(member_id, []).append(callback)

    def _notify_death(self, callback: Callable[[str], None], member_id: str) -> Generator:
        yield self.env.timeout(self.config.watch_ms)
        callback(member_id)

    # -- coherence messaging ------------------------------------------------
    def invalidate(
        self,
        deployment: str,
        paths: Iterable[str] = (),
        prefix: Optional[str] = None,
        exclude: Iterable[str] = (),
        initiator: str = "",
        trace_parent=None,
    ) -> Generator:
        """Send an INV to every live member and wait for all ACKs.

        ``exclude`` names members (typically the leader itself) that
        invalidate locally and need no message.  ``initiator`` tags the
        round with the writing NameNode's id so the coherence checker
        can pair it with that writer's commit.  Returns the number of
        members that were contacted.
        """
        inv = Invalidation(
            inv_id=next(self._inv_ids),
            deployment=deployment,
            paths=tuple(paths),
            prefix=prefix,
        )
        excluded = set(exclude)
        targets = {
            member_id: handler
            for member_id, handler in self._members.get(deployment, {}).items()
            if member_id not in excluded
        }
        tracer = self.env.tracer
        round_span = None
        if tracer is not None:
            round_span = tracer.begin(
                "coord.inv", initiator or "coordinator", parent=trace_parent,
                inv_id=inv.inv_id, deployment=deployment, paths=inv.paths,
                prefix=prefix, initiator=initiator, members=len(targets),
            )
        pending = _PendingInv(self.env, set(targets))
        self._pending[inv.inv_id] = pending
        for member_id, handler in targets.items():
            self.invs_sent += 1
            self.env.process(self._deliver(inv, member_id, handler, round_span))
        yield pending.event
        self._pending.pop(inv.inv_id, None)
        if tracer is not None:
            tracer.end(round_span)
        return len(targets)

    def ack(self, inv_id: int, member_id: str) -> None:
        """Record one member's ACK for ``inv_id``."""
        self.acks_received += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.point("coord.ack", member_id, inv_id=inv_id)
        pending = self._pending.get(inv_id)
        if pending is None:
            return
        pending.waiting.discard(member_id)
        if not pending.waiting and not pending.event.triggered:
            pending.event.succeed(0)

    def _deliver(
        self,
        inv: Invalidation,
        member_id: str,
        handler: Callable[[Invalidation], None],
        round_span=None,
    ) -> Generator:
        tracer = self.env.tracer
        member_span = None
        if tracer is not None:
            # One per-member publish→ACK leg: the slowest of these is
            # the coherence round's critical path.
            member_span = tracer.begin(
                "coord.member", member_id, parent=round_span,
                inv_id=inv.inv_id,
            )
        attempt = 0
        while True:
            attempt += 1
            yield self.env.timeout(self.config.publish_ms)
            # The member may have died in flight; deregistration
            # already released the pending set in that case.
            live = self._members.get(inv.deployment, {})
            if member_id not in live:
                if tracer is not None:
                    tracer.end(member_span, delivered=False)
                return
            if tracer is not None:
                # From this instant, any cached copy of these paths on
                # the member is stale by protocol — emitted *before*
                # the handler runs so a broken handler cannot hide
                # staleness from the coherence checker.
                tracer.point(
                    "coord.inv_deliver", member_id, parent=round_span,
                    inv_id=inv.inv_id, paths=inv.paths, prefix=inv.prefix,
                )
            handler(inv)
            yield self.env.timeout(self.config.ack_ms)
            chaos = self.env.chaos
            if chaos is not None and chaos.ack_should_drop(
                inv.deployment, member_id
            ):
                if tracer is not None:
                    tracer.point(
                        "chaos.ack_drop", member_id, parent=round_span,
                        inv_id=inv.inv_id, attempt=attempt,
                    )
                if attempt > self.config.ack_max_retries:
                    # Redelivery exhausted (or disabled): the writer
                    # stays blocked until this member deregisters.
                    if tracer is not None:
                        tracer.end(member_span, delivered=True, acked=False)
                    return
                # Handlers are idempotent: redeliver the whole INV
                # after a short backoff and collect the ACK again.
                yield self.env.timeout(self.config.ack_retry_ms)
                continue
            if tracer is not None:
                tracer.end(member_span, delivered=True)
            self.ack(inv.inv_id, member_id)
            return


class ZooKeeperCoordinator(Coordinator):
    """ZooKeeper-backed Coordinator (default in the paper)."""

    def __init__(self, env: Environment) -> None:
        super().__init__(env, CoordinatorConfig(publish_ms=0.4, ack_ms=0.4, watch_ms=0.3))


class NdbCoordinator(Coordinator):
    """NDB-backed Coordinator: slightly slower, piggybacks on the DB."""

    def __init__(self, env: Environment) -> None:
        super().__init__(env, CoordinatorConfig(publish_ms=0.7, ack_ms=0.7, watch_ms=0.5))


def make_coordinator(env: Environment, kind: str = "zookeeper") -> Coordinator:
    """Factory for the pluggable Coordinator backends."""
    if kind == "zookeeper":
        return ZooKeeperCoordinator(env)
    if kind == "ndb":
        return NdbCoordinator(env)
    raise ValueError(f"unknown coordinator kind {kind!r}")
