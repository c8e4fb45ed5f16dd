"""Membership tracking and INV/ACK delivery.

The Coordinator implements exactly what Algorithm 1 needs:

1. a registry of live NameNode instances per deployment (with
   liveness notifications on termination);
2. reliable delivery of invalidations (INVs) to every live member of
   a deployment, and collection of their ACKs (one publish timer and
   one ACK timer per round serve every member, in registration order);
3. the rule that *"ACKs are not required from NameNodes that
   terminate mid-protocol"* — a member that deregisters while an INV
   is outstanding is dropped from the pending set so writers never
   block on the dead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Iterable, Optional, Set

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


class _Round:
    """One INV round: the members still owing an ACK and the writer's wait."""

    __slots__ = ("inv", "targets", "waiting", "event", "tracer", "span", "member_spans")

    def __init__(self, env: Environment, inv: Invalidation, targets: list) -> None:
        self.inv = inv
        self.targets = targets
        self.waiting = {member_id for member_id, _ in targets}
        self.event = Event(env)
        self.tracer = env.tracer
        self.span = self.member_spans = None


class Coordinator:
    """Base Coordinator; see subclasses for backend latencies."""

    def __init__(self, env: Environment, config: Optional[CoordinatorConfig] = None) -> None:
        self.env = env
        self.config = config or CoordinatorConfig()
        # deployment -> member_id -> INV handler callback
        self._members: Dict[str, Dict[str, Callable[[Invalidation], None]]] = {}
        self._pending: Dict[int, _Round] = {}
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
        self._members.get(deployment, {}).pop(member_id, None)
        for round_ in list(self._pending.values()):
            self._release(round_, member_id)
        for callback in self._death_watchers.pop(member_id, []):
            self.env.call_later(self.config.watch_ms, lambda _, cb=callback: cb(member_id))

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

    # -- coherence messaging ------------------------------------------------
    def invalidate(
        self,
        deployment: str,
        paths: Iterable[str] = (),
        prefix: Optional[str] = None,
        exclude: Iterable[str] = (),
        initiator: str = "",
        trace_parent=None,
    ) -> Event:
        """Send an INV to every live member; the returned event fires
        once all of them have ACKed, with the number contacted as value.

        ``exclude`` names members (typically the leader itself) that
        invalidate locally and need no message.  ``initiator`` tags the
        round with the writing NameNode's id so the coherence checker
        can pair it with that writer's commit.
        """
        inv = Invalidation(next(self._inv_ids), deployment, tuple(paths), prefix)
        excluded = set(exclude)
        targets = [
            (member_id, handler)
            for member_id, handler in self._members.get(deployment, {}).items()
            if member_id not in excluded
        ]
        round_ = _Round(self.env, inv, targets)
        tracer = round_.tracer
        if tracer is not None:
            span = round_.span = tracer.begin(
                "coord.inv", initiator or "coordinator", parent=trace_parent,
                inv_id=inv.inv_id, deployment=deployment, paths=inv.paths,
                prefix=prefix, initiator=initiator, members=len(targets),
            )
            # One per-member publish→ACK leg: the slowest of these is
            # the coherence round's critical path.
            round_.member_spans = {
                member_id: tracer.begin(
                    "coord.member", member_id, parent=span, inv_id=inv.inv_id
                )
                for member_id, _ in targets
            }
            # The round closes in the step that processes its
            # completion event, not at the last ACK: a commit at that
            # same instant must still see the round open.
            round_.event.subscribe(lambda _: tracer.end(span))
        self.invs_sent += len(targets)
        if targets:
            self._pending[inv.inv_id] = round_
            self.env.call_later(
                self.config.publish_ms, lambda _: self._publish(round_, targets, 1)
            )
        else:
            # Nobody to wait for, but end a step later all the same: a
            # writer committing now without waiting commits inside it.
            self.env.call_later(0.0, lambda _: round_.event.succeed(0))
        return round_.event

    def ack(self, inv_id: int, member_id: str) -> None:
        """Record one member's ACK for ``inv_id``."""
        self.acks_received += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.point("coord.ack", member_id, inv_id=inv_id)
        round_ = self._pending.get(inv_id)
        if round_ is not None:
            self._release(round_, member_id)

    def _release(self, round_: _Round, member_id: str) -> None:
        """``member_id`` owes ``round_`` nothing more (ACKed or gone)."""
        round_.waiting.discard(member_id)
        if not round_.waiting:
            del self._pending[round_.inv.inv_id]
            round_.event.succeed(len(round_.targets))

    def _publish(self, round_: _Round, wave: list, attempt: int) -> None:
        inv = round_.inv
        tracer = round_.tracer
        live = self._members.get(inv.deployment, {})
        delivered = []
        for member_id, handler in wave:
            # The member may have died in flight; deregistration
            # already released it from the round in that case.
            if member_id not in live:
                if tracer is not None:
                    tracer.end(round_.member_spans[member_id], delivered=False)
                continue
            if tracer is not None:
                # From this instant, any cached copy of these paths on
                # the member is stale by protocol — emitted *before*
                # the handler runs so a broken handler cannot hide
                # staleness from the coherence checker.
                tracer.point(
                    "coord.inv_deliver", member_id, parent=round_.span,
                    inv_id=inv.inv_id, paths=inv.paths, prefix=inv.prefix,
                )
            handler(inv)
            delivered.append((member_id, handler))
        if delivered:
            self.env.call_later(
                self.config.ack_ms, lambda _: self._collect(round_, delivered, attempt)
            )

    def _collect(self, round_: _Round, wave: list, attempt: int) -> None:
        inv = round_.inv
        tracer = round_.tracer
        chaos = self.env.chaos
        dropped = []
        for member_id, handler in wave:
            if chaos is not None and chaos.ack_should_drop(inv.deployment, member_id):
                if tracer is not None:
                    tracer.point(
                        "chaos.ack_drop", member_id, parent=round_.span,
                        inv_id=inv.inv_id, attempt=attempt,
                    )
                if attempt <= self.config.ack_max_retries:
                    dropped.append((member_id, handler))
                elif tracer is not None:
                    # Redelivery exhausted (or disabled): the writer
                    # stays blocked until this member deregisters.
                    tracer.end(round_.member_spans[member_id], delivered=True, acked=False)
                continue
            if tracer is not None:
                tracer.end(round_.member_spans[member_id], delivered=True)
            self.ack(inv.inv_id, member_id)
        if dropped:
            # Handlers are idempotent: redeliver the whole INV after a
            # short backoff and collect the ACKs again.
            self.env.call_later(self.config.ack_retry_ms, lambda _: self.env.call_later(
                self.config.publish_ms, lambda _: self._publish(round_, dropped, attempt + 1)
            ))


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
