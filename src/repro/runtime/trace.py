"""Trace recording (backend-neutral).

Every message traversal of a channel and every delivery to a client
callback is recorded here.  The metrics layer (message counts for
Figure 9, the blackout analysis for Figure 3) and the QoS checkers
(completeness, duplicates, FIFO, epochs) are pure functions over these
records, which keeps the middleware itself free of measurement concerns.

The recorder depends only on :mod:`repro.messages`, so both the
simulator backend (:mod:`repro.runtime.sim`) and the asyncio backend
(:mod:`repro.runtime.aio`) feed the same record types — which is what
lets the backend-parity tests compare traces across backends directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.messages.base import Message, MessageKind
from repro.messages.notification import Notification


@dataclass(frozen=True)
class LinkRecord:
    """One message crossing one link (counted once per traversal)."""

    time: float
    source: str
    target: str
    kind: MessageKind
    message_type: str
    message_id: int
    description: str = ""


@dataclass(frozen=True)
class DeliveryRecord:
    """One notification handed to a client's ``notify`` callback."""

    time: float
    client_id: str
    subscription_id: str
    publisher: str
    publisher_seq: int
    sequence: Optional[int]
    attributes: Tuple[Tuple[str, Any], ...]

    @property
    def identity(self) -> Tuple[str, int]:
        """Global identity of the delivered notification."""
        return (self.publisher, self.publisher_seq)


@dataclass(frozen=True)
class DropRecord:
    """One message lost by fault injection, attributed to its cause.

    *reason* names the fault that consumed the message: ``"loss"`` for
    the iid drop model, ``"partition"`` for a scheduled link-down window,
    ``"broker-down"`` for a message that reached a crashed broker.  The
    recovery metrics (:mod:`repro.metrics.recovery`) split losses by
    reason, which is how the failure experiments attribute missing
    deliveries to the fault schedule instead of guessing.
    """

    time: float
    source: str
    target: str
    kind: MessageKind
    message_type: str
    message_id: int
    reason: str


@dataclass(frozen=True)
class PublishRecord:
    """One notification injected into the system by a producer."""

    time: float
    publisher: str
    publisher_seq: int
    attributes: Tuple[Tuple[str, Any], ...]

    @property
    def identity(self) -> Tuple[str, int]:
        return (self.publisher, self.publisher_seq)


class TraceRecorder:
    """Collects link, publish and delivery records for one simulation run."""

    def __init__(self) -> None:
        self.link_records: List[LinkRecord] = []
        self.delivery_records: List[DeliveryRecord] = []
        self.publish_records: List[PublishRecord] = []
        self.drop_records: List[DropRecord] = []

    # -- recording hooks ----------------------------------------------------
    def record_link(self, time: float, source: str, target: str, message: Message) -> None:
        """Record that *message* crossed the link from *source* to *target*."""
        self.link_records.append(
            LinkRecord(
                time=time,
                source=source,
                target=target,
                kind=message.kind,
                message_type=type(message).__name__,
                message_id=message.message_id,
                description=message.describe(),
            )
        )

    def record_drop(
        self, time: float, source: str, target: str, message: Message, reason: str
    ) -> None:
        """Record that *message* was lost between *source* and *target*."""
        self.drop_records.append(
            DropRecord(
                time=time,
                source=source,
                target=target,
                kind=message.kind,
                message_type=type(message).__name__,
                message_id=message.message_id,
                reason=reason,
            )
        )

    def record_publish(self, time: float, notification: Notification) -> None:
        """Record a notification being published by its producer."""
        self.publish_records.append(
            PublishRecord(
                time=time,
                publisher=notification.publisher,
                publisher_seq=notification.publisher_seq,
                attributes=tuple(sorted(notification.attributes.items())),
            )
        )

    def record_delivery(
        self,
        time: float,
        client_id: str,
        subscription_id: str,
        notification: Notification,
        sequence: Optional[int] = None,
    ) -> None:
        """Record a notification being delivered to a client."""
        self.delivery_records.append(
            DeliveryRecord(
                time=time,
                client_id=client_id,
                subscription_id=subscription_id,
                publisher=notification.publisher,
                publisher_seq=notification.publisher_seq,
                sequence=sequence,
                attributes=tuple(sorted(notification.attributes.items())),
            )
        )

    # -- queries --------------------------------------------------------------
    def deliveries_for(self, client_id: str) -> List[DeliveryRecord]:
        """All deliveries to *client_id*, in delivery order."""
        return [r for r in self.delivery_records if r.client_id == client_id]

    def link_messages(
        self,
        kind: Optional[MessageKind] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> List[LinkRecord]:
        """Link traversals filtered by message kind and time window."""
        out = self.link_records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if until is not None:
            out = [r for r in out if r.time <= until]
        if since is not None:
            out = [r for r in out if r.time >= since]
        return list(out)

    def count_link_messages(
        self,
        kind: Optional[MessageKind] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> int:
        """Number of link traversals matching the given filters."""
        return len(self.link_messages(kind=kind, until=until, since=since))

    def drops(
        self,
        kind: Optional[MessageKind] = None,
        reason: Optional[str] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> List[DropRecord]:
        """Dropped messages filtered by kind, fault reason and time window."""
        out = self.drop_records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if reason is not None:
            out = [r for r in out if r.reason == reason]
        if until is not None:
            out = [r for r in out if r.time <= until]
        if since is not None:
            out = [r for r in out if r.time >= since]
        return list(out)

    def publishes(self, until: Optional[float] = None) -> List[PublishRecord]:
        """All publish records, optionally truncated at *until*."""
        if until is None:
            return list(self.publish_records)
        return [r for r in self.publish_records if r.time <= until]

    def clear(self) -> None:
        """Forget all recorded data."""
        self.link_records.clear()
        self.delivery_records.clear()
        self.publish_records.clear()
        self.drop_records.clear()
