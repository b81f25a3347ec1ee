"""Simulated client-server network channel.

DESIGN.md §3: the paper's testbed is two cloud hosts with a 0-1 Gbps link;
we replace it with a deterministic byte-accurate virtual-time model.  The
paper's gains come from reducing bytes on the wire (Fig. 3: transmission is
≥70 % of total time at 500 Mbps), and that mechanism is preserved exactly:

* Eq. 5 (saturated link):   t = bytes / bandwidth
* Eq. 4 (propagation):      t += latency per batch

``bandwidth_mbps=None`` models the paper's single-node mode (no network).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ChannelError

_BITS_PER_BYTE = 8


@dataclass
class Channel:
    """Virtual-time network link between the client and the server."""

    bandwidth_mbps: Optional[float] = 500.0
    latency_s: float = 0.0
    bytes_sent: int = field(default=0, init=False)
    batches_sent: int = field(default=0, init=False)
    seconds_spent: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.bandwidth_mbps is not None and (
            not math.isfinite(self.bandwidth_mbps) or self.bandwidth_mbps <= 0
        ):
            raise ChannelError(
                "bandwidth must be positive and finite (or None for single-node)"
            )
        if not math.isfinite(self.latency_s) or self.latency_s < 0:
            raise ChannelError("latency must be finite and non-negative")

    @classmethod
    def single_node(cls) -> "Channel":
        """No network: transmission is free (paper's single-node mode)."""
        return cls(bandwidth_mbps=None, latency_s=0.0)

    @property
    def is_single_node(self) -> bool:
        return self.bandwidth_mbps is None

    def transmit_seconds(self, nbytes: int) -> float:
        """Virtual seconds to ship ``nbytes`` (pure function of the config)."""
        if nbytes < 0:
            raise ChannelError("cannot transmit a negative number of bytes")
        if self.is_single_node:
            return 0.0
        bandwidth_bytes_per_s = self.bandwidth_mbps * 1e6 / _BITS_PER_BYTE
        return nbytes / bandwidth_bytes_per_s + self.latency_s

    def transmit(self, nbytes: int) -> float:
        """Transmit a batch payload, recording totals; returns seconds."""
        seconds = self.transmit_seconds(nbytes)
        self.bytes_sent += int(nbytes)
        self.batches_sent += 1
        self.seconds_spent += seconds
        return seconds

    def ship(self, nbytes: int, ready_time: Optional[float] = None) -> float:
        """Transmit a payload that became ready at ``ready_time``; a plain
        link has no queue and ignores it (:class:`QueuedChannel` queues)."""
        return self.transmit(nbytes)

    def reset(self) -> None:
        self.bytes_sent = 0
        self.batches_sent = 0
        self.seconds_spent = 0.0


@dataclass
class QueuedChannel(Channel):
    """A channel with a serial link and queuing delay.

    When batches become ready faster than the link drains them, they queue
    (the paper's Fig. 10 observation that on a limited link "the data have
    to be queued before transmission, and thus large batch can result in
    system pauses").  The virtual clock advances per send:

        start  = max(ready_time, link_free_at)
        depart = start + nbytes / bandwidth + latency

    and the reported transmission time includes the queueing delay
    ``start - ready_time``.
    """

    link_free_at: float = field(default=0.0, init=False)
    queue_seconds: float = field(default=0.0, init=False)

    def send(self, nbytes: int, ready_time: float) -> Tuple[float, float]:
        """Ship a batch that became ready at ``ready_time``.

        Returns ``(transmit_seconds_including_queue, depart_time)``.
        """
        if ready_time < 0:
            raise ChannelError("ready_time cannot be negative")
        start = max(ready_time, self.link_free_at)
        queue_delay = start - ready_time
        wire = self.transmit_seconds(nbytes)
        depart = start + wire
        self.link_free_at = depart
        self.bytes_sent += int(nbytes)
        self.batches_sent += 1
        self.seconds_spent += queue_delay + wire
        self.queue_seconds += queue_delay
        return queue_delay + wire, depart

    def ship(self, nbytes: int, ready_time: Optional[float] = None) -> float:
        if ready_time is None:
            return self.transmit(nbytes)
        return self.send(nbytes, ready_time)[0]

    def reset(self) -> None:
        super().reset()
        self.link_free_at = 0.0
        self.queue_seconds = 0.0
