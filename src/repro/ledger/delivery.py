"""The delivery stream: the seam between ordering and everything above it.

Every protocol's commit path used to hand-call the per-node executor and the
metrics recorder from inside its own callbacks; this module extracts that
into one explicit contract.  A node owns a :class:`DeliveryStream` and pushes
one :class:`Delivery` per block it releases to clients, in its local total
order; consumers (the :class:`~repro.ledger.state.LedgerExecutor`, metric
counters, the lane merge of :mod:`repro.protocols.multiplexed`) subscribe to
the stream.  The classes live here, at the bottom of the layer graph, so
FireLedger's workers in :mod:`repro.core` can produce onto the stream
without importing the protocol registry; the public contract is
re-exported by :mod:`repro.protocols.base`, next to the HotStuff and
BFT-SMaRt replicas in :mod:`repro.protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class Delivery:
    """One block released to clients, as seen on a node's delivery stream.

    ``tag`` identifies the delivered block protocol-specifically (a FireLedger
    block digest, a HotStuff ``("hs", view, tx_count)`` triple...) and is what
    the cross-node state oracle aligns sequences by; it must therefore be
    identical at every correct node for the same logical block.
    ``transactions`` are the explicit transactions the block carried (empty in
    saturated mode), ``tx_count`` the block's total including synthetic
    filler.  ``source`` is the index of the emitting instance *within* the
    node (a FLO worker id, a consensus lane) and ``sequence`` the block's
    per-source sequence number — together they let stream consumers that care
    about provenance (the metrics recorder, the lane merge) stay exact
    without reaching back into protocol internals.
    """

    tag: object
    transactions: tuple = ()
    tx_count: int = 0
    proposer: Optional[int] = None
    proposed_at: Optional[float] = None
    time: float = 0.0
    source: int = 0
    sequence: int = 0


class DeliveryStream:
    """A node's totally-ordered stream of :class:`Delivery` events.

    Producers (the protocol's commit path) call :meth:`deliver`; consumers
    register with :meth:`subscribe` and are invoked synchronously, in
    subscription order, for every delivery — so an executor subscribed before
    a pruning hook observes the block strictly before it can be dropped.
    The stream keeps running totals (``deliveries`` / ``transactions``) so
    workload clients and result summaries read one counter regardless of
    protocol.
    """

    def __init__(self) -> None:
        self.deliveries = 0
        self.transactions = 0
        self._subscribers: list = []

    def subscribe(self, consumer) -> None:
        """Register ``consumer(delivery)`` for every subsequent delivery."""
        self._subscribers.append(consumer)

    def deliver(self, delivery: Delivery) -> None:
        """Push one delivery to every subscriber (synchronously, in order)."""
        self.deliveries += 1
        self.transactions += delivery.tx_count
        for consumer in self._subscribers:
            consumer(delivery)
