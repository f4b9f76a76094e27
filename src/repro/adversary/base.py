"""The pluggable adversary contract and its name registry.

An :class:`AdversaryStrategy` is everything
:func:`repro.core.cluster.run_cluster` needs to make a set of Byzantine
nodes misbehave under *any* registered
:class:`~repro.protocols.base.ConsensusProtocol` (including
``multiplexed(...)``) on either backend, without protocol-code changes.
The contract hooks the three seams every protocol already has:

* **outbound traffic** — :meth:`AdversaryStrategy.wrap_network` may return a
  proxy around the run's :class:`~repro.net.network.Network` that
  intercepts ``send``/``broadcast`` from Byzantine senders (delay, drop,
  reroute).  The default returns the network unchanged.
* **proposal construction** — :meth:`AdversaryStrategy.worker_factory`
  may return a FireLedger worker factory substituting a misbehaving
  worker class on Byzantine nodes (the equivocation family).  ``None``
  (the default) keeps the protocol's stock workers.
* **process liveness** — :meth:`AdversaryStrategy.is_silent` marks nodes
  whose protocol process never runs and whose inbound traffic is dropped
  at the network layer (the fail-stop under-approximation the baselines
  used to hardcode), and :meth:`AdversaryStrategy.install` may schedule
  timed liveness events (churn) against the live network.

Strategies are registered by name (:func:`register` / :func:`get` /
:func:`names`).  ``run_cluster`` builds one per run, from a strategy name
or a scenario's ``[adversary]`` spec block, and binds it to the run's
:class:`~repro.faults.FaultSchedule`.  A strategy instance is bound to one
run: it holds the Byzantine membership, the (optional) timed activity
windows from the fault schedule, and the per-run counters it reports into
``ClusterResult.breakdown`` under ``adversary_``-prefixed keys.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

__all__ = ["AdversaryStrategy", "get", "names", "register", "build"]

#: Windows spelling: per node, a sequence of ``(at, until)`` pairs in
#: simulated seconds; ``math.inf`` as ``until`` means "to the end of the run".
Windows = Mapping[int, Sequence[tuple[float, float]]]


class AdversaryStrategy:
    """Base class: a no-op adversary bound to a set of Byzantine nodes."""

    #: Registry name (the ``--adversary`` value and the spec's ``strategy``).
    name: str = ""

    def __init__(self, nodes: frozenset[int] = frozenset(),
                 windows: Optional[Windows] = None) -> None:
        self.nodes = frozenset(nodes)
        self.windows: dict[int, tuple[tuple[float, float], ...]] = {
            node: tuple(spans) for node, spans in (windows or {}).items()}

    # ------------------------------------------------------------- the seams
    def wrap_network(self, network):
        """Return the network the protocols should build against.

        Traffic-shaping strategies return a proxy intercepting outbound
        ``send``/``broadcast`` from Byzantine senders; everything else
        returns ``network`` unchanged.  Called once, before
        ``build_nodes``, so every protocol message crosses the proxy.
        """
        return network

    def worker_factory(self, protocol_name: str):
        """A FireLedger worker factory substituting misbehaving workers.

        Only consulted by protocols that build workers from a factory
        (FireLedger's FLO nodes).  ``None`` keeps the stock worker class.
        """
        return None

    def is_silent(self, node_id: int, protocol_name: str) -> bool:
        """Whether ``node_id``'s protocol process should never run.

        A silent node also has its inbound traffic dropped at the network
        layer, like a crashed node — see
        :meth:`repro.protocols.base.PooledReplicaMixin.silence`.
        """
        return False

    def install(self, env, network) -> None:
        """Schedule timed adversary activity (churn cycles) on the run."""

    # ------------------------------------------------------------- reporting
    def counters(self) -> dict[str, float]:
        """Per-strategy counters merged into ``ClusterResult.breakdown``.

        Keys must carry the ``adversary_`` prefix: the scenario runner
        uses the prefix both to surface them (with the prefix stripped)
        on explicit ``--adversary`` rows and to keep them *out* of the
        generic breakdown columns of pre-existing recorded rows.
        """
        return {}

    # --------------------------------------------------------------- helpers
    def active(self, node_id: int, now: float) -> bool:
        """Whether ``node_id`` misbehaves at simulated time ``now``.

        Nodes without an explicit window are active for the whole run.
        """
        if node_id not in self.nodes:
            return False
        spans = self.windows.get(node_id)
        if not spans:
            return True
        return any(at <= now < until for at, until in spans)

    def span_of(self, node_id: int) -> tuple[float, float]:
        """The node's first activity window (``(0, inf)`` when unwindowed)."""
        spans = self.windows.get(node_id)
        if not spans:
            return (0.0, math.inf)
        return spans[0]


_STRATEGIES: dict[str, type[AdversaryStrategy]] = {}


def register(cls: type[AdversaryStrategy]) -> type[AdversaryStrategy]:
    """Register a strategy class under its ``name`` (usable as a decorator)."""
    if not cls.name:
        raise ValueError("an AdversaryStrategy needs a non-empty name")
    if cls.name in _STRATEGIES:
        raise ValueError(f"adversary strategy {cls.name!r} already registered")
    _STRATEGIES[cls.name] = cls
    return cls


def names() -> list[str]:
    """Registered strategy names, in registration order."""
    return list(_STRATEGIES)


def get(name: str) -> type[AdversaryStrategy]:
    """Look up a registered strategy class by name."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise KeyError(f"unknown adversary strategy {name!r}; "
                       f"known: {', '.join(names())}") from None


def build(name: str, nodes: frozenset[int] = frozenset(),
          windows: Optional[Windows] = None, **params) -> AdversaryStrategy:
    """Instantiate the named strategy bound to one run's membership."""
    return get(name)(nodes=frozenset(nodes), windows=windows, **params)
