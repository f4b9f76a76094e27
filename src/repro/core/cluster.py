"""Cluster runner: build a protocol deployment, run it, summarise the results.

This is the entry point every benchmark, example and scenario uses.
:func:`run_cluster` wires the simulation environment, network, key store and
the chosen protocol's nodes together identically for **every** registered
:class:`~repro.protocols.base.ConsensusProtocol` (FireLedger, HotStuff,
BFT-SMaRt, and any future plugin): it installs the run's one
:class:`~repro.faults.FaultSchedule` (crash/recover events, network fault
windows, Byzantine membership), lets a setup hook attach client workloads,
runs the simulation for a configured duration and aggregates the protocol's
per-node metric hooks into one unified :class:`ClusterResult`.

The runner owns the delivery seam end-to-end: after the protocol builds its
nodes, the runner subscribes each node's
:class:`~repro.ledger.delivery.DeliveryStream` to a per-node
:class:`~repro.ledger.state.LedgerExecutor` (when execution is enabled), so
no protocol implementation hand-wires execution.  ``config.lanes > 1``
transparently wraps the chosen protocol in
:class:`~repro.protocols.multiplexed.MultiplexedProtocol`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import FireLedgerConfig
from repro.crypto.keys import KeyStore
from repro.faults import FaultSchedule
from repro.metrics.summary import LatencyHistogram, LatencySummary, ThroughputSummary
from repro.net.latency import LatencyModel, SingleDatacenterLatency
from repro.net.network import Network, NetworkStats
from repro.sim import Environment

#: The two implementations of the Environment/Network contract pair.
BACKENDS = ("sim", "realtime")


@dataclass
class ClusterResult:
    """Aggregated outcome of one cluster run, for any protocol.

    Protocol-specific counters (FireLedger's round outcomes and recoveries,
    a baseline's committed block counts and skipped views, every protocol's
    signature totals) live in :attr:`breakdown` next to the per-round stage
    timings; the convenience properties below read the well-known keys so
    existing FireLedger callers and the retired ``BaselineResult``'s users
    keep working against the one unified shape.
    """

    protocol: str
    config: FireLedgerConfig
    duration: float
    throughput: ThroughputSummary
    latency: LatencySummary
    per_node_tps: list[float]
    per_node_bps: list[float]
    breakdown: dict[str, float]
    network: NetworkStats
    recorders: list = field(default_factory=list, repr=False)
    nodes: list = field(default_factory=list, repr=False)
    #: Execution-layer oracle (``config.execute_transactions``): the account
    #: state root at the longest common delivered prefix, asserted identical
    #: across all non-Byzantine nodes before the result is built.  None when
    #: execution is disabled.
    state_root: Optional[str] = None
    #: Deliveries covered by the agreed ``state_root``.
    state_deliveries: int = 0

    @property
    def tps(self) -> float:
        """Average transactions per second over correct nodes."""
        return self.throughput.tps

    @property
    def bps(self) -> float:
        """Average blocks per second over correct nodes."""
        return self.throughput.bps

    @property
    def recoveries_per_second(self) -> float:
        """Recovery-procedure invocations per second (0 for the baselines)."""
        return self.throughput.recoveries_per_second

    def _counter(self, key: str) -> int:
        return int(round(self.breakdown.get(key, 0.0)))

    @property
    def fast_path_rounds(self) -> int:
        """Rounds decided on FireLedger's single-step fast path."""
        return self._counter("fast_path_rounds")

    @property
    def fallback_rounds(self) -> int:
        """Rounds that needed FireLedger's OBBC fallback."""
        return self._counter("fallback_rounds")

    @property
    def failed_rounds(self) -> int:
        """Rounds that timed out undelivered."""
        return self._counter("failed_rounds")

    @property
    def recoveries(self) -> int:
        """Recovery-procedure invocations across correct nodes."""
        return self._counter("recoveries")

    @property
    def transactions_rejected(self) -> int:
        """Pool-cap rejections (0 unless ``pool_max_pending`` is set)."""
        return self._counter("tx_rejected")

    @property
    def blocks_committed(self) -> int:
        """Blocks committed in the measured window (per correct node)."""
        return self._counter("blocks_committed")

    @property
    def transactions_committed(self) -> int:
        """Transactions committed in the measured window (per correct node)."""
        return self._counter("transactions_committed")

    @property
    def transactions_applied(self) -> int:
        """Transfers applied by the execution layer (0 when disabled)."""
        return self._counter("tx_applied")

    @property
    def transactions_stale(self) -> int:
        """Transfers rejected as stale/duplicate nonces (execution layer)."""
        return self._counter("tx_stale")

    @property
    def transactions_invalid(self) -> int:
        """Transfers rejected for insufficient balance (execution layer)."""
        return self._counter("tx_invalid")


def run_cluster(config: FireLedgerConfig,
                protocol: "str | object" = "fireledger",
                duration: float = 3.0,
                warmup: float = 0.5,
                seed: int = 0,
                latency_model: Optional[LatencyModel] = None,
                faults: Optional[FaultSchedule] = None,
                adversary: "Optional[str | object]" = None,
                latency_trim: float = 0.0,
                setup: Optional[Callable[[Environment, Network, list], None]] = None,
                backend: str = "sim") -> ClusterResult:
    """Build, run and summarise one cluster under any registered protocol.

    ``protocol`` is a registry name (``"fireledger"``, ``"hotstuff"``,
    ``"bftsmart"``) or a :class:`~repro.protocols.base.ConsensusProtocol`
    instance.  The remaining parameters mirror the paper's evaluation levers
    and apply to every protocol: ``config`` carries the Table 2 parameters,
    ``latency_model`` defaults to the single data center
    (:class:`~repro.net.latency.GeoDistributedLatency` is the ten-region
    matrix of Section 7.5), ``warmup`` excludes start-up effects from the
    measured window.

    ``faults`` is the run's one fault timeline
    (:class:`~repro.faults.FaultSchedule`; Sections 7.4.1/7.4.2).  It is
    validated against ``config.n_nodes`` before anything is built, and it
    supplies the network fault controller (partition / loss / slow
    windows), the timed crash/recover events, the Byzantine membership and
    its windows, and the nodes left out of the aggregated metrics
    (Byzantine nodes and nodes still crashed at the end).

    ``adversary`` selects how the Byzantine nodes misbehave: a registered
    :mod:`repro.adversary` strategy name, or a spec with a
    ``build(nodes, windows=...)`` method such as the scenario layer's
    :class:`~repro.scenarios.spec.AdversarySpec`.  It is bound to the
    schedule's Byzantine membership and windows, and is inert without
    Byzantine nodes.  The default strategy is ``equivocate`` — Section
    7.4.2's equivocating proposer on FireLedger, fail-stop silence on the
    leader-driven protocols.

    ``setup`` is a hook invoked after the nodes are built and started and
    the faults installed, but before the simulation runs; the declarative
    scenario layer uses it to attach client workloads.

    ``backend`` selects the Environment/Network implementation pair:
    ``"sim"`` (the default) is the deterministic discrete-event kernel;
    ``"realtime"`` runs the identical protocol stack live — wall-clock
    asyncio timers and loopback TCP sockets (:mod:`repro.runtime`), with
    ``duration`` and ``warmup`` measured in real seconds.
    """
    from repro import protocols as protocol_registry  # lazy: avoids a cycle

    impl = protocol_registry.resolve(protocol)
    if config.lanes > 1 and not isinstance(
            impl, protocol_registry.MultiplexedProtocol):
        impl = protocol_registry.MultiplexedProtocol(impl, lanes=config.lanes)
    if duration <= 0:
        raise ValueError("duration must be positive")
    if warmup < 0 or warmup >= duration:
        raise ValueError("warmup must be within [0, duration)")
    # FireLedgerConfig already enforces the BFT floor of 4; this guards
    # protocols that declare a minimum above it.
    if config.n_nodes < impl.min_nodes:
        raise ValueError(f"protocol {impl.name!r} needs at least "
                         f"{impl.min_nodes} nodes (got {config.n_nodes})")

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    faults = FaultSchedule() if faults is None else faults
    faults.validate(config.n_nodes)
    fault_controller = faults.controller()

    rng = random.Random(seed)
    if latency_model is None:
        latency_model = SingleDatacenterLatency()
    network_rng = random.Random(rng.randrange(2 ** 62))
    if backend == "realtime":
        from repro.runtime import RealtimeEnvironment, RealtimeNetwork

        env = RealtimeEnvironment()
        network = RealtimeNetwork(env, config.n_nodes,
                                  latency_model=latency_model,
                                  machine=config.machine, rng=network_rng,
                                  fault_controller=fault_controller)
    else:
        env = Environment()
        network = Network(env, config.n_nodes, latency_model=latency_model,
                          machine=config.machine, rng=network_rng,
                          fault_controller=fault_controller)
    keystore = KeyStore(config.n_nodes)

    strategy = None
    if faults.byzantine_nodes:
        from repro import adversary as adversary_lib

        nodes, windows = faults.byzantine_nodes, faults.byzantine_windows()
        if adversary is None or isinstance(adversary, str):
            strategy = adversary_lib.build(
                adversary or adversary_lib.DEFAULT_STRATEGY,
                nodes=nodes, windows=windows)
        else:
            strategy = adversary.build(nodes, windows=windows)
        # Traffic-shaping strategies wrap the network before any node is
        # built, so every protocol message crosses the strategy's proxy.
        network = strategy.wrap_network(network)
    nodes = impl.build_nodes(env, network, keystore, config, rng,
                             adversary=strategy)
    # The delivery seam: attach one executor per node by subscribing it to
    # the node's stream — uniformly, whatever the protocol.  Protocols keep
    # their streams' earlier subscribers (metric recorders, lane merges)
    # ahead of the executor, and release bookkeeping that could unlock
    # pruning runs only after deliver() returns, so a block always executes
    # strictly before it may be dropped.
    if config.execute_transactions:
        from repro.ledger.state import LedgerExecutor

        for node in nodes:
            stream = impl.delivery_stream(node)
            if stream is None or getattr(node, "executor", None) is not None:
                continue
            executor = LedgerExecutor.from_config(config)
            node.executor = executor
            stream.subscribe(executor.on_delivery)
    impl.set_measurement_window(nodes, warmup)
    impl.start(nodes)

    if strategy is not None:
        strategy.install(env, network)
    faults.install(env, network)
    if setup is not None:
        setup(env, network, nodes)

    try:
        env.run(until=duration)
    finally:
        # The realtime backend owns an event loop; release it (its `now`
        # stays frozen at the deadline for the summarisation below).
        closer = getattr(env, "close", None)
        if closer is not None:
            closer()

    excluded = faults.excluded_nodes()
    honest_nodes = [node for node in nodes if node.node_id not in excluded]
    correct_nodes = honest_nodes or nodes

    per_node_tps: list[float] = []
    per_node_bps: list[float] = []
    summaries: list[ThroughputSummary] = []
    latency_samples: list[float] = []
    latency_histograms: list[LatencyHistogram] = []
    stage_totals: dict[str, float] = {}
    stage_counts: dict[str, int] = {}
    counter_totals: dict[str, float] = {}
    mean_totals: dict[str, float] = {}
    mean_counts: dict[str, int] = {}

    for node in correct_nodes:
        metrics = impl.node_metrics(node, duration)
        per_node_tps.append(metrics.tps)
        per_node_bps.append(metrics.bps)
        summaries.append(ThroughputSummary(
            tps=metrics.tps, bps=metrics.bps,
            recoveries_per_second=metrics.recoveries_per_second))
        latency_samples.extend(metrics.latency_samples)
        if metrics.latency_histogram is not None:
            latency_histograms.append(metrics.latency_histogram)
        for key, value in metrics.stage_breakdown.items():
            stage_totals[key] = stage_totals.get(key, 0.0) + value
            stage_counts[key] = stage_counts.get(key, 0) + 1
        for key, value in metrics.totals.items():
            counter_totals[key] = counter_totals.get(key, 0.0) + value
        for key, value in metrics.means.items():
            mean_totals[key] = mean_totals.get(key, 0.0) + value
            mean_counts[key] = mean_counts.get(key, 0) + 1

    throughput = ThroughputSummary.average(summaries)
    if latency_histograms:
        # Streaming (bounded-memory) runs: part of the distribution was
        # folded into per-node histograms; merge them with every node's
        # still-live raw samples into one histogram-backed summary.
        merged = LatencyHistogram(bin_width=latency_histograms[0].bin_width)
        for histogram in latency_histograms:
            merged.merge(histogram)
        merged.extend(latency_samples)
        latency = LatencySummary.from_histogram(merged,
                                                trim_extreme_fraction=latency_trim)
    else:
        latency = LatencySummary.from_samples(latency_samples,
                                              trim_extreme_fraction=latency_trim)
    breakdown = {key: stage_totals[key] / stage_counts[key]
                 for key in stage_totals}
    breakdown.update(counter_totals)
    breakdown.update({key: mean_totals[key] / mean_counts[key]
                      for key in mean_totals})
    if strategy is not None:
        # Per-strategy counters arrive under the ``adversary_`` prefix; the
        # scenario runner keeps them out of pre-existing recorded row shapes.
        breakdown.update(strategy.counters())

    # Execution-layer oracle: every honest node must have executed the common
    # delivered prefix to the same state root (raises StateDivergenceError
    # otherwise).  Byzantine nodes are left out — their executors may follow
    # an equivocating chain.
    state_root: Optional[str] = None
    state_deliveries = 0
    if config.execute_transactions:
        from repro.ledger.state import verify_state_agreement

        executors = [executor for executor in
                     (impl.executor_of(node) for node in honest_nodes)
                     if executor is not None]
        if executors:
            state_deliveries, state_root = verify_state_agreement(executors)
            # Counters / fairness come from the most-advanced executor (the
            # node that delivered furthest); on a fault-free run they are
            # identical everywhere.
            reporter = max(executors, key=lambda executor: executor.deliveries)
            breakdown["tx_applied"] = float(reporter.state.applied)
            breakdown["tx_stale"] = float(reporter.state.stale)
            breakdown["tx_invalid"] = float(reporter.state.invalid)
            breakdown["tx_conflicts"] = float(reporter.conflicts)
            breakdown.update(reporter.fairness())

    recorders = [recorder for recorder in
                 (impl.recorder_of(node) for node in nodes)
                 if recorder is not None]

    return ClusterResult(
        protocol=impl.name,
        config=config,
        duration=duration,
        throughput=throughput,
        latency=latency,
        per_node_tps=per_node_tps,
        per_node_bps=per_node_bps,
        breakdown=breakdown,
        network=network.stats,
        recorders=recorders,
        nodes=nodes,
        state_root=state_root,
        state_deliveries=state_deliveries,
    )
