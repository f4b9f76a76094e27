"""Execute a :class:`~repro.scenarios.spec.ScenarioSpec` on the simulator.

The runner translates the declarative spec into the concrete knobs of
:func:`~repro.core.cluster.run_cluster`: protocol -> registered
:class:`~repro.protocols.base.ConsensusProtocol`, topology -> latency
model, workload -> ``fill_blocks`` / client population; the fault schedule
and the adversary spec pass through unchanged.  It returns plain result-row
dicts shaped like the figure drivers', so scenarios plug into the
experiment registry, the sweep engine and the report renderer unchanged —
for any protocol.
"""

from __future__ import annotations

from typing import Optional

from typing import TYPE_CHECKING

from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # imported lazily at run time to avoid a registry cycle
    from repro.experiments.harness import ExperimentScale

#: Breakdown keys the row already reports through dedicated columns.
_ROW_COVERED_COUNTERS = frozenset({
    "fast_path_rounds", "fallback_rounds", "failed_rounds", "recoveries",
    "tx_rejected",
})

#: Execution-layer counters, reported through the dedicated block below
#: (same columns for every protocol) rather than the generic breakdown loop.
_EXECUTION_COUNTERS = ("tx_applied", "tx_stale", "tx_invalid", "tx_conflicts")
_FAIRNESS_METRICS = ("proposer_bias", "sender_p50_spread_ms",
                     "sender_p99_spread_ms")


def run_scenario(spec: ScenarioSpec,
                 scale: "Optional[ExperimentScale]" = None,
                 n_nodes: Optional[int] = None,
                 workers: Optional[int] = None,
                 protocol: Optional[str] = None,
                 lanes: Optional[int] = None,
                 adversary: Optional[str] = None,
                 seed: Optional[int] = None,
                 backend: Optional[str] = None) -> list[dict]:
    """Run one scenario; returns one result row (as a single-item list).

    ``n_nodes`` / ``workers`` / ``protocol`` / ``lanes`` / ``adversary``
    override the spec (that is how the registry's ``cluster_size`` /
    ``workers`` / ``protocol`` / ``lanes`` / ``adversary`` sweep axes reach
    a scenario); ``seed`` defaults to the scale's seed.  Durations come
    from the spec, not the scale — fault phase times are absolute simulated
    seconds, so shrinking the run would silently skip scheduled faults.

    ``adversary`` names a registered :mod:`repro.adversary` strategy for
    the spec's Byzantine nodes.  Only explicitly-swept strategies surface
    as an ``adversary`` row column (plus the strategy's own counters):
    committed Byzantine rows predate the column and keep their shape.

    ``backend`` selects the Environment/Network pair (``"sim"`` default,
    ``"realtime"`` for the live asyncio/TCP runtime); fault phase times then
    mean real seconds, and the row gains a ``backend`` column so live rows
    never collide with recorded simulated ones.
    """
    if scale is None:
        # Local import: repro.experiments pulls in the registry, which in
        # turn imports this package to register the scenario library.
        from repro.experiments.harness import ExperimentScale
        scale = ExperimentScale()
    from repro.scenarios.spec import AdversarySpec, LanesSpec

    adversary_explicit = adversary is not None
    overrides = {}
    if n_nodes is not None:
        overrides["n_nodes"] = n_nodes
    if workers is not None:
        overrides["workers"] = workers
    if protocol is not None:
        overrides["protocol"] = protocol
    if lanes is not None:
        overrides["lanes"] = LanesSpec(count=lanes)
    if adversary_explicit:
        overrides["adversary"] = AdversarySpec(strategy=adversary)
    if overrides:
        spec = spec.with_overrides(**overrides)  # re-validates fault node ids
    seed = scale.seed if seed is None else seed

    config_kwargs = dict(
        n_nodes=spec.n_nodes, workers=spec.workers,
        batch_size=spec.batch_size, tx_size=spec.tx_size,
        fill_blocks=spec.workload.fill_blocks,
        execute_transactions=spec.execution.enabled,
        execution_accounts=spec.execution.n_accounts,
        execution_initial_balance=spec.execution.initial_balance,
        retention_rounds=spec.retention.chain_rounds,
        metrics_horizon_rounds=spec.retention.metrics_horizon_rounds,
        pool_max_pending=spec.pool.max_pending,
        lanes=spec.lanes.count)
    config_overrides = dict(spec.config_overrides)
    # An override shadowing a first-class spec field would desynchronise the
    # actual run from the recorded row / sweep axes; the memory knobs are the
    # exception (config_overrides may retune what retention/pool set).
    clash = sorted(set(config_overrides)
                   & {"n_nodes", "workers", "batch_size", "tx_size",
                      "fill_blocks", "execute_transactions", "lanes"})
    if clash:
        raise ValueError(
            f"config_overrides may not shadow first-class scenario fields "
            f"{clash}; set them on the spec itself")
    config_kwargs.update(config_overrides)
    config = FireLedgerConfig(**config_kwargs)

    workload_box: list = []

    def _setup(env, network, nodes) -> None:
        # Clients avoid known-Byzantine endpoints: under the baselines those
        # replicas are silent (fail-stop model) and would never advance a
        # closed-loop client's delivered_transactions counter.
        byzantine = spec.faults.byzantine_nodes
        targets = [node for node in nodes if node.node_id not in byzantine]
        workload = spec.workload.build(env, targets or nodes, seed=seed,
                                       execution=spec.execution)
        if workload is not None:
            workload_box.append(workload)

    backend = backend or "sim"
    result = run_cluster(
        config,
        protocol=spec.protocol,
        duration=spec.duration,
        warmup=spec.warmup,
        seed=seed,
        latency_model=spec.topology.build(spec.n_nodes),
        faults=spec.faults,
        adversary=spec.adversary,
        setup=_setup,
        backend=backend,
    )

    row = {
        "scenario": spec.name,
        "protocol": spec.protocol,
        "n": spec.n_nodes,
        "workers": spec.workers,
        "batch": spec.batch_size,
        "tx_size": spec.workload.tx_size if not spec.workload.fill_blocks else spec.tx_size,
        "workload": spec.workload.shape,
        "lanes": spec.lanes.count,
        "tps": round(result.tps, 1),
        "bps": round(result.bps, 2),
        "latency_p50_ms": round(result.latency.p50 * 1000, 1),
        "latency_p95_ms": round(result.latency.p95 * 1000, 1),
    }
    if backend != "sim":
        # Only non-default backends are recorded: committed simulated rows
        # predate the column and must keep their exact shape.
        row["backend"] = backend
    if spec.protocol == "fireledger" and spec.lanes.count == 1:
        # Historical column names, kept stable for recorded results.
        row["fast_rounds"] = result.fast_path_rounds
        row["fallback_rounds"] = result.fallback_rounds
        row["failed_rounds"] = result.failed_rounds
        row["recoveries"] = result.recoveries
    else:
        # Other protocols report their own counters (skipped views, committed
        # blocks...) straight from the unified breakdown.  Lane-qualified
        # counters get their dedicated block below.
        for key, value in sorted(result.breakdown.items()):
            # adversary_* counters get their dedicated block below (only for
            # explicitly-swept strategies — committed rows keep their shape).
            if ("->" in key or key.startswith("lane")
                    or key.startswith("adversary")
                    or key in _ROW_COVERED_COUNTERS
                    or key in _EXECUTION_COUNTERS or key in _FAIRNESS_METRICS):
                continue
            row[key] = round(value, 2)
    if spec.lanes.count > 1:
        if "lane_skew" in result.breakdown:
            row["lane_skew"] = round(result.breakdown["lane_skew"], 3)
        for lane in range(spec.lanes.count):
            key = f"lane{lane}_tx_rejected"
            if key in result.breakdown:
                row[key] = int(round(result.breakdown[key]))
    row["msgs_dropped"] = result.network.messages_dropped
    if spec.execution.enabled:
        # The agreed common-prefix root (the oracle already raised if any two
        # honest nodes disagreed) plus the execution / fairness counters.
        row["state_root"] = (result.state_root or "")[:12]
        row["state_deliveries"] = result.state_deliveries
        for key in _EXECUTION_COUNTERS:
            if key in result.breakdown:
                row[key] = int(result.breakdown[key])
        for key in _FAIRNESS_METRICS:
            if key in result.breakdown:
                row[key] = round(result.breakdown[key], 3)
    if "tx_rejected" in result.breakdown:
        row["tx_rejected"] = result.transactions_rejected
    if adversary_explicit:
        # Surfaced only for explicitly-swept strategies: committed Byzantine
        # rows predate the adversary layer and must keep their exact shape.
        row["adversary"] = spec.adversary.strategy
        for key, value in sorted(result.breakdown.items()):
            if key.startswith("adversary_"):
                row[key[len("adversary_"):]] = int(round(value))
    if spec.retention.bounded and spec.protocol == "fireledger":
        # Live-state watermarks for the soak/memfootprint accounting: the
        # largest per-worker live chain and per-node live record counts at
        # run end, which the retention window must bound.  Lanes > 1 wraps
        # each FLO node in a MultiplexedNode; unwrap for the inner view.
        flo_nodes = [inner for node in result.nodes
                     for inner in getattr(node, "lanes", [node])]
        row["live_blocks"] = max(
            (len(worker.chain) for node in flo_nodes
             for worker in node.workers), default=0)
        row["live_records"] = max(
            (node.recorder.live_records for node in flo_nodes), default=0)
        row["pruned_blocks"] = max(
            (worker.chain.summary.blocks for node in flo_nodes
             for worker in node.workers), default=0)
    if workload_box:
        workload = workload_box[0]
        row["submitted_tx"] = workload.total_submitted
        completed = workload.total_completed
        if completed:
            row["completed_req"] = completed
    return [row]
