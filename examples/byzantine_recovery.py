"""Watch FireLedger detect an equivocating node and recover.

One node of a 4-node cluster is Byzantine: every time it proposes, it sends
different blocks to two halves of the cluster (the attack of Section 7.4.2).
The honest nodes detect the hash mismatch, reliably broadcast a proof, run the
recovery procedure over atomic broadcast and converge on a single chain — at
the cost of throughput, which is exactly the trade-off Figure 12 quantifies.

Run with::

    python examples/byzantine_recovery.py
"""

from repro import FireLedgerConfig, run_cluster
from repro.experiments import ExperimentScale, format_rows, registry
from repro.faults import FaultSchedule, byzantine


def main() -> None:
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=100, tx_size=512)

    honest = run_cluster(config, duration=1.5, warmup=0.2, seed=9)
    attacked = run_cluster(config, duration=1.5, warmup=0.2, seed=9,
                           faults=FaultSchedule((byzantine(3),)))

    print("FireLedger under an equivocating proposer (node 3)")
    print(f"  fault-free throughput : {honest.tps:,.0f} tps, "
          f"{honest.recoveries} recoveries")
    print(f"  under attack          : {attacked.tps:,.0f} tps, "
          f"{attacked.recoveries} recoveries "
          f"({attacked.recoveries_per_second:.1f} recoveries/s)")

    correct = [node for node in attacked.nodes if node.node_id != 3]
    chains = [node.workers[0].chain for node in correct]
    common = min(chain.definite_height for chain in chains)
    agreed = all(
        chain.block_at_round(r).digest == chains[0].block_at_round(r).digest
        for chain in chains for r in range(common + 1)
    )
    print(f"\nSafety check: correct nodes agree on every definite block up to "
          f"round {common}: {agreed}")
    equivocations = attacked.nodes[3].workers[0].equivocations
    print(f"Node 3 equivocated {equivocations} times; every attack that reached a "
          f"correct node's chain was rolled back by the recovery procedure.")

    # Figure 12 quantifies this trade-off over batch sizes; run one point of
    # it through the registry (`python -m repro run fig12 --scale quick` for
    # the recorded version, or `sweep` for the full grid).
    spec = registry.get("fig12")
    rows = spec.run(ExperimentScale(duration=0.8, warmup=0.15,
                                    workers_sweep=(1,), cluster_sizes=(4,),
                                    batch_sizes=(10, 1000), tx_sizes=(512,)))
    print(f"\n{spec.title} (registry driver, two batch sizes):")
    print(format_rows(rows))


if __name__ == "__main__":
    main()
