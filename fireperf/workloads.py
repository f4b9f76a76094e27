"""The four benchmark workloads and the correctness checks on their cells.

A workload is a list of cells; a cell is one call into ``repro``'s public
API (a registry driver, or ``run_scenario`` for the live run) that returns
result rows and runs ``run_cluster`` exactly once.  Every input derives from
the seed; the committed results use seed 7.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.experiments import registry, sweep
from repro.experiments.harness import ExperimentScale
from repro.scenarios import library
from repro.scenarios.runner import run_scenario

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"


@dataclass(frozen=True)
class Cell:
    """One run of a registered experiment at one point of its axes."""

    experiment: str
    params: dict = field(default_factory=dict)
    #: Nodes left out of the chain-agreement check (Byzantine members).
    byzantine: frozenset = frozenset()
    #: Live cells are nondeterministic: their rows are not compared.
    live: bool = False
    #: Runs the cell from a seed in place of the registry driver.
    runner: Optional[Callable[[int], list]] = None

    @property
    def label(self) -> str:
        point = ",".join(f"{key}={value}" for key, value in sorted(self.params.items()))
        return f"{self.experiment}[{point}]" if point else self.experiment

    def run(self, seed: int) -> list[dict]:
        if self.runner is not None:
            return self.runner(seed)
        axes = {axis: (value,) for axis, value in self.params.items()}
        return registry.get(self.experiment).run(ExperimentScale(seed=seed), axes)

    def committed_rows(self, seed: int) -> Optional[list]:
        """Rows of the committed record for this exact configuration, if any."""
        if self.runner is not None:  # not a registry run: nothing was recorded
            return None
        spec = registry.get(self.experiment)
        wanted = sweep.config_id(spec.name, ExperimentScale(seed=seed), self.params,
                                 defaults=spec.axis_defaults)
        path = sweep.results_path(RESULTS_DIR, spec.name)
        if not path.exists():
            return None
        rows = None
        for line in path.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                if record.get("config_id") == wanted:
                    rows = record["rows"]  # the last record wins, as on resume
        return rows


def _gauntlet_cell(protocol: str, adversary: str) -> Cell:
    spec = library.get("adversary-gauntlet")
    return Cell("scenario:adversary-gauntlet",
                {"protocol": protocol, "adversary": adversary},
                byzantine=spec.faults.byzantine_nodes | spec.faults.excluded_nodes())


def _live_paper_lan(seed: int) -> list[dict]:
    spec = library.get("paper-lan").with_overrides(duration=LIVE_SECONDS)
    return run_scenario(spec, scale=ExperimentScale(seed=seed), backend="realtime")


#: Real seconds of one live cell.
LIVE_SECONDS = 3.0
#: Committed transactions a live cell's ``wall_s`` is quoted for: the live
#: cluster runs for fixed real time, so its wall time for a fixed amount of
#: work is this count over the measured commit rate.
LIVE_WORK_TX = 1_000_000

WORKLOADS: dict[str, list[Cell]] = {
    "fig10-n200": [Cell("fig10", {"cluster_size": 200, "batch_size": 1000, "workers": 1})],
    "hotspot-transfers": [Cell("scenario:hotspot-transfers")],
    "byzantine-gauntlet": [
        _gauntlet_cell("fireledger", "targeted-equivocate"),
        _gauntlet_cell("fireledger", "churn"),
        _gauntlet_cell("bftsmart", "delayed-release"),
        _gauntlet_cell("hotstuff", "delayed-release"),
    ],
    "live-paper-lan": [Cell("scenario:paper-lan", {"backend": "realtime"},
                            live=True, runner=_live_paper_lan)],
}


# ---------------------------------------------------------------- checks
def check_cell(cell: Cell, rows: list, results: list, seed: int) -> list[str]:
    """Problems with one finished cell; empty when it is correct.

    The state-root oracle runs inside ``run_cluster`` and raises on
    divergence, so reaching this point means it passed.  Checked here:
    exactly one cluster ran, every honest node made progress, honest FLO
    nodes decided the same block in every round they all hold, and on a
    seed with a committed record the rows equal that record field for field.
    """
    if len(results) != 1:
        return [f"expected one run_cluster call, saw {len(results)}"]
    result = results[0]
    problems = []
    if not result.per_node_bps or min(result.per_node_bps) <= 0:
        problems.append(f"an honest node made no progress: bps {result.per_node_bps}")
    honest = [node for node in result.nodes if node.node_id not in cell.byzantine]
    problems.extend(chain_disagreements(honest,
                                        tentative=not (cell.byzantine or cell.live)))
    committed = cell.committed_rows(seed)
    if committed is not None:
        problems.extend(record_drift(canonical(rows), committed))
    return problems


def record_drift(rows: list, committed: list) -> list[str]:
    """Fields of a committed record that a fresh run does not reproduce.

    Every committed field must match exactly; fresh rows may add columns
    that postdate the record (``lanes``), as in the repository's own
    field-identity tests.
    """
    if len(rows) != len(committed):
        return [f"{len(rows)} rows, the committed record has {len(committed)}"]
    return [f"row {index} field {key!r}: {row.get(key)!r} != committed {value!r}"
            for index, (row, old) in enumerate(zip(rows, committed))
            for key, value in old.items() if row.get(key, object()) != value]


def chain_disagreements(nodes: list, tentative: bool) -> list[str]:
    """Rounds in which honest FLO nodes decided different blocks, per worker.

    Every round that all the nodes hold unpruned is compared, up to the
    lowest node's height when ``tentative`` is true and up to its newest
    definite round otherwise.  A fault-free simulated run revokes nothing;
    a Byzantine proposer, or a real-time timer that fires late, can make an
    honest node decide a tentative block that recovery later revokes, and
    only definite blocks are final.  A cluster of FLO nodes with no round
    to compare is a problem too, since then the check proved nothing.
    """
    flo_nodes = [node for node in nodes if hasattr(node, "workers")]
    if not flo_nodes:
        return []
    problems, compared = [], 0
    for worker_id in range(len(flo_nodes[0].workers)):
        chains = [node.workers[worker_id].chain for node in flo_nodes]
        first = max(0, max(chain.pruned_through for chain in chains) + 1)
        last = min(chain.height if tentative else chain.definite_height
                   for chain in chains)
        for round_number in range(first, last + 1):
            compared += 1
            reference = chains[0].block_at_round(round_number).digest
            for node, chain in zip(flo_nodes[1:], chains[1:]):
                if chain.block_at_round(round_number).digest != reference:
                    problems.append(
                        f"worker {worker_id} round {round_number}: node {node.node_id} "
                        f"decided a block conflicting with node {flo_nodes[0].node_id}")
    if not compared:
        problems.append("no decided round is held by every honest node: "
                        "the chains were not compared")
    return problems


def canonical(rows: list) -> list:
    """Rows as they read back from a JSONL record."""
    return json.loads(json.dumps(rows, default=str))
