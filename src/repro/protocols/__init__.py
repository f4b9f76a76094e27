"""Pluggable consensus protocols for the cluster runner.

One module per protocol with its
:class:`~repro.protocols.base.ConsensusProtocol` adapter (the HotStuff and
BFT-SMaRt modules also hold their replica logic; FireLedger's lives in
:mod:`repro.core`), registered by name so
``run_cluster(config, protocol="hotstuff")``, scenario specs
(``protocol = "bftsmart"``) and the ``--protocol`` sweep axis all resolve
through the same registry.  Shipped protocols:

* ``fireledger`` — the paper's protocol (FLO nodes running FireLedger
  worker instances);
* ``hotstuff``   — chained HotStuff with rotating leaders (Section 7.6);
* ``bftsmart``   — a BFT-SMaRt-style stable-leader ordering service.

On top of the registered names, the dynamic spelling
``multiplexed(<base>, lanes=<M>)`` composes M independent lanes of any base
protocol over one shared network and merges their delivery streams into a
single total order (see :mod:`repro.protocols.multiplexed`); setting
``FireLedgerConfig.lanes > 1`` applies the same wrapper implicitly.

Adding a protocol: implement the contract in :mod:`repro.protocols.base`
and call :func:`register` (see ARCHITECTURE.md, "Protocol layer").
"""

from repro.protocols.base import (
    ConsensusProtocol,
    Delivery,
    DeliveryStream,
    NodeMetrics,
    SharedTxPool,
    get,
    names,
    register,
    resolve,
)
from repro.protocols.bftsmart import BFTSmartProtocol
from repro.protocols.fireledger import FireLedgerProtocol
from repro.protocols.hotstuff import HotStuffProtocol
from repro.protocols.multiplexed import LaneNetwork, MultiplexedNode, MultiplexedProtocol

register(FireLedgerProtocol())
register(HotStuffProtocol())
register(BFTSmartProtocol())

__all__ = [
    "ConsensusProtocol",
    "Delivery",
    "DeliveryStream",
    "NodeMetrics",
    "SharedTxPool",
    "FireLedgerProtocol",
    "HotStuffProtocol",
    "BFTSmartProtocol",
    "LaneNetwork",
    "MultiplexedNode",
    "MultiplexedProtocol",
    "register",
    "get",
    "names",
    "resolve",
]
