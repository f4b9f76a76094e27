"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.crypto.keys import KeyStore
from repro.net.latency import SingleDatacenterLatency
from repro.net.network import Network
from repro.sim import Environment


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def small_config() -> FireLedgerConfig:
    """The smallest Byzantine-tolerant cluster configuration (n=4, f=1)."""
    return FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)


def make_network(env: Environment, n_nodes: int = 4, seed: int = 0) -> Network:
    """A single data-center network with a deterministic RNG."""
    return Network(env, n_nodes, latency_model=SingleDatacenterLatency(),
                   rng=random.Random(seed))


@pytest.fixture
def network(env: Environment) -> Network:
    """A 4-node single data-center network."""
    return make_network(env, 4)


@pytest.fixture
def keystore() -> KeyStore:
    """Key pairs for a 4-node cluster."""
    return KeyStore(4)


@pytest.fixture(scope="session")
def cluster_result():
    """Memoizing ``run_cluster`` factory shared across test modules.

    ``cluster_result(seed=7, batch_size=100, ...)`` runs a cluster with the
    small default configuration (n=4, workers=1, batch=10, tx=512; 0.6s run,
    0.1s warmup, seed 3) overridden by the keyword arguments — config fields
    and ``run_cluster`` parameters alike — and caches the result, so test
    modules asserting different properties of the same run share one
    simulation instead of re-running it.  Deliberately session-scoped:
    results are immutable summaries, and determinism tests that need two
    *fresh* runs should call ``run_cluster`` directly.
    """
    run_params = ("protocol", "duration", "warmup", "seed", "latency_model",
                  "faults", "adversary", "latency_trim", "setup", "backend")
    defaults = dict(n_nodes=4, workers=1, batch_size=10, tx_size=512,
                    duration=0.6, warmup=0.1, seed=3)
    cache: dict = {}

    def run(**overrides):
        kwargs = {**defaults, **overrides}
        run_kwargs = {key: kwargs.pop(key) for key in run_params
                      if key in kwargs}
        key = repr(sorted(kwargs.items())) + repr(sorted(run_kwargs.items()))
        if key not in cache:
            cache[key] = run_cluster(FireLedgerConfig(**kwargs), **run_kwargs)
        return cache[key]

    return run
