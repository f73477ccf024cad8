import dataclasses

import pytest

from skipcomp.model import NetworkParams
from skipcomp.montecarlo import SimulationSpec, simulate

ACCEPT_SEED = 20240817


@pytest.fixture(scope="session")
def default_net():
    return NetworkParams(lambda_bs=70.0, eta=4.0, tx_power=1.0,
                         noise_power=0.0, bandwidth=1e7)


@pytest.fixture(scope="session")
def big_mc(default_net):
    """One shared 2e5-trial simulation; slices of it stand in for smaller runs
    (the first k batches of a run are bit-identical to a k-batch run)."""
    spec = SimulationSpec(trials=200_000, seed=ACCEPT_SEED, batch_size=2000)
    return simulate(default_net, spec)


@pytest.fixture(scope="session")
def mc_100k(big_mc):
    """The first 1e5 trials of big_mc, equal to a standalone 1e5-trial run."""
    n = 100_000
    return dataclasses.replace(
        big_mc, sinr={k: v[:n] for k, v in big_mc.sinr.items()},
        spec=dataclasses.replace(big_mc.spec, trials=n),
    )
