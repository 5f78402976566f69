from typing import NamedTuple

import pytest

from qeopt.encoding import make_scheme
from qeopt.problem import (OptimumRecord, SKInstance, example_instance_n4, generate_sk,
                           local_search_optimum)


@pytest.fixture(scope="session")
def n4_instance():
    return example_instance_n4()


@pytest.fixture(scope="session")
def n4_scheme():
    return make_scheme(4, 2)


class TabuEnsemble(NamedTuple):
    """Instances with the tabu seed and the ``local_search_optimum`` record of each."""

    instances: list[SKInstance]
    tabu_seeds: list[int]
    records: list[OptimumRecord]


def tabu_ensemble(n, kind, instance_seeds, tabu_seeds):
    instances = [generate_sk(n, kind, seed=s) for s in instance_seeds]
    records = [local_search_optimum(inst, seed=t) for inst, t in zip(instances, tabu_seeds)]
    return TabuEnsemble(instances, list(tabu_seeds), records)


# The acceptance suite's tabu ground truths, each searched once per session;
# TestStallExit compares the same records with the full-budget search.

@pytest.fixture(scope="session")
def donor():
    """The N=64 pm1 donor of criteria 9-12."""
    return tabu_ensemble(64, "pm1", [1], [0])


@pytest.fixture(scope="session")
def pm1_ensemble():
    return tabu_ensemble(64, "pm1", range(100, 120), range(40, 60))


@pytest.fixture(scope="session")
def gaussian_ensemble():
    return tabu_ensemble(64, "gaussian", range(200, 220), range(60, 80))


@pytest.fixture(scope="session")
def transfer_n128():
    """The N=128 instances of criterion 11's size transfer."""
    return tabu_ensemble(128, "pm1", range(300, 310), range(50, 60))
