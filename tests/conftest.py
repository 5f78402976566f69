import pytest

from qeopt.encoding import make_scheme
from qeopt.problem import example_instance_n4


@pytest.fixture(scope="session")
def n4_instance():
    return example_instance_n4()


@pytest.fixture(scope="session")
def n4_scheme():
    return make_scheme(4, 2)
