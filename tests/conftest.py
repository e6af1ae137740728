import numpy as np
import pytest

from pschrod.pipeline import SchemeConfig, run_scheme
from pschrod.presets import standard_grid, standard_potential, two_bump_datum


@pytest.fixture(scope="session")
def std_datum():
    return two_bump_datum(standard_grid())


@pytest.fixture(scope="session")
def std_config():
    """Levels k in {1, 2, 4, 8, 16}; the R grid is SchemeConfig's."""
    return SchemeConfig(
        k_list=(1.0, 2.0, 4.0, 8.0, 16.0),
        t_grid=(0.1, 0.5, 1.0, 2.0, 5.0),
        alpha_grid=(0.5, 1.0, 2.0),
    )


@pytest.fixture(scope="session")
def std_scheme_p2(std_datum, std_config):
    return run_scheme(std_datum, standard_potential(), 2.0, std_config)


@pytest.fixture(scope="session")
def std_scheme_p3(std_datum, std_config):
    return run_scheme(std_datum, standard_potential(), 3.0, std_config)


@pytest.fixture()
def rng():
    return np.random.default_rng(20250808)
