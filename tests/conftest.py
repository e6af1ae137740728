from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from pschrod.grid import sample, zero_boundary
from pschrod.pipeline import SchemeConfig, run_scheme
from pschrod.potentials import constant_potential, sample_potential
from pschrod.presets import manufactured, standard_grid, standard_potential, two_bump_datum
from pschrod.solver import Problem


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


def _kronecker_cell_gradient(spec):
    """G stacked from Kronecker products of 1-D difference and average matrices."""
    m = spec.m
    diff = sp.diags([-1.0 / spec.h, 1.0 / spec.h], [0, 1], shape=(m - 1, m))
    avg = sp.diags([0.5, 0.5], [0, 1], shape=(m - 1, m))
    comps = [
        reduce(lambda a, b: sp.kron(a, b, format="csr"),
               [diff if other == axis else avg for other in range(spec.n)])
        for axis in range(spec.n)
    ]
    return sp.vstack(comps, format="csr")


@pytest.fixture(scope="session")
def kronecker_gradient():
    """The reference cell gradient: ``kronecker_gradient(spec)`` is G as CSR,
    built independently of ``pschrod.grid.cell_stencil``."""
    return _kronecker_cell_gradient


def _manufactured_case(p, spec):
    u, f = manufactured(p, spec.n)
    V = sample_potential(constant_potential(), spec)
    return Problem(spec=spec, p=p, V=V, f=sample(spec, f)), zero_boundary(sample(spec, u))


@pytest.fixture(scope="session")
def manufactured_case():
    """``manufactured_case(p, spec)`` is ``(Problem, exact)``: the datum of
    ``presets.manufactured`` with V = 1, and exp(-|x|^2) zeroed on the boundary."""
    return _manufactured_case
