import pytest

from expaction import expansion, zoo


@pytest.fixture(scope="session")
def cyclic_system():
    return zoo.make_cyclic_hyperbolic(2.0)


@pytest.fixture(scope="session")
def cyclic_datum(cyclic_system):
    return expansion.build_expansion_datum(cyclic_system, 1.5)


@pytest.fixture(scope="session")
def schottky_system():
    return zoo.make_schottky()


@pytest.fixture(scope="session")
def schottky_datum(schottky_system):
    return expansion.build_expansion_datum(schottky_system, 1.4)


@pytest.fixture(scope="session")
def covered_system():
    return zoo.make_covered_cyclic(2.0, 3)


@pytest.fixture(scope="session")
def covered_datum(covered_system):
    return expansion.build_expansion_datum(covered_system, 1.5)


@pytest.fixture(scope="session")
def fb_system():
    return zoo.make_free_boundary(2, 2.0)


@pytest.fixture(scope="session")
def fb_datum(fb_system):
    return expansion.build_expansion_datum(fb_system, 2.0)


@pytest.fixture(scope="session")
def zn_system():
    return zoo.make_zn_projective([[9.0, 1.0, 3.0], [9.0, 3.0, 1.0]])


@pytest.fixture(scope="session")
def zn_datum(zn_system):
    return expansion.build_expansion_datum(zn_system, 2.0)


@pytest.fixture(scope="session")
def product_system(fb_system):
    return zoo.make_product(fb_system, fb_system, with_swap=True)


@pytest.fixture(scope="session")
def product_datum(product_system):
    return expansion.build_expansion_datum(product_system, 2.0)
