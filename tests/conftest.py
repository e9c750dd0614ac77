import pytest

from shortint.primes import build_table


@pytest.fixture(scope="session")
def table_1e5():
    return build_table(10**5 + 100)


@pytest.fixture(scope="session")
def table_1e6():
    return build_table(10**6 + 200)


@pytest.fixture(scope="session")
def table_1e7():
    return build_table(10**7 + 200)

