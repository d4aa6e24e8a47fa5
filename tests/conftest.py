import sys

import pytest

# restricta is imported below: leave no __pycache__ in src/ for later runs to read
sys.dont_write_bytecode = True

from restricta import primes  # noqa: E402


@pytest.fixture(scope="session")
def table_1e4():
    return primes.sieve_primes(10**4)


@pytest.fixture(scope="session")
def table_1e6():
    return primes.sieve_primes(10**6)
